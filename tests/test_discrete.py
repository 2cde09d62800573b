"""Constrained variational solver: objective, gradient, solve, multiplier."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from gaussmink import discrete
from gaussmink.discrete import (
    VariationalProblem,
    _volume_hessian_bands,
    recover_multiplier,
    solve_constrained,
)
from gaussmink.errors import HemisphereConditionError, SolverStallError
from gaussmink.families import (
    cos_density,
    hemisphere_bad_measure,
    random_even_measure,
    random_spanning_measure,
    square_surface_measure,
    uniform_mgon_measure,
)
from gaussmink.gaussian import (
    field_gauss_volume,
    gauss_surface_polygon,
    gauss_volume_exact,
    lp_gauss_surface_polygon,
    lp_surface_measure,
)
from gaussmink.smooth import solve_homotopy
from gaussmink.geometry import (
    DiscreteMeasure,
    SupportPolygon,
    body_hausdorff_distance,
    box_polygon,
    disc_polygon,
    support_profile,
    wulff_shape,
    wulff_shape_with_indices,
)

SQUARE_EDGE_MASS = 0.16519087103401669


def ring_measure(k, total, offset=0.0):
    theta = 2.0 * np.pi * np.arange(k) / k + offset
    return DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]),
                           np.full(k, total / k))


def random_atoms(seed, k):
    """k atoms at uniform random angles, masses U(0.02, 0.3)."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, k)
    return DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]),
                           rng.uniform(0.02, 0.3, k))


def half_volume_body(normals, support):
    """Scale a body so its Gaussian volume is 1/2 to near machine precision."""
    f = lambda s: gauss_volume_exact(wulff_shape(normals, s * support)) - 0.5
    s = brentq(f, 0.05, 20.0, xtol=1e-15, rtol=8.9e-16)
    return wulff_shape(normals, s * support)


def random_full_polygon(seed, k=8):
    """Sorted random normals and supports whose polygon keeps all k facets,
    each at least 0.01 long, so a 1e-5 change of one support keeps them too."""
    rng = np.random.default_rng(seed)
    while True:
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        support = rng.uniform(0.8, 1.5, k)
        try:
            body = wulff_shape(normals, support)
        except ValueError:
            continue
        edges = np.linalg.norm(body.vertices - np.roll(body.vertices, 1, axis=0), axis=1)
        if body.num_edges == k and edges.min() > 0.01:
            return normals, support


def random_half_volume_body(seed, m_low=5, m_high=24):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        m = int(rng.integers(m_low, m_high))
        raw = rng.standard_normal((m, 2))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        h = rng.uniform(0.7, 1.8, m)
        try:
            wulff_shape(raw, h)
            return half_volume_body(raw, h)
        except ValueError:
            continue
    raise AssertionError("no bounded random body found")


def assert_solved(mu, p):
    """The solve meets both tolerances and every atom keeps its facet."""
    prob = VariationalProblem(mu, p)
    rep = solve_constrained(prob)
    assert abs(gauss_volume_exact(rep.body) - 0.5) <= prob.volume_tol
    assert recover_multiplier(rep.body, mu, p)[1] <= prob.stationarity_tol
    assert rep.body.num_edges == mu.num_atoms
    return rep


class TestVolumeGradient:
    def test_square_components(self):
        grad = gauss_surface_polygon(box_polygon(1.0))
        np.testing.assert_allclose(grad, SQUARE_EDGE_MASS, atol=1e-14)

    def test_disc_components_sum(self):
        grad = gauss_surface_polygon(disc_polygon(1.0, 512))
        assert np.ptp(grad) <= 1e-14
        assert grad.sum() == pytest.approx(math.exp(-0.5), abs=1e-5)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_finite_difference(self, seed):
        normals, support = random_full_polygon(seed)
        grad = gauss_surface_polygon(wulff_shape(normals, support))
        eps = 1e-5
        for i in range(8):
            hp = support.copy(); hp[i] += eps
            hm = support.copy(); hm[i] -= eps
            fd = (gauss_volume_exact(wulff_shape(normals, hp))
                  - gauss_volume_exact(wulff_shape(normals, hm))) / (2.0 * eps)
            assert abs(fd - grad[i]) <= 1e-6

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_hessian_bands_match_central_differences(self, seed):
        normals, support = random_full_polygon(seed)
        body = wulff_shape(normals, support)
        sub, diag, sup = _volume_hessian_bands(body, gauss_surface_polygon(body))
        eps = 1e-5
        for j in range(8):
            hp = support.copy(); hp[j] += eps
            hm = support.copy(); hm[j] -= eps
            col = (gauss_surface_polygon(wulff_shape(normals, hp))
                   - gauss_surface_polygon(wulff_shape(normals, hm))) / (2.0 * eps)
            band = np.zeros(8)
            band[j] = diag[j]
            band[(j + 1) % 8] = sub[(j + 1) % 8]
            band[(j - 1) % 8] = sup[(j - 1) % 8]
            np.testing.assert_allclose(col, band, rtol=1e-5, atol=1e-7)


class TestRecoverMultiplier:
    def test_exact_stationary_pair(self):
        K = half_volume_body(box_polygon(1.0).normals, box_polygon(1.0).support)
        for p in (1.0, 2.5):
            mu = lp_surface_measure(K, p)
            lam, residual = recover_multiplier(K, mu, p)
            assert residual <= 1e-12
            assert lam == pytest.approx(p, rel=1e-12)

    def test_scaled_measure_scales_lambda(self):
        K = random_half_volume_body(5)
        mu = lp_surface_measure(K, 1.0)
        scaled = DiscreteMeasure(2, mu.directions, 3.0 * mu.masses)
        lam, _ = recover_multiplier(K, scaled, 1.0)
        assert lam == pytest.approx(3.0, rel=1e-12)

    def test_perturbation_increases_residual(self):
        theta = 2.0 * np.pi * np.arange(6) / 6.0
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        K = half_volume_body(normals, np.array([1.0, 1.1, 0.95, 1.05, 1.0, 1.15]))
        mu = lp_surface_measure(K, 1.0)
        rng = np.random.default_rng(0)
        residuals = []
        for noise in (1e-4, 1e-3, 1e-2):
            h = K.support * (1.0 + noise * rng.standard_normal(K.num_edges))
            body = wulff_shape(K.normals, h)
            _, res = recover_multiplier(body, mu, 1.0)
            residuals.append(res)
        assert residuals[0] < residuals[1] < residuals[2]
        assert residuals[0] > 0.0

    def test_no_matching_facets_rejected(self):
        K = box_polygon(1.0)
        theta = np.array([0.4, 2.1, 4.0])
        mu = DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]),
                             np.ones(3))
        with pytest.raises(ValueError):
            recover_multiplier(K, mu, 1.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_matches_per_atom_loop(self, seed):
        # reference: match each atom to a facet within 1e-9 in angle, one by one
        K = random_half_volume_body(seed % 50)
        rng = np.random.default_rng(seed)
        extra = rng.uniform(0.0, 2.0 * np.pi, 3)
        dirs = np.vstack([K.normals, np.column_stack([np.cos(extra), np.sin(extra)])])
        mu = DiscreteMeasure(2, dirs, rng.uniform(0.05, 0.3, len(dirs)))
        sp = lp_gauss_surface_polygon(K, 1.5)
        s = np.zeros(mu.num_atoms)
        for i, d in enumerate(mu.directions):
            gap = np.abs(np.angle(complex(*d) / (K.normals[:, 0] + 1j * K.normals[:, 1])))
            if gap.min() <= 1e-9:
                s[i] = sp[np.argmin(gap)]
        lam = (1.5 * mu.masses @ s) / (s @ s)
        active = s > 0.0
        worst = np.max(np.abs(1.5 * mu.masses - lam * s)[active] / (1.5 * mu.masses[active]))
        assert recover_multiplier(K, mu, 1.5) == pytest.approx((lam, worst), rel=1e-12)


class TestProblemValidation:
    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            VariationalProblem(ring_measure(8, 0.3), 0.0)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            VariationalProblem(ring_measure(8, 0.3), 1.0, target_volume=1.5)

    @pytest.mark.parametrize("name", ["p", "stationarity_tol"])
    def test_nan_refused(self, name):
        # every comparison with NaN is false, so `x <= 0` would let it through
        with pytest.raises(ValueError):
            VariationalProblem(ring_measure(8, 0.3), **{"p": 1.0, name: math.nan})


class TestSolveConstrained:
    def test_regular_octagon_reduces_to_scale_root(self):
        mu = ring_measure(8, 0.3)
        rep = solve_constrained(VariationalProblem(mu, 1.0))
        assert np.ptp(rep.body.support) <= 1e-10  # symmetry: all h equal
        theta = 2.0 * np.pi * np.arange(8) / 8.0
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        s_star = brentq(
            lambda s: gauss_volume_exact(wulff_shape(normals, np.full(8, s))) - 0.5,
            0.5, 3.0, xtol=1e-14)
        assert rep.body.support.mean() == pytest.approx(s_star, abs=1e-8)
        assert abs(rep.volume_residual) <= 1e-8
        assert rep.stationarity_residual <= 1e-8
        assert rep.multiplier > 0.0
        assert rep.flags == ()  # even, mass below threshold: certificate holds
        for p in (0.3, 0.5, 0.9):  # phi is not convex below p = 1: no certificate
            assert solve_constrained(VariationalProblem(mu, p)).flags == ("uncertified",)

    def test_square_round_trip(self):
        K = half_volume_body(box_polygon(1.0).normals, box_polygon(1.0).support)
        mu = lp_surface_measure(K, 1.0)
        rep = solve_constrained(VariationalProblem(mu, 1.0))
        assert body_hausdorff_distance(K, rep.body) <= 1e-6
        assert rep.multiplier == pytest.approx(1.0, rel=1e-6)
        assert "no-uniqueness-certificate" in rep.flags  # mass above threshold

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_random_round_trip(self, p):
        K = random_half_volume_body(101)
        mu = lp_surface_measure(K, p)
        rep = solve_constrained(VariationalProblem(mu, p))
        assert body_hausdorff_distance(K, rep.body) <= 1e-6
        assert rep.multiplier / p == pytest.approx(1.0, abs=1e-6)
        assert abs(rep.volume_residual) <= 1e-8
        assert rep.stationarity_residual <= 1e-4

    def test_deterministic(self):
        mu = lp_surface_measure(random_half_volume_body(55), 1.0)
        a = solve_constrained(VariationalProblem(mu, 1.0))
        b = solve_constrained(VariationalProblem(mu, 1.0))
        np.testing.assert_array_equal(a.body.support, b.body.support)
        assert a.multiplier == b.multiplier
        assert a.iterations == b.iterations

    def test_mass_scaling_leaves_body_fixed(self):
        mu = lp_surface_measure(random_half_volume_body(77), 1.0)
        rep1 = solve_constrained(VariationalProblem(mu, 1.0))
        scaled = DiscreteMeasure(2, mu.directions, 2.5 * mu.masses)
        rep2 = solve_constrained(VariationalProblem(scaled, 1.0))
        assert body_hausdorff_distance(rep1.body, rep2.body) <= 1e-7
        assert rep2.multiplier == pytest.approx(2.5 * rep1.multiplier, rel=1e-7)

    def test_even_measure_gives_symmetric_body(self):
        rng = np.random.default_rng(9)
        theta = rng.uniform(0.0, np.pi, 6)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        masses = rng.uniform(0.05, 0.3, 6)
        mu = DiscreteMeasure(2, np.vstack([dirs, -dirs]), np.concatenate([masses, masses]))
        rep = solve_constrained(VariationalProblem(mu, 1.0))
        h_plus = support_profile(rep.body, mu.directions[:6])
        h_minus = support_profile(rep.body, -mu.directions[:6])
        assert np.max(np.abs(h_plus - h_minus)) <= 1e-8

    @given(st.integers(0, 149), st.sampled_from([1.0, 1.5, 2.0, 5.0]))
    @settings(max_examples=100, deadline=None)
    def test_random_even_measures_give_symmetric_bodies(self, seed, p):
        # symmetric to rounding: h(-nu) = h(nu) on every facet normal
        mu = random_even_measure(np.random.default_rng(seed))
        body = solve_constrained(VariationalProblem(mu, p)).body
        gap = np.max(np.abs(support_profile(body, -body.normals) - body.support))
        assert gap <= 1e-13 * np.max(body.support)

    def test_objective_trace_contracts_to_reported_body(self):
        # Newton's tail approaches the constrained optimum: each of the last
        # three jumps of the trace is at most 0.75 of the one before (the
        # damped first steps need not contract: for seed 14 the jumps run
        # 5.7e-3, 6.5e-3), and the last trace entry is the objective of the
        # returned body
        for seed in (3, 14, 27):
            K = random_half_volume_body(seed)
            mu = lp_surface_measure(K, 1.0)
            rep = solve_constrained(VariationalProblem(mu, 1.0))
            trace = np.array(rep.objective_trace)
            jumps = np.abs(np.diff(trace))[-3:]
            assert len(jumps) == 3
            for a, b in zip(jumps[:-1], jumps[1:]):
                assert b <= max(0.75 * a, 1e-11)
            h_star = support_profile(rep.body, mu.directions)
            assert trace[-1] == pytest.approx(float(mu.masses @ h_star), abs=1e-9)

    @pytest.mark.parametrize("seed, p", [(1015, 1.5), (1009, 3.0), (1008, 0.5)])
    def test_spanning_measures_solved(self, seed, p):
        assert_solved(random_spanning_measure(np.random.default_rng(seed), 20, 64), p)

    @pytest.mark.parametrize("scale", [1e-4, 1e-6])
    def test_skewed_masses_solved(self, scale):
        # one atom in three carries a mass scaled down by 1e-4 or 1e-6
        mu = random_spanning_measure(np.random.default_rng(2000), 20, 64)
        masses = mu.masses.copy()
        masses[::3] *= scale
        assert_solved(DiscreteMeasure(2, mu.directions, masses), 1.0)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1.5, 3.0]))
    @settings(max_examples=25, deadline=None)
    def test_random_non_even_measures_solved(self, seed, p):
        mu = random_spanning_measure(np.random.default_rng(seed), 4, 40)
        assume(not mu.is_even())
        assert_solved(mu, p)

    @pytest.mark.parametrize("measure, p, at_start", [
        pytest.param(lambda: uniform_mgon_measure(4, 0.3), 20.0, True, id="4-gon, p = 20"),
        pytest.param(lambda: uniform_mgon_measure(4, 0.3), 50.0, True, id="4-gon, p = 50"),
        pytest.param(lambda: uniform_mgon_measure(8, 0.3), 20.0, True, id="8-gon, p = 20"),
        pytest.param(lambda: uniform_mgon_measure(8, 0.3), 50.0, True, id="8-gon, p = 50"),
        pytest.param(lambda: uniform_mgon_measure(64, 0.3), 30.0, True, id="64-gon, p = 30"),
        pytest.param(lambda: random_even_measure(np.random.default_rng(24)), 5.0, False,
                     id="even rng 24, p = 5"),
        pytest.param(lambda: random_even_measure(np.random.default_rng(24)), 20.0, False,
                     id="even rng 24, p = 20"),
        pytest.param(lambda: random_even_measure(np.random.default_rng(25)), 20.0, False,
                     id="even rng 25, p = 20"),
        pytest.param(square_surface_measure, 2000.0, True, id="square, p = 2000"),
        pytest.param(lambda: uniform_mgon_measure(4096, 0.3), 1.0, True, id="4096-gon, p = 1"),
    ])
    def test_solved_from_the_rescaled_start(self, measure, p, at_start):
        # from the polygon circumscribing the target-volume ball, whose volume
        # exceeds the target, the regular measures hit the step limit, the
        # even measures and the square stopped at a "rounding floor" far from
        # it, and the 4096-gon took 4 steps.  On a regular measure that
        # polygon rescaled onto the constraint is already the solution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = assert_solved(measure(), p)
        if at_start:
            assert report.iterations == 0

    def test_ten_thousand_atoms_in_linear_memory(self):
        # the closest of 10^4 random angles are ~1e-8 rad apart; vertices
        # computed by Cramer's rule fell off their lines by more than 1e-9
        # there, and the solve failed before its first Newton step
        mu = random_atoms(1, 10_000)
        tracemalloc.start()
        try:
            rep = solve_constrained(VariationalProblem(mu, 1.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.body.num_edges == mu.num_atoms
        assert abs(rep.volume_residual) <= 1e-8 and rep.stationarity_residual <= 1e-4
        assert peak < 32 * 2**20  # one k x k float array alone takes 763 MiB

    def test_hemisphere_violation_raises(self):
        theta = np.array([-1.2, -0.4, 0.3, 1.1])  # all within a halfplane
        mu = DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]),
                             np.ones(4))
        with pytest.raises(HemisphereConditionError):
            solve_constrained(VariationalProblem(mu, 1.0))

    @pytest.mark.parametrize("scale", [1.0, 1e-30, 1e30])
    def test_hemisphere_gate_refuses_at_every_scale(self, scale):
        bad = hemisphere_bad_measure()
        mu = DiscreteMeasure(2, bad.directions, scale * bad.masses)
        with pytest.raises(HemisphereConditionError, match="closed hemisphere"):
            solve_constrained(VariationalProblem(mu, 1.0))

    @pytest.mark.parametrize("total", [1e-8, 1e-12, 1e-30])
    def test_light_octagon_passes_the_hemisphere_gate(self, total):
        # margin 0.302 total: an absolute gate at 1e-8 refused these octagons
        rep = solve_constrained(VariationalProblem(uniform_mgon_measure(8, total), 1.5))
        assert rep.iterations == 0
        assert rep.multiplier / total == pytest.approx(2.65998, rel=1e-5)

    def test_scaled_measure_solves_to_the_same_body(self):
        mu = random_spanning_measure(np.random.default_rng(1), 20, 64)
        tiny = DiscreteMeasure(2, mu.directions, 1e-10 * mu.masses)
        rep, small = (solve_constrained(VariationalProblem(m, 1.5)) for m in (mu, tiny))
        assert small.iterations == rep.iterations
        np.testing.assert_allclose(small.body.support, rep.body.support, rtol=1e-12)
        assert (small.multiplier / tiny.total_mass
                == pytest.approx(rep.multiplier / mu.total_mass, rel=1e-12))

    @pytest.mark.parametrize("p,target,radius", [
        (2200.0, 0.5, "1.17741"), (3000.0, 0.5, "1.17741"), (4500.0, 0.5, "1.17741"),
        (1e6, 0.5, "1.17741"), (2000.0, 0.2, "0.668047")])
    def test_exponent_out_of_double_range_refused(self, p, target, radius):
        # at target 1/2, s . s in recover_multiplier underflows from p ~ 2 150 and
        # h^p overflows from p ~ 4 346; these ran into a singular KKT matrix, a
        # RuntimeWarning and an infinite objective, or no facet with mass.  A
        # start ball inside the unit disc fails the other way round
        prob = VariationalProblem(square_surface_measure(), p, target_volume=target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=re.escape(f"p = {p:g}") + f".* start radius {radius},"):
                solve_constrained(prob)

    def test_impossible_tolerance_stalls(self):
        mu = ring_measure(8, 0.3)
        prob = VariationalProblem(mu, 1.0, stationarity_tol=1e-30)
        with pytest.raises(SolverStallError) as exc:
            solve_constrained(prob)
        assert len(exc.value.trace) > 0

    def test_rounding_floor_ends_the_halving_search(self, monkeypatch):
        # this spanning measure's solve ends at its rounding floor after 6
        # Newton steps; once a halved step no longer moves (h, lambda) the
        # search stops instead of evaluating the same edges down to 2^-30.
        # Every evaluation rebuilds the body by with_support; the halfplane
        # reduction runs once, on the start ball
        evaluations, reductions = [], []
        with_support = SupportPolygon.with_support
        reduce = discrete.wulff_shape_with_indices
        monkeypatch.setattr(SupportPolygon, "with_support",
                            lambda *args: evaluations.append(1) or with_support(*args))
        monkeypatch.setattr(discrete, "wulff_shape_with_indices",
                            lambda *args: reductions.append(1) or reduce(*args))
        mu = random_spanning_measure(np.random.default_rng(3), 20, 64)
        report = solve_constrained(VariationalProblem(mu, 1.5))
        assert report.iterations > 0
        assert abs(report.volume_residual) <= 1e-12
        assert len(evaluations) <= 25
        assert len(reductions) == 1

    # (iterations, objective trace) of three solves, pinned bit for bit; the
    # p = 0.7 solve runs Newton at p = 1 first, then at p = 0.7.  The
    # 512-gon's rescaled start ball is already its solution.
    GOLDEN = {
        "512-gon, p = 1": (lambda: uniform_mgon_measure(512, 0.3), 1.0, 0, (
            0.3532207903017897,)),
        "rng 117, p = 1.5": (lambda: random_spanning_measure(np.random.default_rng(117), 20, 64),
                             1.5, 5, (
            4.948959509011804, 4.819934813392241, 4.807109006200642, 4.8300854301727085,
            4.83020408039237, 4.830204090481145)),
        "rng 117, p = 0.7": (lambda: random_spanning_measure(np.random.default_rng(117), 20, 64),
                             0.7, 10, (
            4.370470299970356, 4.3054101583438715, 4.300003202612946, 4.311119114886566,
            4.311192230972861, 4.311192244769222, 4.311192244769225, 4.309461116259631,
            4.310410022846962, 4.310410160474048, 4.3104101604740634)),
    }

    @pytest.mark.parametrize("case", GOLDEN)
    def test_golden_solves(self, case):
        # bit-identical to the pinned solves, and the returned body is a
        # fixed point of the canonical reduction: every edge kept, same bits
        measure, p, iterations, trace = self.GOLDEN[case]
        mu = measure()
        report = solve_constrained(VariationalProblem(mu, p))
        assert report.iterations == iterations
        assert repr(report.objective_trace) == repr(trace)
        body = report.body
        reduced, kept = wulff_shape_with_indices(body.normals, body.support)
        assert np.array_equal(kept, np.arange(mu.num_atoms))
        assert reduced.support.tobytes() == body.support.tobytes()

    def test_starts_on_the_volume_constraint(self):
        # grid measure of the cos density at the volume of its smooth
        # solution (about 0.857): from the ball of volume 1/2 this took 95
        # Newton steps, from the ball of the target volume 13, and from that
        # ball rescaled onto the constraint it takes 6
        N = 256
        f = cos_density(N, 0.045, 0.2, 2)
        target = field_gauss_volume(solve_homotopy(f, 1.0).body)
        theta = 2.0 * np.pi * np.arange(N) / N
        mu = DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]),
                             f * 2.0 * np.pi / N)
        report = solve_constrained(VariationalProblem(mu, 1.0, target_volume=target))
        assert report.iterations <= 20
        assert abs(report.volume_residual) <= 1e-9

    def test_minimality_against_brute_force(self):
        # 3-atom problems: solver objective must not exceed the best of
        # 10^4 random feasible triangles projected to gamma = 1/2
        rng = np.random.default_rng(2024)
        theta = np.array([0.2, 2.3, 4.4])
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        mu = DiscreteMeasure(2, normals, np.array([0.11, 0.07, 0.09]))
        p = 1.5
        rep = solve_constrained(VariationalProblem(mu, p))
        phi_star = float(mu.masses @ support_profile(rep.body, normals)**p)

        # vectorized oracle: for each candidate h, the triangle's sector
        # geometry scales radially, so gamma(s h) needs one sector setup
        n_cand = 10_000
        H = rng.uniform(0.2, 3.0, (n_cand, 3))
        nxt = np.roll(np.arange(3), -1)
        det = (normals[:, 0] * normals[nxt, 1] - normals[:, 1] * normals[nxt, 0])
        # vertex between edge j and j+1 for every candidate
        vx = (H * normals[nxt, 1] - H[:, nxt] * normals[:, 1]) / det
        vy = (H[:, nxt] * normals[:, 0] - H * normals[nxt, 0]) / det
        beta = np.arctan2(vy, vx)
        phi_ang = np.arctan2(normals[:, 1], normals[:, 0])
        hi = np.mod(beta - phi_ang[nxt] + np.pi, 2 * np.pi) - np.pi
        lo = np.mod(np.roll(beta, 1, axis=1) - phi_ang[nxt][np.roll(np.arange(3), 1)]
                    + np.pi, 2 * np.pi) - np.pi
        # sector of edge j+1 spans [beta_j, beta_{j+1}] about its normal
        glx, glw = np.polynomial.legendre.leggauss(32)
        lo_e = np.mod(np.roll(beta, 1, axis=1) - phi_ang + np.pi, 2 * np.pi) - np.pi
        hi_e = np.mod(beta - phi_ang + np.pi, 2 * np.pi) - np.pi
        halfw = 0.5 * (hi_e - lo_e)
        mid = 0.5 * (hi_e + lo_e)
        delta = mid[..., None] + halfw[..., None] * glx
        rho1 = H[..., None] / np.cos(delta)  # radial at s=1

        vol_target = 0.5
        s_lo = np.full(n_cand, 1e-3)
        s_hi = np.full(n_cand, 50.0)
        for _ in range(80):
            s_mid = 0.5 * (s_lo + s_hi)
            integrand = -np.expm1(-0.5 * (s_mid[:, None, None] * rho1) ** 2)
            vol = np.sum(halfw * (integrand @ glw), axis=1) / (2 * np.pi)
            too_small = vol < vol_target
            s_lo = np.where(too_small, s_mid, s_lo)
            s_hi = np.where(too_small, s_hi, s_mid)
        s = 0.5 * (s_lo + s_hi)
        phi_cand = ((s[:, None] * H) ** p) @ mu.masses
        assert phi_star <= phi_cand.min() + 1e-9
