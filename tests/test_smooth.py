"""Homotopy continuation solver: constant starts, Newton steps, full solves."""

import math

import numpy as np
import pytest

from gaussmink import smooth
from gaussmink.discrete import VariationalProblem, solve_constrained
from gaussmink.errors import MassBoundError, RoundingFloorError, SolverStallError
from gaussmink.families import cos_density, uniform_mgon_measure
from gaussmink.gaussian import constant_field_density, gauss_constants, smooth_lp_density
from gaussmink.geometry import (TWO_PI, SupportField, body_hausdorff_distance,
                                field_to_polygon)
from gaussmink.report import certificate_flags
from gaussmink.smooth import (
    HomotopyStep,
    _jacobian_bands,
    _rounding_floor,
    linearized_guard,
    newton_step,
    residual,
    solve_cyclic_tridiagonal,
    solve_homotopy,
)

# half-volume radius sqrt(2 ln 2), the floor of the constant-start window at p = 1
R_HALF_P1 = gauss_constants(2, 1.0).r_half
# closed-form root for p = 2, c0 = 1/(8 pi): sqrt(2 ln 4)
ROOT_P2_QUARTER = 1.6651092223153954


def grid(n):
    return 2.0 * np.pi * np.arange(n) / n


def harmonics_field(n=64):
    theta = grid(n)
    return SupportField(1.8 + 0.1 * np.cos(2 * theta) + 0.05 * np.sin(3 * theta))


# constant densities c0 with the closed-form radius and Gaussian volume of
# their solution on the volume > 1/2 branch: (c0, p, radius, volume)
CONSTANT_CASES = {
    "p1": (constant_field_density(2.0, 1.0), 1.0, 2.0, -math.expm1(-2.0)),
    "p2": (1.0 / (8.0 * math.pi), 2.0, ROOT_P2_QUARTER, 0.75),
    "p0.5": (constant_field_density(2.2, 0.5), 0.5, 2.2, -math.expm1(-2.42)),
}


def window_midpoint(p):
    """Midpoint of the window of constant starts: a start away from the answer."""
    r_half = gauss_constants(2, p).r_half
    floor = max(r_half, math.sqrt(2.0 - p)) if p < 2.0 else r_half
    return floor + 0.5 * (smooth.R_STAR_CEILING - floor)


class TestConstantSolves:
    @pytest.mark.parametrize("n", [64, 256, 4096])
    @pytest.mark.parametrize("case", CONSTANT_CASES)
    def test_solution_is_the_closed_form_ball(self, case, n):
        # the solve starts from the window midpoint, not from this radius
        c0, p, radius, volume = CONSTANT_CASES[case]
        report = solve_homotopy(np.full(n, c0), p, r_star=window_midpoint(p))
        h = report.body.h
        assert np.ptp(h) == 0.0
        assert h[0] == pytest.approx(radius, rel=1e-10)
        assert report.volume_residual + 0.5 == pytest.approx(volume, rel=1e-9)

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_constant_density_gives_a_flat_field(self, p, n):
        # exactly flat: the default start is the ball that carries the
        # density's mass, whose residual is at rounding level, so at most the
        # final trial step moves h; a density lighter than the ceiling ball's
        # starts from that ball instead
        level = gauss_constants(2, p).mass_bound / TWO_PI
        for fraction in np.linspace(0.1, 0.95, 12):
            h = solve_homotopy(np.full(n, fraction * level), p).body.h
            assert np.ptp(h) == 0.0


class TestLinearizedGuard:
    def test_collision_cases(self):
        # singular exactly when (2 - p) - r0^2 = k^2
        assert linearized_guard(1.0, 1.0, 512) is False  # k = 0, the fold
        assert linearized_guard(math.sqrt(0.5), 0.5, 512) is False  # k = 1
        assert linearized_guard(math.sqrt(0.8), 0.2, 512) is False  # k = 1

    def test_clear_cases(self):
        assert linearized_guard(1.5, 1.0, 512) is True
        assert linearized_guard(2.5, 2.0, 512) is True
        assert linearized_guard(1.17741, 1.0, 512) is True
        # starts inside the window: every eigenvalue (2 - p) - r0^2 - k^2 < 0
        assert linearized_guard(math.sqrt(2.0), 1.0, 512) is True
        assert linearized_guard(3.0, 2.0, 512) is True

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            linearized_guard(0.0, 1.0, 512)


class TestResidual:
    def test_constant_solution_zero(self):
        c0 = constant_field_density(2.0, 1.0)
        fld = SupportField(np.full(128, 2.0))
        assert np.max(np.abs(residual(fld, np.full(128, c0), 1.0))) <= 1e-14

    def test_constant_field_cos_target(self):
        # density of a constant field is flat, so the defect is minus the ripple
        c0 = constant_field_density(2.0, 1.0)
        f = cos_density(128, c0, 0.2, 2)
        fld = SupportField(np.full(128, 2.0))
        expected = -0.2 * c0 * np.cos(2 * grid(128))
        np.testing.assert_allclose(residual(fld, f, 1.0), expected, atol=1e-16)

    def test_own_density_zero(self):
        fld = harmonics_field()
        for p in (1.0, 1.5, 2.0):
            assert np.max(np.abs(residual(fld, smooth_lp_density(fld, p), p))) == 0.0

    def test_grid_mismatch(self):
        fld = harmonics_field()
        with pytest.raises(ValueError):
            residual(fld, np.ones(65), 1.0)


class TestJacobian:
    def test_matches_finite_differences(self):
        fld = harmonics_field()
        p = 1.5
        sub, diag, sup = _jacobian_bands(fld, p)
        eps = 1e-6
        n = fld.resolution
        for j in range(0, n, 7):
            hp = fld.h.copy()
            hm = fld.h.copy()
            hp[j] += eps
            hm[j] -= eps
            col = (smooth_lp_density(SupportField(hp), p)
                   - smooth_lp_density(SupportField(hm), p)) / (2.0 * eps)
            dense = np.zeros(n)
            dense[j] = diag[j]
            dense[(j + 1) % n] = sub[(j + 1) % n]
            dense[(j - 1) % n] = sup[(j - 1) % n]
            assert np.max(np.abs(col - dense)) <= 1e-6

    def test_cyclic_solve_matches_dense(self):
        fld = harmonics_field()
        sub, diag, sup = _jacobian_bands(fld, 1.0)
        n = fld.resolution
        J = np.zeros((n, n))
        for k in range(n):
            J[k, k] = diag[k]
            J[k, (k + 1) % n] = sup[k]
            J[k, (k - 1) % n] = sub[k]
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(n)
        x = solve_cyclic_tridiagonal(sub, diag, sup, rhs)
        np.testing.assert_allclose(x, np.linalg.solve(J, rhs), atol=1e-12)
        # an (n, k) right-hand side is solved column by column in one call
        stacked = np.column_stack([rhs, rng.standard_normal(n), np.ones(n)])
        xs = solve_cyclic_tridiagonal(sub, diag, sup, stacked)
        assert xs.shape == (n, 3)
        np.testing.assert_allclose(xs, np.linalg.solve(J, stacked), atol=1e-12)
        assert np.array_equal(xs[:, 0], x)

    @pytest.mark.parametrize("bands", [
        (np.ones(64), np.full(64, -2.0), np.ones(64)),  # periodic D^2: constants
        (np.zeros(64), np.zeros(64), np.zeros(64)),      # the zero matrix
        (np.ones(64), np.r_[np.nan, np.full(63, -3.0)], np.ones(64)),
    ], ids=["singular", "zero", "nan"])
    def test_singular_or_nan_system_raises(self, bands):
        with pytest.raises(SolverStallError, match="cyclic-tridiagonal system"):
            solve_cyclic_tridiagonal(*bands, np.arange(64.0))

    def test_constant_field_spectrum(self):
        # at h = r0 the scaled Jacobian is circulant with symbol
        # (2 - p) - r0^2 - k^2 (discrete Laplacian modes)
        r0, p, n = 1.5, 1.0, 64
        fld = SupportField(np.full(n, r0))
        sub, diag, sup = _jacobian_bands(fld, p)
        J = np.zeros((n, n))
        for k in range(n):
            J[k, k] = diag[k]
            J[k, (k + 1) % n] = sup[k]
            J[k, (k - 1) % n] = sub[k]
        prefactor = r0 ** (1.0 - p) * math.exp(-0.5 * r0 * r0) / (2.0 * math.pi)
        eig = np.sort(np.linalg.eigvalsh(J / prefactor))
        step = fld.step
        k2 = (2.0 - 2.0 * np.cos(np.arange(n // 2 + 1) * step)) / step**2
        oracle = np.sort((2.0 - p) - r0**2
                         - np.concatenate([k2, k2[1:n // 2]]))
        np.testing.assert_allclose(eig, oracle, atol=1e-12)
        scan = np.min(np.abs((2.0 - p) - r0**2 - np.arange(n) ** 2))
        assert np.min(np.abs(eig)) == pytest.approx(scan, abs=1e-10)


class TestNewtonStep:
    def test_zero_step_at_solution(self):
        fld = harmonics_field()
        f = smooth_lp_density(fld, 1.0)
        defect = residual(fld, f, 1.0)
        out, out_defect = newton_step(fld, f, 1.0, defect)
        np.testing.assert_array_equal(out.h, fld.h)
        assert out_defect is defect

    def test_weak_quadratic_convergence(self):
        f = cos_density(64, 0.045, 0.2, 2)
        fld = SupportField(np.full(64, 2.0))
        defect = residual(fld, f, 1.0)
        norms = [float(np.max(np.abs(defect)))]
        for _ in range(8):
            if norms[-1] < 1e-14:
                break
            fld, defect = newton_step(fld, f, 1.0, defect)
            # the returned residual is the new field's
            np.testing.assert_array_equal(defect, residual(fld, f, 1.0))
            norms.append(float(np.max(np.abs(defect))))
        assert norms[-1] < 1e-13
        small = [r for r in norms if r < 1e-3]
        assert len(small) >= 2
        for a, b in zip(small[:-1], small[1:]):
            assert b <= a**1.5

    def test_singular_linearization_raises(self):
        # h = 1, p = 1 puts the k = 0 mode exactly in the kernel
        fld = SupportField(np.ones(64))
        f = cos_density(64, constant_field_density(1.0, 1.0), 0.1, 2)
        with pytest.raises(SolverStallError):
            newton_step(fld, f, 1.0, residual(fld, f, 1.0))


class TestOptionsAndTrace:
    def test_options_validation(self):
        f = np.full(64, 0.045)
        with pytest.raises(ValueError, match="newton_tol must be positive"):
            solve_homotopy(f, 1.0, newton_tol=0.0)
        with pytest.raises(ValueError, match="outside the window"):
            solve_homotopy(f, 1.0, r_star=-1.0)

    def test_nan_tolerance_refused(self):
        # every comparison with NaN is false, so `newton_tol <= 0` let it through
        with pytest.raises(ValueError, match="newton_tol must be positive"):
            solve_homotopy(np.full(64, 0.045), 1.0, newton_tol=math.nan)


class TestSolveHomotopy:
    def test_constant_target_needs_no_newton_step(self):
        level = constant_field_density(2.0, 1.0)
        rep = solve_homotopy(np.full(512, level), 1.0, r_star=2.0)
        assert [s.t for s in rep.homotopy_trace] == [0.0, 1.0]
        assert rep.iterations == 0
        np.testing.assert_allclose(rep.body.h, 2.0, atol=1e-14)

    def test_start_takes_no_newton_step(self):
        # from the window midpoint at p = 0.5 the start's residual is
        # rounding (about 7e-18), above this newton_tol, yet t = 0 is
        # recorded without a Newton step and the first stall is in the
        # direct solve at t = 1
        with pytest.raises(RoundingFloorError) as info:
            solve_homotopy(cos_density(256, 0.02, 0.2, 2), 0.5, newton_tol=1e-300,
                           r_star=window_midpoint(0.5))
        [start] = info.value.trace
        assert (start.t, start.newton_iters) == (0.0, 0)
        assert start.residual > 1e-300

    def test_constant_target_from_default_start(self):
        level = constant_field_density(2.0, 1.0)
        rep = solve_homotopy(np.full(512, level), 1.0)
        np.testing.assert_allclose(rep.body.h, 2.0, atol=1e-8)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_each_iterate_is_evaluated_once(self, p, monkeypatch):
        # every residual call is on a new (field, target) pair: the damping
        # loop's residual of the accepted step is reused for the tolerance
        # check, the next Newton step and the trace record.  Rejected trials
        # add one call each: at p = 2 the final trial past the tolerance is
        # not kept
        seen = []

        def recording(field, f, q):
            assert not any(a is field and b is f for a, b in seen)
            seen.append((field, f))
            return residual(field, f, q)

        monkeypatch.setattr(smooth, "residual", recording)
        rep = solve_homotopy(cos_density(256, 0.045, 0.2, 2), p)
        assert rep.stationarity_residual <= 1e-9
        assert [s.t for s in rep.homotopy_trace] == [0.0, 1.0]
        rejected = {1.0: 0, 2.0: 1}[p]
        assert len(seen) == 1 + (len(rep.homotopy_trace) - 1) + rep.iterations + rejected

    def test_newton_stops_at_its_iteration_limit(self, monkeypatch):
        # a Newton solve that misses the tolerance makes exactly
        # NEWTON_MAX_ITERS steps: none is taken whose result goes unchecked.
        # The direct solve at t = 1 fails, the ladder retries from the
        # constant start, and its failure on the rung t = 0.25 ends the solve
        steps = []
        step = smooth.newton_step

        def counting_step(*args):
            steps.append(args)
            return step(*args)

        monkeypatch.setattr(smooth, "NEWTON_MAX_ITERS", 2)
        monkeypatch.setattr(smooth, "newton_step", counting_step)
        with pytest.raises(SolverStallError) as info:
            solve_homotopy(cos_density(256, 0.045, 0.2, 2), 1.0)
        assert type(info.value) is SolverStallError  # not the rounding floor
        assert len(steps) == 2 + 2
        assert "t = 0.25" in str(info.value)
        assert [s.t for s in info.value.trace] == [0.0]

    @pytest.mark.parametrize("p,level", [(1.0, 0.045), (2.0, 0.030)])
    def test_cos_perturbation(self, p, level):
        n = 512
        f = cos_density(n, level, 0.2, 2)
        rep = solve_homotopy(f, p)
        assert rep.stationarity_residual <= 1e-9
        dens = smooth_lp_density(rep.body, p)
        assert np.max(np.abs(dens - f)) <= 4.0 / n**2
        assert np.max(np.abs(rep.body.h - np.roll(rep.body.h, n // 2))) <= 1e-10
        assert rep.volume_residual > 0.0  # margin above half volume
        assert rep.flags == ()
        assert [s.t for s in rep.homotopy_trace] == [0.0, 1.0]

    @pytest.mark.parametrize("p,level", [(1.0, 0.045), (2.0, 0.030)])
    def test_grid_refinement(self, p, level):
        n = 256
        coarse = solve_homotopy(cos_density(n, level, 0.2, 2), p).body.h
        fine = solve_homotopy(cos_density(2 * n, level, 0.2, 2), p).body.h
        assert np.max(np.abs(coarse - fine[::2])) <= 8.0 / n**2

    def test_nan_exponent_is_invalid_input(self):
        # refused as input, not reported as a stall of the constant-start search
        with pytest.raises(ValueError, match="p must be positive"):
            solve_homotopy(np.full(64, 0.045), math.nan)

    @pytest.mark.parametrize("call", [
        lambda: VariationalProblem(uniform_mgon_measure(8, 0.3), math.inf),
        lambda: solve_homotopy(np.full(64, 0.045), math.inf),
    ], ids=["VariationalProblem", "solve_homotopy"])
    def test_infinite_exponent_refused(self, call):
        # refused on entry, not by GaussConstants as "constants must be positive"
        with pytest.raises(ValueError, match="p must be positive and finite, got p = inf"):
            call()

    def test_mass_bound_refused_before_stepping(self):
        # level chosen so the total 2 pi * 0.08 = 0.503 exceeds the p = 1
        # threshold 0.3641; the off-window override must never be consulted
        with pytest.raises(MassBoundError):
            solve_homotopy(np.full(512, 0.08), 1.0, r_star=1.0)

    @pytest.mark.parametrize("r_star", [1.0, R_HALF_P1 + 1e-6, 3.0 + 1e-12, math.nan])
    def test_off_window_override_refused(self, r_star):
        # the window at p = 1 is (sqrt(2 ln 2) + 1e-6, 3]; r_star = 1 is the fold
        # r0^2 = 2 - p
        f = cos_density(512, 0.045, 0.1, 2)
        with pytest.raises(ValueError, match=r"outside the window .* for p = 1$"):
            solve_homotopy(f, 1.0, r_star=r_star)

    def test_window_ends_used_as_given(self):
        f = cos_density(256, 0.045, 0.1, 2)
        for r_star in (R_HALF_P1 + 2e-6, 3.0):
            rep = solve_homotopy(f, 1.0, r_star=r_star)
            assert rep.homotopy_trace[0].gauss_volume > 0.5
            assert rep.flags == ()

    def test_fold_neighbourhood_refused(self):
        # for p < 2 - 2 ln 2 the window starts at the fold sqrt(2 - p); the
        # first rung stalls from starts up to about 2e-7 above it.  From
        # 2e-6 above it the direct solve at t = 1 meets a singular system,
        # and the ladder solves
        p, fold = 0.5, math.sqrt(1.5)
        f = cos_density(256, 0.6 * gauss_constants(2, p).mass_bound / TWO_PI, 0.2, 2)
        with pytest.raises(ValueError, match="outside the window"):
            solve_homotopy(f, p, r_star=fold + 2e-9)
        rep = solve_homotopy(f, p, r_star=fold + 2e-6)
        assert rep.stationarity_residual <= 1e-9
        assert [s.t for s in rep.homotopy_trace] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_fallback_counts_the_failed_attempts_steps(self, monkeypatch):
        # the fold case above: the direct solve accepts one Newton step and
        # then meets a singular system; the ladder's steps add to that one
        calls = {"accepted": 0, "raised": 0}
        kept_final = []
        newton_step, final_step = smooth.newton_step, smooth._final_step

        def counted_newton_step(*args):
            try:
                found = newton_step(*args)
            except SolverStallError:
                calls["raised"] += 1
                raise
            calls["accepted"] += 1
            return found

        def counted_final_step(field, *args):
            found = final_step(field, *args)
            kept_final.append(found[0] is not field)
            return found

        monkeypatch.setattr(smooth, "newton_step", counted_newton_step)
        monkeypatch.setattr(smooth, "_final_step", counted_final_step)
        p = 0.5
        f = cos_density(256, 0.6 * gauss_constants(2, p).mass_bound / TWO_PI, 0.2, 2)
        rep = solve_homotopy(f, p, r_star=math.sqrt(1.5) + 2e-6)
        assert calls == {"accepted": 18, "raised": 1}
        assert rep.iterations == calls["accepted"] + sum(kept_final) == 19
        assert [s.t for s in rep.homotopy_trace] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert sum(s.newton_iters for s in rep.homotopy_trace) == 18

    def test_distinct_starts_agree(self):
        f = cos_density(512, 0.045, 0.1, 2)
        rep1 = solve_homotopy(f, 1.0, r_star=1.5)
        rep2 = solve_homotopy(f, 1.0, r_star=2.6)
        d = body_hausdorff_distance(field_to_polygon(rep1.body),
                                    field_to_polygon(rep2.body))
        assert d <= 1e-6

    def test_subunit_exponent_flagged_uncertified(self):
        rep = solve_homotopy(cos_density(256, 0.045, 0.1, 2), 0.7)
        assert "uncertified" in rep.flags
        assert rep.stationarity_residual <= 1e-9

    def test_odd_density_flagged_without_certificate(self):
        theta = grid(256)
        f = 0.045 * (1.0 + 0.2 * np.cos(theta))
        rep = solve_homotopy(f, 1.0)
        assert "no-uniqueness-certificate" in rep.flags
        assert rep.stationarity_residual <= 1e-9

    def test_both_solvers_state_the_certificate_regime_alike(self):
        # one rule, certificate_flags, for the smooth and the discrete solver;
        # it compares the total mass with the bound itself
        for p in (1.0, 2.0):
            bound = gauss_constants(2, p).mass_bound
            assert certificate_flags(p, True, math.nextafter(bound, 0.0)) == []
            assert certificate_flags(p, True, bound) == ["no-uniqueness-certificate"]
            assert certificate_flags(p, False, 0.1) == ["no-uniqueness-certificate"]
        assert certificate_flags(0.7, True, 0.1) == ["uncertified"]
        assert certificate_flags(0.7, False, 0.1) == ["uncertified",
                                                      "no-uniqueness-certificate"]
        theta = grid(256)
        odd = 0.045 * (1.0 + 0.2 * np.cos(theta))
        pentagon = uniform_mgon_measure(5, 0.3)  # five atoms: not even
        for p in (0.7, 1.5):
            expected = tuple(certificate_flags(p, False, 0.3))
            assert solve_homotopy(odd, p).flags == expected
            assert solve_constrained(VariationalProblem(pentagon, p)).flags == expected

    def test_input_validation(self):
        for n in (50, 63, 32):  # grid below the floor, or odd
            with pytest.raises(ValueError, match="even integer >= 64"):
                solve_homotopy(np.full(n, 0.04), 1.0)
        with pytest.raises(ValueError):
            solve_homotopy(np.full((64, 2), 0.04), 1.0)
        with pytest.raises(ValueError):
            solve_homotopy(-np.ones(128), 1.0)
        with pytest.raises(ValueError):
            solve_homotopy(np.full(128, np.nan), 1.0)
        with pytest.raises(ValueError):
            solve_homotopy(np.full(128, 0.04), 0.0)

    def test_ellipse_field_to_polygon_support(self):
        theta = grid(256)
        h = np.sqrt(np.cos(theta) ** 2 + 4.0 * np.sin(theta) ** 2)
        fld = SupportField(h)
        poly = field_to_polygon(fld)
        assert poly.num_edges == 256
        np.testing.assert_allclose(np.sort(poly.support), np.sort(h), atol=1e-12)


class TestRoundingFloor:
    """At N = 8192 the default newton_tol = 1e-11 lies below the residual's
    rounding floor: the solve stops at the first stall and names the floor."""

    N = 8192

    @pytest.fixture
    def failed_steps(self, monkeypatch):
        """(field, target) of every newton_step call that raises."""
        failures = []

        def recording(field, f, p, defect):
            try:
                return newton_step(field, f, p, defect)
            except SolverStallError:
                failures.append((field, f))
                raise

        monkeypatch.setattr(smooth, "newton_step", recording)
        return failures

    def test_floor_estimate_scales_like_n_squared(self):
        r, p = 1.8, 1.5
        floors = [_rounding_floor(SupportField(np.full(n, r)), p)
                  for n in (1024, 2048)]
        assert floors[1] == pytest.approx(4.0 * floors[0], rel=1e-12)
        step = 2.0 * np.pi / 1024
        expected = (np.finfo(float).eps * r ** (2.0 - p) * math.exp(-0.5 * r * r)
                    / (2.0 * np.pi) / step**2)
        assert floors[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_below_floor_raises_at_first_stall(self, p, failed_steps):
        f = cos_density(self.N, 0.045, 0.2, 2)
        with pytest.raises(RoundingFloorError) as info:
            solve_homotopy(f, p)
        exc = info.value
        message = str(exc)
        assert f"N = {self.N}, p = {p:g}" in message
        assert "floor estimate" in message and "newton_tol = 1e-11" in message
        assert "--tol >= " in message
        assert "t_step_min" not in message
        assert 1e-11 < exc.residual <= smooth.FLOOR_FACTOR * exc.floor
        assert exc.trace and all(isinstance(s, HomotopyStep) for s in exc.trace)
        assert len(failed_steps) <= 1  # 12, 12 and 18 with t-step halving
        # the tolerance the message suggests is reachable
        tol = float(message.rsplit("--tol >= ", 1)[1])
        rep = solve_homotopy(f, p, newton_tol=tol)
        assert rep.stationarity_residual <= tol

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_tolerance_above_floor_solves(self, p, failed_steps):
        f = cos_density(self.N, 0.045, 0.2, 2)
        rep = solve_homotopy(f, p, newton_tol=1e-10)
        assert rep.stationarity_residual <= 1e-10
        assert not failed_steps

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_halving_stops_once_the_candidate_is_h(self, p, failed_steps, monkeypatch):
        # at the floor the Newton correction is about an ulp of h: a few
        # halvings round it away, and the step stops there instead of
        # evaluating all 20 damping levels
        with pytest.raises(RoundingFloorError):
            solve_homotopy(cos_density(self.N, 0.045, 0.2, 2), p)
        field, f = failed_steps[0]
        defect = residual(field, f, p)
        evaluated = []
        monkeypatch.setattr(smooth, "residual",
                            lambda fld, g, q: evaluated.append(fld) or residual(fld, g, q))
        with pytest.raises(RoundingFloorError):
            newton_step(field, f, p, defect)
        assert len(evaluated) < smooth.MAX_HALVINGS  # one per damping level
