"""Polygon construction, duality, combinations, measures, direction grids."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmink.errors import ConvexityError, UnboundedBodyError
from gaussmink.families import uniform_mgon_measure
from gaussmink.geometry import (
    TWO_PI,
    DiscreteMeasure,
    SupportField,
    box_polygon,
    body_hausdorff_distance,
    check_hemisphere_condition,
    combine_bodies,
    disc_polygon,
    field_to_polygon,
    hausdorff_distance,
    hemisphere_margin,
    lp_combination,
    make_direction_grid,
    polar_body,
    radial_eval,
    scale_body,
    support_eval,
    support_profile,
    wulff_shape,
)
from gaussmink.geometry import (_ANGLE_DEDUP_TOL, _COLLINEAR_TOL, _angles_of, _as_unit_rows,
                                _intersect_lines, _reduce_halfplanes)


def random_body(seed, max_normals=40):
    """Random polygon through wulff_shape; retries until bounded."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        m = int(rng.integers(4, max_normals))
        raw = rng.standard_normal((m, 2))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        h = rng.uniform(0.2, 3.0, m)
        try:
            return wulff_shape(raw, h)
        except ValueError:
            continue
    raise AssertionError("could not build a random body")


def graham_reduce(normals, support):
    """Reference Wulff reduction: a Graham scan over the polar points.

    The scan runs from the farthest polar point (always on the hull) and pops
    a point whenever it fails the left-turn test against its stack
    predecessor and the next point.  Input validation is left to the library.
    """
    normals = _as_unit_rows(normals)
    support = np.asarray(support, dtype=float)
    ang = _angles_of(normals)
    order = np.lexsort((support, ang))
    keep_first = np.ones(len(order), dtype=bool)
    keep_first[1:] = np.diff(ang[order]) > _ANGLE_DEDUP_TOL
    idx = order[keep_first]
    q = normals[idx] / support[idx][:, None]
    m = len(q)
    start = int(np.argmax(np.einsum("ij,ij->i", q, q)))
    rot = (np.arange(m) + start) % m
    qr = q[rot]

    def left_turn(a, b, c) -> bool:
        u, v = b - a, c - b
        cross = u[0] * v[1] - u[1] * v[0]
        return cross > _COLLINEAR_TOL * (np.hypot(*u) * np.hypot(*v))

    stack = [0]
    for j in range(1, m):
        while len(stack) >= 2 and not left_turn(qr[stack[-2]], qr[stack[-1]], qr[j]):
            stack.pop()
        stack.append(j)
    while len(stack) >= 3 and not left_turn(qr[stack[-2]], qr[stack[-1]], qr[0]):
        stack.pop()

    kept = idx[np.sort(rot[np.array(stack)])]
    nu_k, h_k = normals[kept], support[kept]
    return kept, _intersect_lines(nu_k, h_k, np.roll(nu_k, -1, axis=0), np.roll(h_k, -1))


def reduction_input(seed, family):
    """Halfplanes that stress the reduction's tolerance decisions.

    random: generic normals and supports, many redundant; hexagon: support of
    a hexagon plus 1e-9 noise, so the polar points lie within rounding of six
    segments; collinear: sorted normals with h = 1 + U(0, 1e-11).
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 1000))
    theta = rng.uniform(0.0, TWO_PI, m)
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    if family == "random":
        return normals, rng.uniform(0.2, 3.0, m)
    if family == "hexagon":
        corner = np.pi / 3.0 * np.arange(6) + rng.uniform(0.0, 1.0)
        hexagon = rng.uniform(0.5, 2.0) * np.column_stack([np.cos(corner), np.sin(corner)])
        return normals, np.max(normals @ hexagon.T, axis=1) + rng.uniform(0.0, 1e-9, m)
    return normals[np.argsort(theta)], 1.0 + rng.uniform(0.0, 1e-11, m)


class TestWulffShape:
    def test_unit_square(self):
        sq = box_polygon(1.0)
        assert sq.num_edges == 4
        np.testing.assert_allclose(np.sort(np.abs(sq.vertices).ravel()), np.ones(8))
        np.testing.assert_allclose(sq.support, np.ones(4))

    def test_redundant_halfplane_removed(self):
        sq = box_polygon(1.0)
        extra_n = np.vstack([sq.normals, [[math.sqrt(0.5), math.sqrt(0.5)]]])
        extra_h = np.append(sq.support, 2.0)
        red = wulff_shape(extra_n, extra_h)
        assert red.num_edges == 4
        np.testing.assert_allclose(red.support, sq.support)

    def test_duplicate_normal_keeps_binding_constraint(self):
        sq = box_polygon(1.0)
        dup_n = np.vstack([sq.normals, [[1.0, 0.0]]])
        dup_h = np.append(sq.support, 0.5)
        body = wulff_shape(dup_n, dup_h)
        assert support_eval(body, [1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_hexagon_circumradius(self):
        theta = 2.0 * np.pi * np.arange(6) / 6
        hexa = wulff_shape(np.column_stack([np.cos(theta), np.sin(theta)]), np.ones(6))
        circum = np.linalg.norm(hexa.vertices, axis=1).max()
        assert circum == pytest.approx(1.154700538379251529, abs=1e-12)

    def test_halfplane_normals_unbounded(self):
        theta = np.array([0.0, 0.5, 1.0, 1.5])  # all within a halfplane
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        with pytest.raises(UnboundedBodyError):
            wulff_shape(normals, np.ones(4))

    def test_nonpositive_support_rejected(self):
        theta = 2.0 * np.pi * np.arange(4) / 4
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        with pytest.raises(ValueError):
            wulff_shape(normals, np.array([1.0, 1.0, -0.1, 1.0]))

    def test_too_few_normals_rejected(self):
        with pytest.raises(ValueError):
            wulff_shape(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.ones(2))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "hexagon", "collinear"]))
    @settings(max_examples=300, deadline=None)
    def test_reduction_matches_graham_scan(self, seed, family):
        normals, support = reduction_input(seed, family)
        try:
            want_kept, want_vertices = graham_reduce(normals, support)
        except ValueError:
            return  # too few distinct normals; the library rejects these too
        try:
            kept, _, _, vertices = _reduce_halfplanes(normals, support)
        except UnboundedBodyError:
            return  # the reference does not test boundedness
        np.testing.assert_array_equal(kept, want_kept)
        np.testing.assert_array_equal(vertices, want_vertices)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_idempotence(self, seed):
        K = random_body(seed)
        K2 = wulff_shape(K.normals, K.support)
        assert K2.num_edges == K.num_edges
        assert np.max(np.abs(K2.vertices - K.vertices)) <= 1e-10

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_support_dominated_by_input(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 30))
        raw = rng.standard_normal((m, 2))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        h = rng.uniform(0.2, 3.0, m)
        try:
            K = wulff_shape(raw, h)
        except ValueError:
            return
        assert np.all(support_profile(K, raw) <= h + 1e-9)


class TestSupportRadial:
    def test_square_support(self):
        sq = box_polygon(1.0)
        assert support_eval(sq, [1.0, 0.0]) == pytest.approx(1.0)
        diag = [math.sqrt(0.5), math.sqrt(0.5)]
        assert support_eval(sq, diag) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_square_radial(self):
        sq = box_polygon(1.0)
        assert radial_eval(sq, [1.0, 0.0]) == pytest.approx(1.0)
        diag = [math.sqrt(0.5), math.sqrt(0.5)]
        assert radial_eval(sq, diag) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_non_unit_direction_rejected(self):
        sq = box_polygon(1.0)
        with pytest.raises(ValueError):
            support_eval(sq, [1.0, 1.0])
        with pytest.raises(ValueError):
            radial_eval(sq, [0.5, 0.0])

    def test_disc_radial_close_to_radius(self):
        # circumscribed m-gon: rho in [r, r sec(pi/m)]
        r, m = 1.0, 512
        D = disc_polygon(r, m)
        ang = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
        rho = D.radial(ang)
        bound = r * (1.0 / math.cos(math.pi / m) - 1.0)
        assert np.all(rho >= r - 1e-12)
        assert np.max(rho - r) <= bound + 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_radial_support_consistency(self, seed):
        # rho(u) (u . nu_e) = h_e at the hit edge, for 1000 random u
        K = random_body(seed)
        rng = np.random.default_rng(seed + 1)
        ang = rng.uniform(0.0, 2.0 * np.pi, 1000)
        rho = K.radial(ang)
        e = K.edge_index(ang)
        u = np.column_stack([np.cos(ang), np.sin(ang)])
        lhs = rho * np.einsum("ij,ij->i", u, K.normals[e])
        assert np.max(np.abs(lhs - K.support[e])) <= 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_radial_points_on_boundary(self, seed):
        K = random_body(seed)
        rng = np.random.default_rng(seed + 2)
        ang = rng.uniform(0.0, 2.0 * np.pi, 500)
        pts = K.radial(ang)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        slack = pts @ K.normals.T - K.support[None, :]
        assert slack.max() <= 1e-9                  # never outside
        assert np.abs(slack.max(axis=1)).max() <= 1e-9  # some constraint tight


class TestPolarBody:
    def test_square_polar_is_cross_polytope(self):
        diamond = polar_body(box_polygon(1.0))
        want = {(0, 1), (0, -1), (1, 0), (-1, 0)}
        got = {tuple(np.round(v, 12)) for v in diamond.vertices}
        assert got == want

    def test_disc_polar_radius(self):
        r, m = 1.7, 256
        D = disc_polygon(r, m)
        P = polar_body(D)
        target = 1.0 / r
        tol = target * (1.0 / math.cos(math.pi / m) - 1.0) + 1e-12
        assert abs(support_eval(P, [1.0, 0.0]) - target) <= tol

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, seed):
        K = random_body(seed)
        KK = polar_body(polar_body(K))
        assert KK.num_edges == K.num_edges
        assert np.max(np.abs(KK.vertices - K.vertices)) <= 1e-10

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_radial_polar_support_identity(self, seed):
        # rho_K(u) h_{K*}(u) = 1
        K = random_body(seed)
        P = polar_body(K)
        rng = np.random.default_rng(seed + 3)
        ang = rng.uniform(0.0, 2.0 * np.pi, 200)
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        rho = K.radial(ang)
        hp = support_profile(P, dirs)
        assert np.max(np.abs(rho * hp - 1.0)) <= 1e-9


class TestLpCombination:
    def test_weight_zero_keeps_first(self):
        h = np.array([0.5, 1.0, 2.0])
        for p in (-1.0, 0.0, 0.5, 1.0, 3.0):
            np.testing.assert_allclose(lp_combination(h, 2.0 * h, 1.0, 0.0, p), h)

    def test_arithmetic_mean(self):
        out = lp_combination(np.array([1.0]), np.array([3.0]), 0.5, 0.5, 1.0)
        assert out[0] == pytest.approx(2.0)

    def test_power_mean_value(self):
        out = lp_combination(np.full(5, 1.0), np.full(5, 2.0), 0.5, 0.5, 2.0)
        np.testing.assert_allclose(out, 1.581138830084189666, atol=1e-12)

    def test_geometric_mean_at_p_zero(self):
        out = lp_combination(np.array([1.0]), np.array([4.0]), 0.5, 0.5, 0.0)
        assert out[0] == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            lp_combination(np.array([1.0, -1.0]), np.array([1.0, 1.0]), 0.5, 0.5, 1.0)

    @given(st.integers(0, 10**6), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_power_mean_monotone_in_exponent(self, seed, t):
        rng = np.random.default_rng(seed)
        hK = rng.uniform(0.2, 3.0, 32)
        hL = rng.uniform(0.2, 3.0, 32)
        ps = np.sort(rng.uniform(0.1, 4.0, 4))
        vals = [lp_combination(hK, hL, 1.0 - t, t, p) for p in ps]
        for lo, hi in zip(vals, vals[1:]):
            assert np.all(hi >= lo - 1e-12)

    @given(st.integers(0, 10**6), st.floats(0.05, 0.95))
    @settings(max_examples=20, deadline=None)
    def test_minkowski_inside_lp_combination(self, seed, t):
        # (1-t)K + tL sits inside the p-combination body for p >= 1
        K = random_body(seed, max_normals=12)
        L = random_body(seed + 7, max_normals=12)
        mink = combine_bodies(K, L, 1.0 - t, t, 1.0)
        for p in (1.5, 2.0, 3.0):
            Qp = combine_bodies(K, L, 1.0 - t, t, p)
            dirs = mink.normals
            assert np.all(
                support_profile(mink, dirs) <= support_profile(Qp, dirs) + 1e-9
            )

    def test_minkowski_combination_exact_on_squares(self):
        # aK + bL for axis boxes adds supports coordinatewise
        K = box_polygon(1.0, 2.0)
        L = box_polygon(0.5, 0.25)
        M = combine_bodies(K, L, 1.0, 1.0, 1.0)
        assert support_eval(M, [1.0, 0.0]) == pytest.approx(1.5, abs=1e-12)
        assert support_eval(M, [0.0, 1.0]) == pytest.approx(2.25, abs=1e-12)


class TestHausdorff:
    def test_identical_zero(self):
        h = np.array([1.0, 2.0, 3.0])
        assert hausdorff_distance(h, h) == 0.0

    def test_concentric_balls(self):
        h1 = np.full(64, 1.0)
        h2 = np.full(64, 2.0)
        assert hausdorff_distance(h1, h2) == pytest.approx(1.0)

    def test_square_vs_disc_on_facet_normals_only(self):
        sq = box_polygon(1.0)
        on_facets = support_profile(sq, sq.normals)
        assert hausdorff_distance(on_facets, np.ones(4)) == 0.0
        theta = 2.0 * np.pi * np.arange(256) / 256
        dense = np.column_stack([np.cos(theta), np.sin(theta)])
        gap = hausdorff_distance(support_profile(sq, dense), np.ones(256))
        assert gap == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hausdorff_distance(np.ones(3), np.ones(4))

    def test_body_distance_scale(self):
        # sup_v |h_K - s h_K| = (s-1) max_v h_K = (s-1) max vertex norm
        K = random_body(11)
        circum = np.linalg.norm(K.vertices, axis=1).max()
        assert body_hausdorff_distance(K, scale_body(K, 1.25)) == pytest.approx(
            0.25 * circum, rel=1e-4
        )


class TestHemisphereCondition:
    def test_symmetric_cross(self):
        mu = DiscreteMeasure(
            2,
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.full(4, 0.3),
        )
        # margin = 0.3 * min_e (|e1.e| + |e2.e|) = 0.3 at axis directions
        assert hemisphere_margin(mu) == pytest.approx(0.3, abs=1e-6)
        assert check_hemisphere_condition(mu, epsilon=0.1)

    def test_halfplane_concentration_fails(self):
        mu = DiscreteMeasure(
            2,
            np.array([[1.0, 0.0], [0.0, 1.0], [math.sqrt(0.5), math.sqrt(0.5)]]),
            np.ones(3),
        )
        assert hemisphere_margin(mu) <= 1e-9
        assert not check_hemisphere_condition(mu, epsilon=1e-6)

    def test_equilateral_margin(self):
        # min_e sum (e.v_i)_+ = sqrt(3)/2, attained at directions
        # perpendicular to an atom (the planar margin is exact there)
        theta = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
        mu = DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]), np.ones(3))
        assert hemisphere_margin(mu) == pytest.approx(0.86602540378443865, abs=1e-12)
        assert check_hemisphere_condition(mu, epsilon=0.5)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_margin_is_the_minimum_over_breakpoints_and_a_dense_grid(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 40))
        theta = rng.uniform(0.0, rng.choice([math.pi, TWO_PI]), k)
        mu = DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]),
                             rng.uniform(0.1, 2.0, k))
        grid = TWO_PI * np.arange(4096) / 4096
        e = np.vstack([np.column_stack([np.cos(grid), np.sin(grid)]),
                       np.column_stack([-np.sin(theta), np.cos(theta)]),
                       np.column_stack([np.sin(theta), -np.cos(theta)])])
        want = np.min(np.clip(e @ mu.directions.T, 0.0, None) @ mu.masses)
        assert hemisphere_margin(mu) == pytest.approx(want, abs=1e-14 * mu.total_mass)


class TestDiscreteMeasure:
    def test_duplicate_directions_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(2, np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.ones(3))

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(2, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                            np.array([1.0, 0.0, 1.0]))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(2, np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, 1.0]]), np.ones(3))

    def test_evenness_detection(self):
        even = DiscreteMeasure(
            2, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([0.2, 0.2, 0.5, 0.5]),
        )
        assert even.is_even()
        odd_mass = DiscreteMeasure(
            2, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([0.2, 0.3, 0.5, 0.5]),
        )
        assert not odd_mass.is_even()
        theta = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
        tripod = DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]), np.ones(3))
        assert not tripod.is_even()

    def test_pre_solve_checks_use_linear_memory(self):
        mu = uniform_mgon_measure(4096, 0.3)
        tracemalloc.start()
        try:
            margin = hemisphere_margin(mu)
            even = mu.is_even()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert even and margin > 0.0
        assert peak < 16 * 2**20


class TestDirectionGrid:
    def test_planar_grid(self):
        g = make_direction_grid(2, 16)
        assert g.resolution == 16
        np.testing.assert_allclose(g.weights, 2.0 * np.pi / 16.0)
        np.testing.assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0)

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            make_direction_grid(2, 3)

    def test_sphere_grid_weights(self):
        g = make_direction_grid(3, 500)
        assert g.weights.sum() == pytest.approx(4.0 * np.pi)
        np.testing.assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0)
        # Fibonacci nodes are quasi-uniform: mean position near the origin
        assert np.linalg.norm(g.nodes.mean(axis=0)) <= 5e-3

    def test_higher_dimension_deterministic(self):
        g1 = make_direction_grid(5, 128, seed=3)
        g2 = make_direction_grid(5, 128, seed=3)
        np.testing.assert_array_equal(g1.nodes, g2.nodes)
        g3 = make_direction_grid(5, 128, seed=4)
        assert np.max(np.abs(g1.nodes - g3.nodes)) > 1e-3


class TestSupportField:
    def test_convexity_violation_flags_node(self):
        N = 64
        theta = 2.0 * np.pi * np.arange(N) / N
        h = 1.0 + 0.9 * np.cos(8.0 * theta)  # (D2 h + h) dips negative
        with pytest.raises(ConvexityError) as exc:
            SupportField(N, h, 1.0)
        assert 0 <= exc.value.node < N
        assert exc.value.value <= 0.0

    def test_differences_of_harmonic(self):
        N = 128
        theta = 2.0 * np.pi * np.arange(N) / N
        fld = SupportField(N, 2.0 + 0.3 * np.cos(theta), 1.0)
        # central difference of cos(theta) is -sin(theta) sin(step)/step exactly
        d = fld.first_difference()
        np.testing.assert_allclose(d, -0.3 * np.sin(theta) * np.sinc(2.0 / N), atol=1e-12)

    def test_field_to_polygon_roundtrip(self):
        N = 256
        theta = 2.0 * np.pi * np.arange(N) / N
        h = 2.0 + 0.2 * np.cos(3.0 * theta)  # h'' + h = 2 - 1.6 cos > 0
        fld = SupportField(N, h, 1.0)
        P = field_to_polygon(fld)
        assert P.num_edges == N
        np.testing.assert_allclose(support_profile(P, P.normals), h, atol=1e-12)

    def test_positive_values_required(self):
        with pytest.raises(ValueError):
            SupportField(64, np.full(64, -1.0), 1.0)
