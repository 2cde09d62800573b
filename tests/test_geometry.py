"""Polygon construction, duality, combinations, discrete measures, support fields."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussmink.errors import ConvexityError, UnboundedBodyError
from gaussmink.families import random_polygon, uniform_mgon_measure
from gaussmink.geometry import (
    TWO_PI,
    DiscreteMeasure,
    SupportField,
    SupportPolygon,
    box_polygon,
    body_hausdorff_distance,
    combine_bodies,
    disc_polygon,
    field_to_polygon,
    hemisphere_margin,
    lp_combination,
    scale_body,
    support_profile,
    wulff_shape,
    wulff_shape_with_indices,
)
from gaussmink.geometry import (_ANGLE_DEDUP_TOL, _COLLINEAR_TOL, _angles_of, _as_unit_rows,
                                _reduce_halfplanes)
from gaussmink.report import SolveReport


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

    return idx[np.sort(rot[np.array(stack)])]


def line_offsets(body):
    """Worst distance of a vertex from its two edge lines, in eps * |vertex|.

    |V_i| is at least both supports of its lines, and an ulp of V_i's
    coordinates is the rounding a vertex far out on a thin body cannot avoid.
    """
    nu, h, v = body.normals, body.support, body.vertices
    off = np.abs(np.stack([
        np.einsum("ij,ij->i", v, nu) - h,
        np.einsum("ij,ij->i", v, np.roll(nu, -1, axis=0)) - np.roll(h, -1)]))
    return (off / (np.finfo(float).eps * np.linalg.norm(v, axis=1))).max()


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
        assert support_profile(body, [[1.0, 0.0]])[0] == pytest.approx(0.5, abs=1e-12)

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
    @example(1_595_873_196, "random")  # thin triangle: |V| = 134, max h = 2.18
    def test_reduction_matches_graham_scan(self, seed, family):
        normals, support = reduction_input(seed, family)
        try:
            want_kept = graham_reduce(normals, support)
        except ValueError:
            return  # too few distinct normals; the library rejects these too
        try:
            kept, nu_k, h_k = _reduce_halfplanes(normals, support)
        except UnboundedBodyError:
            return  # the reference does not test boundedness
        np.testing.assert_array_equal(kept, want_kept)
        assert line_offsets(SupportPolygon(nu_k, h_k)) <= 8.0

    @pytest.mark.parametrize("seed", range(5))
    def test_thirty_thousand_random_normals(self, seed):
        # the closest of 3e4 random normals are 1e-10 to 2e-8 rad apart;
        # vertices by Cramer's rule landed more than 1e-9 off their lines
        theta = np.random.default_rng(seed).uniform(0.0, TWO_PI, 30_000)
        body = wulff_shape(np.column_stack([np.cos(theta), np.sin(theta)]), np.ones(30_000))
        assert body.num_edges == 30_000
        assert line_offsets(body) <= 8.0

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
        diag = [math.sqrt(0.5), math.sqrt(0.5)]
        h = support_profile(sq, [[1.0, 0.0], diag])
        assert h[0] == pytest.approx(1.0)
        assert h[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_square_radial(self):
        sq = box_polygon(1.0)
        rho = sq.radial([0.0, 0.25 * math.pi])
        assert rho[0] == pytest.approx(1.0)
        assert rho[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_non_unit_direction_rejected(self):
        sq = box_polygon(1.0)
        with pytest.raises(ValueError):
            support_profile(sq, [[1.0, 1.0]])

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


class TestSupportPolygonValidation:
    def test_valid_square_accepted(self):
        sq = box_polygon(1.0)
        SupportPolygon(sq.normals, sq.support)

    def test_unsorted_normals_rejected(self):
        sq = box_polygon(1.0)
        swap = [1, 0, 2, 3]
        with pytest.raises(ValueError, match="sorted"):
            SupportPolygon(sq.normals[swap], sq.support[swap])

    def test_non_unit_normals_rejected(self):
        sq = box_polygon(1.0)
        with pytest.raises(ValueError, match="unit vector"):
            SupportPolygon(sq.normals * (1.0 + 1e-10), sq.support)

    def test_nonpositive_support_rejected(self):
        sq = box_polygon(1.0)
        with pytest.raises(ValueError, match="positive"):
            SupportPolygon(sq.normals, -sq.support)

    def test_shapes_rejected(self):
        sq = box_polygon(1.0)
        with pytest.raises(ValueError, match="inconsistent"):
            SupportPolygon(sq.normals, sq.support[:3])
        with pytest.raises(ValueError, match="at least 3"):
            SupportPolygon(sq.normals[:2], sq.support[:2])

    def test_caller_arrays_stay_writable(self):
        # each constructor freezes its own copy, not the caller's array
        normals, h, masses = box_polygon(1.0).normals, np.ones(4), np.full(4, 0.1)
        body, fld = SupportPolygon(normals, h), SupportField(h)
        mu = DiscreteMeasure(2, normals, masses)
        h[0], masses[0] = 2.0, 0.2
        assert body.support[0] == fld.h[0] == 1.0 and mu.masses[0] == 0.1

    def test_redundant_halfplane_rejected(self):
        # the edge at pi/4 would run from t0 = 3.59 back to t1 = -3.59
        theta = np.array([0.0, 0.25, 0.5, 1.0, 1.5]) * np.pi
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        h = np.array([1.0, 5.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="wulff_shape"):
            SupportPolygon(normals, h)
        assert wulff_shape(normals, h).num_edges == 4

    def test_normals_in_a_halfplane_rejected(self):
        theta = np.array([0.0, 0.5, 1.0])
        with pytest.raises(UnboundedBodyError):
            SupportPolygon(np.column_stack([np.cos(theta), np.sin(theta)]), np.ones(3))

    @pytest.mark.parametrize("gap", [1e-9, 1e-6, 0.3])
    def test_derived_vertices_lie_on_both_lines(self, gap):
        # pairs of normals `gap` apart, and turns of nearly pi next to them
        theta = np.array([0.0, gap, 2.0, 2.0 + gap, np.pi + gap / 2, np.pi + gap])
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        h = np.array([1.0, 1.0 + 1e-3 * gap, 1.0, 1.0, 0.5, 0.5])
        body = SupportPolygon(normals, h)
        assert wulff_shape(normals, h).num_edges == 6  # no halfplane is redundant
        assert line_offsets(body) <= 8.0
        # support 3 on the pair at angle 2 leaves the edge at 2 + gap redundant
        with pytest.raises(ValueError, match="wulff_shape"):
            SupportPolygon(normals, np.array([1.0, 1.0 + 1e-3 * gap, 3.0, 3.0, 0.5, 0.5]))
        for name in ("normals", "support", "turn_cos", "turn_sin", "t0", "t1", "vertices"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(body, name)[0] = 0.0

    @given(st.integers(0, 10**6), st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_lazy_sector_table_on_derived_bodies(self, seed, s):
        # the ray through the midpoint of edge j hits edge j there, and every
        # ray ends on the supporting line of the edge it hits, inside the rest
        K = scale_body(random_body(seed), s)
        mid = 0.5 * (K.vertices + np.roll(K.vertices, 1, axis=0))
        mid_angles = np.arctan2(mid[:, 1], mid[:, 0])
        assert np.array_equal(K.edge_index(mid_angles), np.arange(K.num_edges))
        np.testing.assert_allclose(K.radial(mid_angles), np.linalg.norm(mid, axis=1),
                                   rtol=1e-12)
        ang = np.random.default_rng(seed).uniform(0.0, TWO_PI, 300)
        u = np.column_stack([np.cos(ang), np.sin(ang)])
        e = K.edge_index(ang)
        rho = K.radial(ang)
        np.testing.assert_allclose(rho * np.einsum("ij,ij->i", u, K.normals[e]),
                                   K.support[e], rtol=1e-12)
        np.testing.assert_allclose(rho * np.max(u @ K.normals.T / K.support, axis=1),
                                   1.0, rtol=1e-12)


def frame_bytes(body):
    """The body's inputs and derived frame, as raw bytes."""
    return tuple(getattr(body, name).tobytes() for name in (
        "normals", "support", "turn_cos", "turn_sin", "t0", "t1", "vertices"))


def outcome(build):
    """frame_bytes of build(), or the type and message of the ValueError it raises."""
    try:
        return frame_bytes(build())
    except ValueError as exc:
        return type(exc), str(exc)


def digest_panel():
    """Seeded reductions for the bit pin: (normals, support) pairs, random,
    with repeated rows and equal supports, near collinear, on a circle,
    300 normals, and unbounded or too few.  Normals are (x, y) / sqrt(x^2 + y^2) of uniform
    draws, so each input is the same IEEE value on any platform."""
    rng = np.random.default_rng(20261020)

    def unit(m, x_low=-1.0):
        xy = np.column_stack([rng.uniform(x_low, 1.0, m), rng.uniform(-1.0, 1.0, m)])
        return xy / np.sqrt(xy[:, :1] ** 2 + xy[:, 1:] ** 2)

    panel = []
    for _ in range(40):
        m = int(rng.integers(3, 25))
        panel.append((unit(m), rng.uniform(0.2, 3.0, m)))
    for _ in range(20):
        nu = unit(int(rng.integers(4, 16)))
        rows = rng.integers(0, len(nu), 2 * len(nu))
        h = rng.choice([0.5, 1.0, 2.0], len(rows))
        panel.append((nu[rows], h))
    for _ in range(10):
        nu = unit(int(rng.integers(50, 200)))
        nu = nu[np.argsort(np.arctan2(nu[:, 1], nu[:, 0]))]
        panel.append((nu, 1.0 + rng.uniform(0.0, 1e-11, len(nu))))
    for _ in range(10):
        m = int(rng.integers(8, 40))
        panel.append((unit(m), np.ones(m)))  # every polar point on the hull
    for _ in range(5):
        panel.append((unit(300), rng.uniform(0.5, 1.5, 300)))
    panel.append((unit(2)[[0, 1, 0, 1]], np.ones(4)))  # two distinct normals
    for _ in range(5):
        m = int(rng.integers(3, 30))
        panel.append((unit(m, x_low=0.05), rng.uniform(0.2, 3.0, m)))
    return panel


def test_reduction_bits_are_pinned():
    # sha256 of every frame array and kept index of the panel's reductions,
    # and the error type and message of those refused, as the reduction
    # gave before its per-call overhead was cut
    digest = hashlib.sha256()
    for normals, support in digest_panel():
        try:
            body, kept = wulff_shape_with_indices(normals, support)
        except ValueError as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        digest.update(b"".join(frame_bytes(body)) + body.bend.tobytes() + kept.tobytes())
    assert digest.hexdigest() == (
        "71be16b5870de0d6c4e0ab14b2d307620b22bdefe69a523754c9a2d34d181a0a")


class TestConstructionPaths:
    """with_support, wulff_shape and scale_body skip checks, not bits: each
    gives what the validating constructor gives on the same data."""

    @given(st.integers(0, 10**6), st.floats(0.0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_with_support_matches_the_constructor(self, seed, spread):
        # supports moved by up to `spread` relative: some edges vanish, and
        # then both paths refuse the body with the same error
        rng = np.random.default_rng(seed)
        body = random_polygon(rng)
        h = body.support * rng.uniform(1.0 - spread, 1.0 + spread, body.num_edges)
        assert (outcome(lambda: body.with_support(h))
                == outcome(lambda: SupportPolygon(body.normals, h)))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "hexagon", "collinear"]))
    @settings(max_examples=40, deadline=None)
    def test_wulff_shape_matches_the_constructor_on_the_reduction(self, seed, family):
        normals, support = reduction_input(seed, family)
        try:
            _, nu_k, h_k = _reduce_halfplanes(normals, support)
        except ValueError:  # an unbounded intersection: wulff_shape refuses it too
            with pytest.raises(ValueError):
                wulff_shape(normals, support)
            return
        assert (outcome(lambda: wulff_shape(normals, support))
                == outcome(lambda: SupportPolygon(nu_k, h_k)))

    @given(st.integers(0, 10**6), st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_body_matches_the_constructor(self, seed, s):
        body = random_polygon(np.random.default_rng(seed))
        assert (frame_bytes(scale_body(body, s))
                == frame_bytes(SupportPolygon(body.normals, s * body.support)))

    def test_with_support_refusals(self):
        theta = np.array([0.0, 0.25, 0.5, 1.0, 1.5]) * np.pi
        body = SupportPolygon(np.column_stack([np.cos(theta), np.sin(theta)]), np.ones(5))
        with pytest.raises(ValueError, match="inconsistent"):
            body.with_support(np.ones(4))
        with pytest.raises(ValueError, match="inconsistent"):
            body.with_support(np.ones((5, 1)))
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                body.with_support(np.array([1.0, 1.0, bad, 1.0, 1.0]))
        # support 5 at pi/4 lifts that edge off the body: it would run from
        # t0 = 3.59 back to t1 = -3.59
        with pytest.raises(ValueError, match="wulff_shape"):
            body.with_support(np.array([1.0, 5.0, 1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("build", [
        lambda h: SupportPolygon(box_polygon(1.0).normals, h),
        lambda h: box_polygon(1.0).with_support(h),
        lambda h: wulff_shape(box_polygon(1.0).normals, h),
    ], ids=["SupportPolygon", "with_support", "wulff_shape"])
    def test_non_finite_support_refused(self, build, bad):
        # NaN used to build a body of NaN Gaussian volume, or to be reported
        # by wulff_shape as too few edges; inf as normals pi apart
        with pytest.raises(ValueError, match="support values must be finite"):
            build(np.array([1.0, 1.0, bad, 1.0]))

    @pytest.mark.parametrize("bad,message", [
        ([1.0, 1.0, -1.0, 1.0], "support values must be positive (origin interior)"),
        ([1.0, 1.0, 1.0], "inconsistent array lengths"),
    ], ids=["negative", "wrong-length"])
    def test_support_refusals_share_one_message(self, bad, message):
        # the Wulff reduction used to keep its own copy of these checks, with
        # other messages; test_non_finite_support_refused covers NaN
        normals, messages = box_polygon(1.0).normals, set()
        for build in (lambda h: SupportPolygon(normals, h),
                      lambda h: box_polygon(1.0).with_support(h),
                      lambda h: wulff_shape(normals, h)):
            with pytest.raises(ValueError) as exc:
                build(np.array(bad))
            messages.add(str(exc.value))
        assert messages == {message}

    def test_with_support_shares_the_frame_and_copies_the_support(self):
        body, h = box_polygon(1.0), np.array([1.0, 2.0, 3.0, 4.0])
        moved = body.with_support(h)
        h[0] = 9.0
        assert moved.support[0] == 1.0 and moved.normals is body.normals
        assert np.array_equal(moved.vertices, [[1.0, 2.0], [-3.0, 2.0], [-3.0, -4.0], [1.0, -4.0]])


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
        np.testing.assert_allclose(support_profile(M, [[1.0, 0.0], [0.0, 1.0]]),
                                   [1.5, 2.25], atol=1e-12)


class TestHausdorff:
    def test_square_vs_disc_on_facet_normals_only(self):
        sq = box_polygon(1.0)
        np.testing.assert_array_equal(support_profile(sq, sq.normals), np.ones(4))
        theta = 2.0 * np.pi * np.arange(256) / 256
        dense = np.column_stack([np.cos(theta), np.sin(theta)])
        gap = np.max(np.abs(support_profile(sq, dense) - 1.0))
        assert gap == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)

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
        assert hemisphere_margin(mu) > 0.1

    def test_halfplane_concentration_fails(self):
        mu = DiscreteMeasure(
            2,
            np.array([[1.0, 0.0], [0.0, 1.0], [math.sqrt(0.5), math.sqrt(0.5)]]),
            np.ones(3),
        )
        assert hemisphere_margin(mu) <= 1e-9
        assert not hemisphere_margin(mu) > 1e-6

    def test_equilateral_margin(self):
        # min_e sum (e.v_i)_+ = sqrt(3)/2, attained at directions
        # perpendicular to an atom (the planar margin is exact there)
        theta = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
        mu = DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]), np.ones(3))
        assert hemisphere_margin(mu) == pytest.approx(0.86602540378443865, abs=1e-12)
        assert hemisphere_margin(mu) > 0.5

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

    @pytest.mark.parametrize("row", [[math.nan, -1.0], [math.inf, 0.0],
                                     [math.nan, math.nan]], ids=["nan", "inf", "all-nan"])
    def test_non_finite_direction_rejected(self, row):
        # |norm - 1| > tol is false for a NaN norm: such a row used to pass
        dirs = [[1.0, 0.0], [0.0, 1.0], row]
        with pytest.raises(ValueError, match="row 2 is not a unit vector"):
            DiscreteMeasure(2, dirs, np.ones(3))
        with pytest.raises(ValueError, match="row 2 is not a unit vector"):
            support_profile(box_polygon(1.0), dirs)

    def test_non_planar_dimension_rejected(self):
        with pytest.raises(ValueError, match="planar"):
            DiscreteMeasure(3, np.eye(3), np.ones(3))

    @pytest.mark.parametrize("rows", [np.eye(3), np.ones((4, 1)), np.zeros((0, 2)),
                                      np.ones((2, 2, 2)), np.ones(3)],
                             ids=["3-columns", "1-column", "no-rows", "3-d", "3-vector"])
    def test_direction_shape_refused(self, rows):
        # 3 columns raised "too many values to unpack" and 1 column, or no
        # atoms, an IndexError
        shape = re.escape(f"got shape {rows.shape}")
        h = np.ones(len(rows))
        for build in (lambda: wulff_shape(rows, h), lambda: SupportPolygon(rows, h),
                      lambda: DiscreteMeasure(2, rows, h),
                      lambda: support_profile(box_polygon(1.0), rows)):
            with pytest.raises(ValueError, match=shape):
                build()

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

    @pytest.mark.parametrize("offset,even", [(5e-10, True), (2e-9, False)])
    def test_evenness_window_is_an_angle(self, offset, even):
        theta = np.array([0.1, 0.1 + math.pi + offset, 1.7, 1.7 + math.pi])
        mu = DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]),
                             np.array([0.2, 0.2, 0.5, 0.5]))
        assert mu.is_even() is even

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


class TestSupportField:
    def test_convexity_violation_flags_node(self):
        N = 64
        theta = 2.0 * np.pi * np.arange(N) / N
        h = 1.0 + 0.9 * np.cos(8.0 * theta)  # (D2 h + h) dips negative
        with pytest.raises(ConvexityError) as exc:
            SupportField(h)
        assert 0 <= exc.value.node < N
        assert exc.value.value <= 0.0

    def test_differences_of_harmonic(self):
        N = 128
        theta = 2.0 * np.pi * np.arange(N) / N
        fld = SupportField(2.0 + 0.3 * np.cos(theta))
        step = fld.step
        # central difference of cos(theta) is -sin(theta) sin(step)/step exactly
        np.testing.assert_allclose(fld.slope, -0.3 * np.sin(theta) * np.sinc(2.0 / N),
                                   atol=1e-12)
        # second difference of cos(theta) is -cos(theta) (2 - 2 cos(step))/step^2
        np.testing.assert_allclose(
            fld.curvature,
            2.0 + 0.3 * np.cos(theta) * (1.0 - (2.0 - 2.0 * np.cos(step)) / step**2),
            atol=1e-12)
        for values in (fld.h, fld.slope, fld.curvature):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1.0

    def test_field_to_polygon_roundtrip(self):
        N = 256
        theta = 2.0 * np.pi * np.arange(N) / N
        h = 2.0 + 0.2 * np.cos(3.0 * theta)  # h'' + h = 2 - 1.6 cos > 0
        fld = SupportField(h)
        P = field_to_polygon(fld)
        assert P.num_edges == N
        np.testing.assert_allclose(support_profile(P, P.normals), h, atol=1e-12)

    def test_grid_size_is_the_sample_length(self):
        fld = SupportField(np.full(96, 1.5))
        assert fld.resolution == len(fld.h) == 96
        assert fld.step == 2.0 * np.pi / 96
        for h in (np.full((8, 8), 1.5), 1.5, []):
            with pytest.raises(ValueError, match="one-dimensional"):
                SupportField(h)

    def test_positive_values_required(self):
        with pytest.raises(ValueError):
            SupportField(np.full(64, -1.0))


@pytest.mark.parametrize("build", [
    lambda: box_polygon(1.0),
    lambda: DiscreteMeasure(2, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), np.ones(3)),
    lambda: SupportField(np.full(64, 1.5)),
    lambda: SolveReport(SupportField(np.full(64, 1.5)), 1.0, 0.0, 0.0, 0),
], ids=["SupportPolygon", "DiscreteMeasure", "SupportField", "SolveReport"])
def test_array_records_compare_and_hash_by_identity(build):
    # equal values, distinct objects: the generated == would compare arrays
    a, b = build(), build()
    assert a == a and a != b
    assert len({a, b, a}) == 2
