"""Gaussian volume/surface computations against closed forms and MC oracles.

Reference values are frozen from 40-digit mpmath evaluations of the closed
forms (defining integral for Phi, bisection for Psi, elementary functions for
the rest); the quantile is additionally cross-checked against scipy's ndtri.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import gammainc, ndtri

from gaussmink.families import random_polygon
from gaussmink.gaussian import (
    gauss_volume_exact,
    BALL_SURFACE_BOUND,
    ball_radius,
    constant_field_density,
    field_gauss_volume,
    gauss_constants,
    gauss_surface_polygon,
    gauss_volume,
    gauss_volume_mc,
    lp_gauss_surface_polygon,
    lp_surface_measure,
    scale_to_gauss_volume,
    smooth_lp_density,
    std_normal_cdf,
    std_normal_quantile,
)
from gaussmink.geometry import (
    TWO_PI,
    SupportField,
    box_polygon,
    disc_polygon,
    scale_body,
    wulff_shape,
)
from tests.test_geometry import random_body

R_HALF = 1.177410022515474691          # sqrt(2 ln 2)
PHI_ONE = 0.84134474606854294859       # mpmath quadrature of the defining integral
PSI_3_4 = 0.6744897501960817432        # mpmath bisection on Phi
SQUARE_EDGE_MASS = 0.16519087103401669  # e^{-1/2}(2 Phi(1)-1)/sqrt(2 pi)
SQUARE_VOLUME = 0.46606494267439227    # (2 Phi(1)-1)^2


def std_normal_pdf(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


class TestNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_oracle_value(self):
        assert std_normal_cdf(1.0) == pytest.approx(PHI_ONE, abs=1e-14)

    def test_symmetry(self):
        x = np.linspace(-8.0, 8.0, 1601)
        np.testing.assert_allclose(std_normal_cdf(x) + std_normal_cdf(-x), 1.0,
                                   atol=1e-15)

    def test_monotone(self):
        x = np.linspace(-10.0, 10.0, 4001)
        vals = std_normal_cdf(x)
        assert np.all(np.diff(vals) >= 0.0)
        strict = x[:-1] <= 7.0  # beyond ~8.3 the double value saturates at 1
        assert np.all(np.diff(vals)[strict] > 0.0)


class TestNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_oracle_value(self):
        assert std_normal_quantile(0.75) == pytest.approx(PSI_3_4, abs=1e-12)

    def test_defining_property(self):
        q = np.linspace(1e-10, 1.0 - 1e-10, 20001)
        err = np.abs(std_normal_cdf(std_normal_quantile(q)) - q)
        assert err.max() <= 1e-12

    def test_round_trip_on_x(self):
        # Psi(Phi(x)) = x; near +6 the double representation of Phi(x)
        # saturates toward 1, so the attainable accuracy degrades to
        # eps/(2 phi(x)) there (scipy's ndtr/ndtri pair behaves the same way).
        x = np.linspace(-6.0, 6.0, 2401)
        err = np.abs(std_normal_quantile(std_normal_cdf(x)) - x)
        floor = np.finfo(float).eps / 2.0 / std_normal_pdf(x)
        assert np.all(err <= 1e-10 + floor)
        assert err[x <= 5.0].max() <= 1e-10

    def test_against_scipy_oracle(self):
        q = np.linspace(1e-6, 1.0 - 1e-6, 10001)
        assert np.max(np.abs(std_normal_quantile(q) - ndtri(q))) <= 1e-11

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                std_normal_quantile(bad)

    def test_far_tail(self):
        # q = 10^-u, u uniform on [0, 300]; a Newton polish that fell back
        # to bisection used to leave q < 1e-47 tens of orders off
        q = 10.0 ** -np.random.default_rng(0).uniform(0.0, 300.0, 20000)
        rel = np.abs(std_normal_cdf(std_normal_quantile(q)) - q) / q
        assert rel.max() <= 1e-11
        assert std_normal_quantile(8.15631149769826e-192) == pytest.approx(
            -29.5192283467, abs=1e-9)

    @pytest.mark.parametrize("q", [1e-300, 1e-16, 0.5, 1.0 - 1e-16])
    def test_round_trip_at_rounding_level(self, q):
        # what one ulp of x moves Phi(x) by, plus one ulp of q: the error
        # of the best double x, relative to q even at q = 1e-300
        x = std_normal_quantile(q)
        floor = std_normal_pdf(x) * np.spacing(abs(x)) + np.spacing(q)
        assert abs(std_normal_cdf(x) - q) <= 4.0 * floor


class TestGaussVolume:
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.177410, 2.0])
    def test_disc_closed_form(self, r):
        # disc stand-in whose normal fan matches the quadrature grid
        D = disc_polygon(r, 4096)
        want = 1.0 - math.exp(-0.5 * r * r)
        assert abs(gauss_volume(D, 4096) - want) <= 1e-8

    def test_square_product_form(self):
        sq = box_polygon(1.0)
        assert gauss_volume(sq, 16384) == pytest.approx(SQUARE_VOLUME, abs=2e-8)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            gauss_volume(box_polygon(1.0), 128)

    def test_monotone_under_inclusion(self):
        vals = [gauss_volume(disc_polygon(r, 1024), 1024)
                for r in (0.3, 0.8, 1.4, 2.2, 3.5)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_in_unit_interval(self, seed):
        K = random_body(seed)
        assert 0.0 < gauss_volume(K, 1024) < 1.0


class TestGaussVolumeExact:
    def test_square_product_form(self):
        assert gauss_volume_exact(box_polygon(1.0)) == pytest.approx(
            SQUARE_VOLUME, abs=1e-13)

    def test_rectangle_product_form(self):
        K = box_polygon(0.8, 1.7)
        want = ((std_normal_cdf(0.8) - std_normal_cdf(-0.8))
                * (std_normal_cdf(1.7) - std_normal_cdf(-1.7)))
        assert gauss_volume_exact(K) == pytest.approx(want, abs=1e-13)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_matches_trapezoid_route(self, seed):
        K = random_body(seed)
        assert gauss_volume_exact(K) == pytest.approx(gauss_volume(K, 65536), abs=3e-9)

    @given(st.integers(0, 10**6))
    @example(163)  # fails unless the volume is exact to rounding
    @settings(max_examples=15, deadline=None)
    def test_derivative_is_edge_mass(self, seed):
        # moving one edge outward adds a Gaussian slab: d(volume)/dh_i = mass_i
        K = random_body(seed, max_normals=12)
        masses = gauss_surface_polygon(K)
        eps = 1e-6
        for i in range(K.num_edges):
            hp = K.support.copy(); hp[i] += eps
            hm = K.support.copy(); hm[i] -= eps
            fd = (gauss_volume_exact(wulff_shape(K.normals, hp))
                  - gauss_volume_exact(wulff_shape(K.normals, hm))) / (2.0 * eps)
            assert fd == pytest.approx(masses[i], abs=1e-9)


def sector_quad_volume(body):
    """Gaussian volume by adaptive quadrature of each edge's polar sector."""
    phi = body.normal_angles
    beta = np.arctan2(body.vertices[:, 1], body.vertices[:, 0])
    hi = np.mod(beta - phi + math.pi, TWO_PI) - math.pi
    lo = np.mod(np.roll(beta, 1) - phi + math.pi, TWO_PI) - math.pi
    total = 0.0
    for h, a, b in zip(body.support, lo, hi):
        total += integrate.quad(lambda d: -math.expm1(-0.5 * (h / math.cos(d)) ** 2),
                                a, b, epsabs=1e-17, epsrel=1e-13, limit=200)[0]
    return total / TWO_PI


@pytest.mark.parametrize("body", [
    box_polygon(1.0), box_polygon(1e-3), box_polygon(6.0), box_polygon(20.0, 0.05),
    disc_polygon(1.1774, 512), random_body(0), random_body(1), random_body(2),
    random_body(3, max_normals=12),
], ids=["box1", "box1e-3", "box6", "thin-box", "disc512", "rand0", "rand1", "rand2", "rand3"])
def test_exact_volume_matches_sector_quadrature(body):
    assert abs(gauss_volume_exact(body) - sector_quad_volume(body)) <= 1e-14


def squeezed(body, squeeze):
    """Image of a body under diag(1, squeeze): thin for small squeeze."""
    normals = body.normals / np.array([1.0, squeeze])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    vertices = body.vertices * np.array([1.0, squeeze])
    return wulff_shape(normals, np.einsum("ij,ij->i", normals, vertices))


def rebuilt_scale_factor(body, target):
    """The rescale root found by building the dilated body at every probe."""
    volume = lambda s: gauss_volume_exact(scale_body(body, s))
    lo, hi = 1.0, 1.0
    while volume(lo) > target:
        lo *= 0.5
    while volume(hi) < target:
        hi *= 2.0
    return brentq(lambda s: volume(s) - target, lo, hi, xtol=1e-15, rtol=8.9e-16)


class TestScaleToGaussVolume:
    @given(st.integers(0, 2**32 - 1), st.integers(4, 24), st.floats(-3.0, 0.0))
    @settings(max_examples=60, deadline=None)
    @example(seed=125, max_edges=4, log_squeeze=-3.0)
    def test_hits_target_and_matches_rebuilt_root(self, seed, max_edges, log_squeeze):
        body = squeezed(random_polygon(np.random.default_rng(seed), max_edges),
                        10.0**log_squeeze)
        K = scale_to_gauss_volume(body, 0.5)
        assert abs(gauss_volume_exact(K) - 0.5) <= 1e-15
        s = K.support[0] / body.support[0]
        assert s == pytest.approx(rebuilt_scale_factor(body, 0.5), rel=1e-14)
        np.testing.assert_array_equal(K.normals, body.normals)

    def test_bracket_limits(self):
        with pytest.raises(ValueError, match="lower end"):
            scale_to_gauss_volume(box_polygon(1e13), 0.5)
        with pytest.raises(ValueError, match="upper end"):
            scale_to_gauss_volume(box_polygon(1e-13), 0.5)
        with pytest.raises(ValueError, match="strictly between"):
            scale_to_gauss_volume(box_polygon(1.0), 1.0)


class TestGaussVolumeMc:
    def test_whole_plane_proxy(self):
        est, stderr = gauss_volume_mc(box_polygon(50.0), 10**4, seed=7)
        assert est == 1.0 and stderr == 0.0

    def test_disc_target(self):
        D = disc_polygon(R_HALF, 1024)
        est, stderr = gauss_volume_mc(D, 10**6, seed=11)
        assert abs(est - 0.5) <= 3.0 * stderr

    def test_square_target(self):
        est, stderr = gauss_volume_mc(box_polygon(1.0), 10**6, seed=13)
        assert abs(est - SQUARE_VOLUME) <= 3.0 * stderr

    def test_stream_pinned_to_seed(self):
        # frozen draws: the first SeedSequence child of the seed, in 2^18 chunks
        sq = box_polygon(1.0)
        assert gauss_volume_mc(sq, 200_000, seed=5) == (0.466745, 0.0011155583915129679)
        assert gauss_volume_mc(sq, 200_000, seed=6) != (0.466745, 0.0011155583915129679)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            gauss_volume_mc(box_polygon(1.0), 100, seed=1)


class TestEdgeMeasures:
    def test_square_edge_masses(self):
        masses = gauss_surface_polygon(box_polygon(1.0))
        np.testing.assert_allclose(masses, SQUARE_EDGE_MASS, atol=1e-14)
        assert masses.sum() == pytest.approx(4.0 * SQUARE_EDGE_MASS, abs=1e-13)

    def test_regular_polygon_equal_masses(self):
        masses = gauss_surface_polygon(disc_polygon(1.3, 48))
        assert np.ptp(masses) <= 1e-15

    def test_disc_total_approaches_ball_density(self):
        for r in (1.0, 1.5):
            total = gauss_surface_polygon(disc_polygon(r, 512)).sum()
            assert total == pytest.approx(r * math.exp(-0.5 * r * r), abs=1e-5)

    def test_lp_reweights_by_support_power(self):
        K = random_body(21)
        base = gauss_surface_polygon(K)
        for p in (0.5, 1.0, 2.0, 3.5):
            np.testing.assert_array_equal(lp_gauss_surface_polygon(K, p),
                                          K.support ** (1.0 - p) * base)

    def test_p1_equals_base(self):
        K = random_body(22)
        np.testing.assert_array_equal(gauss_surface_polygon(K),
                                      lp_gauss_surface_polygon(K, 1.0))

    def test_square_p2_unchanged(self):
        masses = lp_gauss_surface_polygon(box_polygon(1.0), 2.0)
        np.testing.assert_allclose(masses, SQUARE_EDGE_MASS, atol=1e-14)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_total_below_dimensional_bound(self, seed):
        K = random_body(seed)
        assert gauss_surface_polygon(K).sum() <= BALL_SURFACE_BOUND + 1e-9

    def test_measure_leaves_out_underflowed_edges(self):
        # the edge at h = 40 carries e^{-800} = 0: the measure keeps the other
        # three atoms, in edge order, with their L_p masses
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        K = wulff_shape(normals, np.array([1.0, 1.0, 1.0, 40.0]))
        masses = lp_gauss_surface_polygon(K, 1.5)
        assert masses[3] == 0.0 and np.all(masses[:3] > 0.0)
        mu = lp_surface_measure(K, 1.5)
        np.testing.assert_array_equal(mu.directions, normals[:3])
        np.testing.assert_array_equal(mu.masses, masses[:3])

    def test_ball_density_peaks_at_one(self):
        r = np.linspace(0.05, 4.0, 400)
        dens = r * np.exp(-0.5 * r * r) / (2.0 * math.pi)
        i = int(np.argmax(dens))
        assert r[i] == pytest.approx(1.0, abs=0.02)
        assert dens[0] < dens[i] and dens[-1] < dens[i]


class TestSmoothDensity:
    def test_constant_field_values(self):
        N = 128
        fld = SupportField(np.full(N, 1.5))
        np.testing.assert_allclose(smooth_lp_density(fld, 1.0),
                                   constant_field_density(1.5, 1.0), atol=1e-15)
        assert constant_field_density(1.5, 1.0) == pytest.approx(0.077505067450592339,
                                                                 abs=1e-15)

    def test_r_half_density(self):
        N = 128
        fld = SupportField(np.full(N, R_HALF))
        np.testing.assert_allclose(smooth_lp_density(fld, 1.0),
                                   R_HALF / (4.0 * math.pi), atol=1e-15)
        assert R_HALF / (4.0 * math.pi) == pytest.approx(0.09369531256463879, abs=1e-15)

    def test_density_integral_matches_edge_total(self):
        # arc integral of the smooth density vs exact polygon edge masses
        N = 512
        theta = 2.0 * np.pi * np.arange(N) / N
        h = 1.4 + 0.15 * np.cos(2.0 * theta) + 0.05 * np.sin(3.0 * theta)
        fld = SupportField(h)
        from gaussmink.geometry import field_to_polygon
        for p in (1.0, 2.0):
            total_smooth = smooth_lp_density(fld, p).mean() * 2.0 * np.pi
            total_edges = lp_gauss_surface_polygon(field_to_polygon(fld), p).sum()
            assert total_smooth == pytest.approx(total_edges, abs=8.0 / N**2)


class TestFieldGaussVolume:
    def test_constant_is_ball_volume(self):
        N = 256
        fld = SupportField(np.full(N, R_HALF))
        assert field_gauss_volume(fld) == pytest.approx(0.5, abs=1e-14)

    def test_matches_polygon_quadrature(self):
        N = 512
        theta = 2.0 * np.pi * np.arange(N) / N
        h = 1.3 + 0.2 * np.cos(2.0 * theta)
        fld = SupportField(h)
        from gaussmink.geometry import field_to_polygon
        quad = gauss_volume(field_to_polygon(fld), 16384)
        assert field_gauss_volume(fld) == pytest.approx(quad, abs=1e-5)


class TestGaussConstants:
    def test_r_half_closed_form(self):
        gc = gauss_constants(2, 1.0)
        assert gc.r_half == pytest.approx(R_HALF, abs=1e-12)

    def test_a_half_dimension_free(self):
        for n in (2, 3, 5):
            assert gauss_constants(n, 1.0).a_half == pytest.approx(PSI_3_4, abs=1e-12)

    def test_mass_bound_values(self):
        assert gauss_constants(2, 1.0).mass_bound == pytest.approx(
            0.36408224327825996, abs=1e-13)
        assert gauss_constants(2, 2.0).mass_bound == pytest.approx(
            0.30922298631399227, abs=1e-13)

    def test_mass_bound_overflow_names_p(self):
        # r_half^(-p) overflows below p ~ -4346; this used to escape as an
        # OverflowError, outside the ValueError of invalid input
        assert gauss_constants(2, -4000.0).mass_bound > 1e283
        with pytest.raises(ValueError, match="overflows at p = -5000"):
            gauss_constants(2, -5000.0).mass_bound

    def test_mass_bound_underflows_at_large_p(self):
        # r_half^(-p) underflows above p ~ 4550: the bound rounds to 0.0
        # instead of the constants being refused
        assert gauss_constants(2, 4500.0).mass_bound > 0.0
        for p in (4700.0, 5000.0, 1e6):
            c = gauss_constants(2, p)
            assert c.mass_bound == 0.0
            assert (c.r_half, c.a_half) == (gauss_constants(2, 1.0).r_half,
                                            gauss_constants(2, 1.0).a_half)

    def test_ball_radius_inverts_ball_volume(self):
        assert ball_radius(0.5) == pytest.approx(R_HALF, rel=1e-15)
        for n in (2, 3, 9):
            for v in (1e-6, 0.3, 0.5, 0.9, 1.0 - 1e-9):
                r = ball_radius(v, n)
                assert gammainc(0.5 * n, 0.5 * r * r) == pytest.approx(
                    v, rel=1e-12)

    def test_r_half_solves_volume_equation(self):
        for n in (2, 3, 4, 9):
            gc = gauss_constants(n, 1.0)
            assert gammainc(0.5 * n, 0.5 * gc.r_half**2) == pytest.approx(0.5, abs=1e-13)


class TestQuantileConvexity:
    def test_psi_prime_increasing_above_half(self):
        # Psi'(q) = sqrt(2 pi) e^{Psi(q)^2/2} should increase on (1/2, 1)
        q = np.linspace(0.5, 0.999, 400)
        psi = std_normal_quantile(q)
        deriv = math.sqrt(2.0 * math.pi) * np.exp(0.5 * psi * psi)
        assert np.all(np.diff(deriv) > 0.0)

    def test_psi_prime_matches_difference_quotient(self):
        q = np.linspace(0.55, 0.95, 41)
        eps = 1e-7
        numeric = (std_normal_quantile(q + eps) - std_normal_quantile(q - eps)) / (2 * eps)
        psi = std_normal_quantile(q)
        analytic = math.sqrt(2.0 * math.pi) * np.exp(0.5 * psi * psi)
        np.testing.assert_allclose(numeric, analytic, rtol=1e-5)
