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
from scipy.special import ndtri

from gaussmink.gaussian import (
    gauss_volume_exact,
    EdgeMeasure,
    ball_gauss_volume,
    ball_surface_bound,
    constant_field_density,
    field_gauss_volume,
    gauss_constants,
    gauss_surface_polygon,
    gauss_volume,
    gauss_volume_mc,
    gauss_volume_mc_grid,
    lp_gauss_surface_polygon,
    radial_volume_kernel,
    smooth_lp_density,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from gaussmink.geometry import (
    TWO_PI,
    SupportField,
    box_polygon,
    disc_polygon,
    make_direction_grid,
    wulff_shape,
)
from tests.test_geometry import random_body

R_HALF = 1.177410022515474691          # sqrt(2 ln 2)
PHI_ONE = 0.84134474606854294859       # mpmath quadrature of the defining integral
PSI_3_4 = 0.6744897501960817432        # mpmath bisection on Phi
SQUARE_EDGE_MASS = 0.16519087103401669  # e^{-1/2}(2 Phi(1)-1)/sqrt(2 pi)
SQUARE_VOLUME = 0.46606494267439227    # (2 Phi(1)-1)^2


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


class TestRadialVolumeKernel:
    def test_zero(self):
        for n in (1, 2, 3, 7):
            assert radial_volume_kernel(0.0, n) == 0.0

    def test_total_integral_n2(self):
        assert radial_volume_kernel(60.0, 2) == pytest.approx(1.0, abs=1e-15)

    def test_half_at_r_half(self):
        assert radial_volume_kernel(R_HALF, 2) == pytest.approx(0.5, abs=1e-14)

    def test_matches_elementary_form_n2(self):
        s = np.linspace(0.0, 5.0, 101)
        np.testing.assert_allclose(radial_volume_kernel(s, 2), 1.0 - np.exp(-0.5 * s * s),
                                   atol=1e-14)

    def test_quadrature_oracle_n3(self):
        from scipy.integrate import quad
        for s in (0.5, 1.3, 2.7):
            want, _ = quad(lambda r: math.exp(-0.5 * r * r) * r * r, 0.0, s)
            assert radial_volume_kernel(s, 3) == pytest.approx(want, abs=1e-12)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            radial_volume_kernel(-1.0, 2)


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
        masses = gauss_surface_polygon(K).masses
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

    def test_deterministic_for_seed_and_shards(self):
        sq = box_polygon(1.0)
        a = gauss_volume_mc(sq, 200_000, seed=5, shards=4)
        b = gauss_volume_mc(sq, 200_000, seed=5, shards=4)
        assert a == b
        c = gauss_volume_mc(sq, 200_000, seed=5, shards=2)
        assert a != c  # different shard split, different (still valid) stream

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            gauss_volume_mc(box_polygon(1.0), 100, seed=1)

    def test_grid_body_dimension3(self):
        # ball of radius r in R^3 via a support-grid body
        grid = make_direction_grid(3, 2048)
        r = 1.5381722544550523  # gamma_3(r B) = 1/2
        est, stderr = gauss_volume_mc_grid(grid, np.full(2048, r), 10**5, seed=3)
        # grid body circumscribes the ball; allow a small positive bias
        assert abs(est - 0.5) <= 4.0 * stderr + 5e-3


class TestEdgeMeasures:
    def test_square_edge_masses(self):
        em = gauss_surface_polygon(box_polygon(1.0))
        np.testing.assert_allclose(em.masses, SQUARE_EDGE_MASS, atol=1e-14)
        assert em.total_mass == pytest.approx(4.0 * SQUARE_EDGE_MASS, abs=1e-13)

    def test_regular_polygon_equal_masses(self):
        em = gauss_surface_polygon(disc_polygon(1.3, 48))
        assert np.ptp(em.masses) <= 1e-15

    def test_disc_total_approaches_ball_density(self):
        for r in (1.0, 1.5):
            em = gauss_surface_polygon(disc_polygon(r, 512))
            assert em.total_mass == pytest.approx(r * math.exp(-0.5 * r * r), abs=1e-5)

    def test_lp_reweights_by_support_power(self):
        K = random_body(21)
        base = gauss_surface_polygon(K)
        for p in (0.5, 1.0, 2.0, 3.5):
            em = lp_gauss_surface_polygon(K, p)
            np.testing.assert_array_equal(em.masses,
                                          K.support ** (1.0 - p) * base.masses)

    def test_p1_equals_base(self):
        K = random_body(22)
        a = gauss_surface_polygon(K)
        b = lp_gauss_surface_polygon(K, 1.0)
        np.testing.assert_array_equal(a.masses, b.masses)

    def test_square_p2_unchanged(self):
        em1 = lp_gauss_surface_polygon(box_polygon(1.0), 2.0)
        np.testing.assert_allclose(em1.masses, SQUARE_EDGE_MASS, atol=1e-14)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_total_below_dimensional_bound(self, seed):
        K = random_body(seed)
        assert gauss_surface_polygon(K).total_mass <= ball_surface_bound(2) + 1e-9

    def test_bound_enforced_on_construction(self):
        with pytest.raises(ValueError):
            EdgeMeasure(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                        np.array([2.0, 2.0, 1.0]), 1.0)

    def test_ball_density_peaks_at_one(self):
        r = np.linspace(0.05, 4.0, 400)
        dens = r * np.exp(-0.5 * r * r) / (2.0 * math.pi)
        i = int(np.argmax(dens))
        assert r[i] == pytest.approx(1.0, abs=0.02)
        assert dens[0] < dens[i] and dens[-1] < dens[i]

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            EdgeMeasure(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                        np.array([0.1, -0.1, 0.1]), 1.0)


class TestSmoothDensity:
    def test_constant_field_values(self):
        N = 128
        fld = SupportField(N, np.full(N, 1.5), 1.0)
        np.testing.assert_allclose(smooth_lp_density(fld, 1.0),
                                   constant_field_density(1.5, 1.0), atol=1e-15)
        assert constant_field_density(1.5, 1.0) == pytest.approx(0.077505067450592339,
                                                                 abs=1e-15)

    def test_r_half_density(self):
        N = 128
        fld = SupportField(N, np.full(N, R_HALF), 1.0)
        np.testing.assert_allclose(smooth_lp_density(fld, 1.0),
                                   R_HALF / (4.0 * math.pi), atol=1e-15)
        assert R_HALF / (4.0 * math.pi) == pytest.approx(0.09369531256463879, abs=1e-15)

    def test_density_integral_matches_edge_total(self):
        # arc integral of the smooth density vs exact polygon edge masses
        N = 512
        theta = 2.0 * np.pi * np.arange(N) / N
        h = 1.4 + 0.15 * np.cos(2.0 * theta) + 0.05 * np.sin(3.0 * theta)
        fld = SupportField(N, h, 1.0)
        from gaussmink.geometry import field_to_polygon
        for p in (1.0, 2.0):
            total_smooth = smooth_lp_density(fld, p).mean() * 2.0 * np.pi
            total_edges = lp_gauss_surface_polygon(field_to_polygon(fld), p).total_mass
            assert total_smooth == pytest.approx(total_edges, abs=8.0 / N**2)


class TestFieldGaussVolume:
    def test_constant_is_ball_volume(self):
        N = 256
        fld = SupportField(N, np.full(N, R_HALF), 1.0)
        assert field_gauss_volume(fld) == pytest.approx(0.5, abs=1e-14)

    def test_matches_polygon_quadrature(self):
        N = 512
        theta = 2.0 * np.pi * np.arange(N) / N
        h = 1.3 + 0.2 * np.cos(2.0 * theta)
        fld = SupportField(N, h, 1.0)
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

    def test_r_half_solves_volume_equation(self):
        for n in (2, 3, 4, 9):
            gc = gauss_constants(n, 1.0)
            assert ball_gauss_volume(gc.r_half, n) == pytest.approx(0.5, abs=1e-13)

    def test_composition_invariant_enforced(self):
        from gaussmink.gaussian import GaussConstants
        with pytest.raises(ValueError):
            GaussConstants(2, 1.0, R_HALF, PSI_3_4, 0.999)


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
