"""Inequality and identity checks plus the randomized suite runner."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from gaussmink.errors import HemisphereConditionError
from gaussmink.families import (
    build_family,
    cos_density,
    elongated_hexagon,
    hemisphere_bad_measure,
    random_even_polygon,
    random_polygon,
    square_surface_measure,
    uniform_mgon_measure,
)
from gaussmink.gaussian import (
    gauss_constants,
    gauss_volume_exact,
    scale_to_gauss_volume,
)
from gaussmink.geometry import (
    box_polygon,
    check_hemisphere_condition,
    disc_polygon,
    wulff_shape,
)
from gaussmink.verify import (
    CheckResult,
    check_ball_bound,
    check_ehrhard,
    check_isoperimetric,
    check_log_concavity,
    check_mixed_measure_inequality,
    check_uniqueness,
    check_variational_formula,
    format_table,
    lp_measure_total,
    run_suite,
)

HALF_BALL_TOTAL_P1 = 0.5887050112577373  # r_half * e^{-r_half^2 / 2} = r_half / 2
SQUARE_TOTAL = 0.66076348413606676  # 4 equal edge masses of [-1, 1]^2


def regular_body(m, radius=1.0):
    return disc_polygon(radius, m)


class TestCheckResult:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            CheckResult("x", True, 1.0, "{}", 0.5)
        with pytest.raises(ValueError):
            CheckResult("x", False, 0.1, "{}", 0.5)
        r = CheckResult("x", True, 0.1, "{}", 0.5)
        assert r.passed


class TestVariationalFormula:
    def test_unit_ball_unit_density(self):
        body = regular_body(512)
        r = check_variational_formula(body, np.ones(512), 1.0)
        assert r.passed
        side = json.loads(r.witness)["measure_side"]
        assert side == pytest.approx(math.exp(-0.5), abs=1e-5)

    def test_unit_ball_small_t_slope(self):
        # forward difference at t = 1e-4 already sits within 1e-5 of the limit
        body = regular_body(512)
        base = gauss_volume_exact(body)
        t = 1e-4
        moved = wulff_shape(body.normals, body.support + t)
        slope = (gauss_volume_exact(moved) - base) / t
        total = lp_measure_total(body, 1.0)
        assert abs(slope - total) <= 1e-5

    def test_square_total(self):
        r = check_variational_formula(box_polygon(1.0), np.ones(4), 1.0)
        assert r.passed
        assert json.loads(r.witness)["measure_side"] == pytest.approx(
            SQUARE_TOTAL, abs=1e-14)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_self_direction_reduces_to_p1_integral(self, p):
        # f = h makes the p-powers cancel: the limit is (1/p) int h dS_1
        body = regular_body(64, 1.3)
        r = check_variational_formula(body, body.support, p)
        assert r.passed
        side = json.loads(r.witness)["measure_side"]
        expected = float(body.support[0]) * lp_measure_total(body, 1.0) / p
        assert side == pytest.approx(expected, rel=1e-10)

    def test_random_bodies(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            body = random_polygon(rng)
            f = rng.uniform(0.5, 1.5, body.num_edges)
            p = float(rng.choice([1.0, 1.5, 2.0]))
            r = check_variational_formula(body, f, p)
            assert r.passed, r.witness

    def test_sliver_facet_skips_largest_t(self):
        # f grows the diagonal constraint much faster than its neighbours,
        # pushing it redundant for t = 1e-3 but not for the smaller two
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                            [math.sqrt(0.5), math.sqrt(0.5)]])
        support = np.array([1.0, 1.0, 1.0, 1.0, math.sqrt(2.0) - 7e-4])
        body = wulff_shape(normals, support)
        assert body.num_edges == 5
        f = np.where(np.isclose(body.normals[:, 0], math.sqrt(0.5)), 1.0, 0.01)
        r = check_variational_formula(body, f, 1.0)
        assert json.loads(r.witness)["skipped_t"] == [1e-3]
        assert r.passed

    def test_all_t_unusable_fails(self):
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                            [math.sqrt(0.5), math.sqrt(0.5)]])
        support = np.array([1.0, 1.0, 1.0, 1.0, math.sqrt(2.0) - 1e-5])
        body = wulff_shape(normals, support)
        f = np.where(np.isclose(body.normals[:, 0], math.sqrt(0.5)), 1.0, 0.01)
        r = check_variational_formula(body, f, 1.0)
        assert not r.passed
        assert math.isinf(r.worst_violation)

    def test_bad_inputs(self):
        body = box_polygon(1.0)
        with pytest.raises(ValueError):
            check_variational_formula(body, np.ones(3), 1.0)
        with pytest.raises(ValueError):
            check_variational_formula(body, -np.ones(4), 1.0)
        with pytest.raises(ValueError):
            check_variational_formula(body, np.ones(4), 0.0)


class TestEhrhard:
    def test_equality_for_identical_bodies(self):
        K = regular_body(64)
        r = check_ehrhard(K, K)
        assert r.passed
        assert abs(r.worst_violation) <= 1e-12
        assert json.loads(r.witness)["equality_case"]

    def test_endpoints_are_exact(self):
        r = check_ehrhard(regular_body(64), box_polygon(1.0), lambdas=(0.0, 1.0))
        assert abs(r.worst_violation) <= 1e-12

    def test_disc_square_strict(self):
        r = check_ehrhard(regular_body(128), box_polygon(1.0), lambdas=(0.5,))
        assert r.passed
        assert r.worst_violation < -1e-3  # genuine margin, not a tolerance save

    def test_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            r = check_ehrhard(random_polygon(rng), random_polygon(rng))
            assert r.passed, r.witness

    def test_lambda_outside_unit_interval(self):
        with pytest.raises(ValueError):
            check_ehrhard(regular_body(64), box_polygon(1.0), lambdas=(1.2,))


class TestLogConcavity:
    def test_identical_bodies(self):
        K = regular_body(64)
        r = check_log_concavity(K, K, p=2.0)
        assert r.passed

    def test_balls_closed_form_margin(self):
        r = check_log_concavity(regular_body(128, 0.8), regular_body(128, 1.5),
                                lambdas=(0.3,), p=2.0)
        assert r.passed
        assert r.worst_violation < -1e-2

    def test_subunit_p_rejected(self):
        with pytest.raises(ValueError):
            check_log_concavity(regular_body(64), box_polygon(1.0), p=0.5)

    def test_implied_by_ehrhard(self):
        # no input may pass the quantile form yet fail the multiplicative one
        rng = np.random.default_rng(17)
        for _ in range(6):
            K, L = random_polygon(rng), random_polygon(rng)
            e = check_ehrhard(K, L)
            c = check_log_concavity(K, L, p=1.0)
            assert not (e.passed and not c.passed)


class TestMixedMeasure:
    def test_equality_for_identical_bodies(self):
        r = check_mixed_measure_inequality(regular_body(64), regular_body(64))
        assert r.passed
        assert abs(r.worst_violation) <= 1e-12

    def test_disc_square_both_orientations(self):
        disc, square = regular_body(256), box_polygon(1.0)
        for K, L in ((disc, square), (square, disc)):
            r = check_mixed_measure_inequality(K, L, 1.0)
            assert r.passed
            assert r.worst_violation < -1e-3

    def test_perturbation_margin_is_second_order(self):
        m = 256
        theta = 2.0 * np.pi * np.arange(m) / m
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        margins = []
        for eps in (1e-2, 1e-3):
            L = wulff_shape(normals, 1.0 + eps * np.cos(2 * theta))
            r = check_mixed_measure_inequality(regular_body(m), L, 1.0)
            margins.append(-r.worst_violation)
        assert 50.0 <= margins[0] / margins[1] <= 200.0


class TestIsoperimetric:
    def test_ball_p1(self):
        r = check_isoperimetric(regular_body(512), 1.0)
        assert r.passed
        assert json.loads(r.witness)["total"] == pytest.approx(
            HALF_BALL_TOTAL_P1, abs=1e-4)

    def test_ball_p2(self):
        r = check_isoperimetric(regular_body(512), 2.0)
        assert r.passed
        assert json.loads(r.witness)["total"] == pytest.approx(0.5, abs=1e-4)

    def test_asymmetric_body_rejected(self):
        theta = np.array([0.1, 1.8, 2.9, 4.4])
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        body = wulff_shape(normals, np.array([1.0, 1.3, 0.9, 1.1]))
        with pytest.raises(ValueError):
            check_isoperimetric(body, 1.0)

    def test_strip_sweep_monotone_above_bound(self):
        bound = gauss_constants(2, 1.0).mass_bound
        totals = []
        for cap in (1.0, 2.0, 4.0, 8.0):
            body = scale_to_gauss_volume(elongated_hexagon(cap))
            totals.append(lp_measure_total(body, 1.0))
        assert all(a > b for a, b in zip(totals, totals[1:]))
        assert all(t >= bound * (1.0 - 1e-6) for t in totals)

    def test_random_even_bodies(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            r = check_isoperimetric(random_even_polygon(rng),
                                    float(rng.choice([1.0, 1.5, 2.0])))
            assert r.passed, r.witness


class TestBallBound:
    def test_unit_ball(self):
        r = check_ball_bound(regular_body(256))
        assert r.passed
        assert json.loads(r.witness)["total"] == pytest.approx(
            math.exp(-0.5), abs=1e-4)

    def test_huge_square_escapes(self):
        r = check_ball_bound(box_polygon(100.0))
        assert r.passed
        assert json.loads(r.witness)["total"] == 0.0

    def test_random_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            assert check_ball_bound(random_polygon(rng)).passed


class TestUniqueness:
    def test_identical_body(self):
        K = scale_to_gauss_volume(box_polygon(1.0))
        r = check_uniqueness(K, K)
        assert r.passed
        assert r.worst_violation == 0.0

    def test_low_volume_pair_skipped(self):
        # equal p = 1 totals with one ball below half volume: no uniqueness
        # holds in that regime, so the check flags and skips
        small = 0.5
        target = small * math.exp(-0.5 * small**2)
        large = brentq(lambda r: r * math.exp(-0.5 * r * r) - target, 1.0, 10.0)
        a, b = disc_polygon(small, 128), disc_polygon(large, 128)
        ta = lp_measure_total(a, 1.0)
        tb = lp_measure_total(b, 1.0)
        assert ta == pytest.approx(tb, rel=1e-3)  # polygon discretization gap
        r = check_uniqueness(a, b, 1.0)
        assert r.passed
        assert "skipped" in r.witness

    def test_differing_measures_vacuous(self):
        K = scale_to_gauss_volume(box_polygon(1.0))
        L = scale_to_gauss_volume(disc_polygon(1.0, 64))
        r = check_uniqueness(K, L)
        assert r.passed
        assert "antecedent" in r.witness

    def test_subunit_p_rejected(self):
        K = scale_to_gauss_volume(box_polygon(1.0))
        with pytest.raises(ValueError):
            check_uniqueness(K, K, p=0.5)


class TestSuiteRunner:
    def test_small_suite_all_pass(self):
        rows = run_suite(seed=1, instances=5)
        names = [r.name for r in rows]
        assert names == ["variational-formula", "ehrhard", "log-concavity-p1",
                         "log-concavity-p2", "mixed-measure", "isoperimetric",
                         "ball-bound", "uniqueness"]
        assert all(r.passed for r in rows)

    def test_thin_polygon_suite_passes(self):
        # suite seed 125 draws a thin polygon whose edges vanish at the default
        # variational-check steps, so that check has to shorten its steps
        assert all(r.passed for r in run_suite(seed=125, instances=10))

    def test_deterministic_in_seed(self):
        a = run_suite(seed=7, instances=3)
        b = run_suite(seed=7, instances=3)
        assert [r.worst_violation for r in a] == [r.worst_violation for r in b]
        assert [r.witness for r in a] == [r.witness for r in b]

    def test_table_format(self):
        rows = run_suite(seed=2, instances=2)
        table = format_table(rows)
        lines = table.splitlines()
        assert lines[0].startswith("check")
        assert len(lines) == len(rows) + 1
        assert all("yes" in line or "NO" in line for line in lines[1:])

    def test_instances_validated(self):
        with pytest.raises(ValueError):
            run_suite(seed=0, instances=0)


class TestFamilies:
    def test_uniform_mgon(self):
        mu = uniform_mgon_measure(8, 0.3)
        assert mu.total_mass == pytest.approx(0.3)
        assert mu.is_even()
        with pytest.raises(ValueError):
            uniform_mgon_measure(2, 0.3)
        with pytest.raises(ValueError):
            uniform_mgon_measure(8, 0.0)

    def test_square_measure_is_stationary_input(self):
        mu = square_surface_measure()
        assert mu.is_even()
        assert len(mu.masses) == 4
        assert np.ptp(mu.masses) <= 1e-12

    def test_cos_density_even_positive(self):
        f = cos_density(128, 0.045, 0.2, 2)
        assert np.all(f > 0.0)
        assert np.max(np.abs(f - np.roll(f, 64))) <= 1e-15
        with pytest.raises(ValueError):
            cos_density(128, 0.045, 1.5, 2)
        with pytest.raises(ValueError):
            cos_density(128, 0.045, 0.2, 0)

    def test_hemisphere_bad_fails_condition(self):
        mu = hemisphere_bad_measure()
        assert not check_hemisphere_condition(mu)

    def test_build_family_dispatch_and_determinism(self):
        for name in ("uniform-mgon", "square-measure", "cos-density",
                     "random-even", "hemisphere-bad"):
            a = build_family(name, seed=3)
            b = build_family(name, seed=3)
            if name == "cos-density":
                np.testing.assert_array_equal(a, b)
            else:
                np.testing.assert_array_equal(a.masses, b.masses)
        with pytest.raises(ValueError):
            build_family("no-such-family")

    def test_random_even_polygon_symmetric(self):
        rng = np.random.default_rng(2)
        body = random_even_polygon(rng)
        reflected = wulff_shape(-body.normals, body.support)
        from gaussmink.geometry import body_hausdorff_distance
        assert body_hausdorff_distance(body, reflected) <= 1e-12

    def test_elongated_hexagon_validation(self):
        with pytest.raises(ValueError):
            elongated_hexagon(0.0)
