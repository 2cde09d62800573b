"""End-to-end acceptance checks.

One test per contract item, each asserting the stated tolerance and runtime
budget, so `pytest -v tests/test_acceptance.py` prints one pass/fail line
per item.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtri

from gaussmink.cli import main
from gaussmink.discrete import VariationalProblem, solve_constrained
from gaussmink.errors import MassBoundError
from gaussmink.families import (cos_density, hemisphere_bad_measure,
                                random_polygon)
from gaussmink.gaussian import (constant_field_density, field_gauss_volume,
                                gauss_constants, gauss_volume,
                                gauss_volume_exact, gauss_volume_mc,
                                lp_surface_measure, smooth_lp_density)
from gaussmink.geometry import (DiscreteMeasure, body_hausdorff_distance,
                                disc_polygon)
from gaussmink.serialize import dumps_json, measure_to_dict
from gaussmink.smooth import solve_homotopy
from gaussmink.verify import check_variational_formula, run_suite


def half_volume_polygon(rng, max_edges: int = 9):
    from gaussmink.gaussian import scale_to_gauss_volume
    return scale_to_gauss_volume(random_polygon(rng, max_edges))


def test_closed_form_constants():
    start = time.monotonic()
    c = gauss_constants(2, 1.0)
    r_closed = math.sqrt(2.0 * math.log(2.0))
    a_closed = float(ndtri(0.75))
    bound_closed = (math.sqrt(2.0 / math.pi) * a_closed
                    * math.exp(-0.5 * a_closed**2) / r_closed)
    assert abs(c.r_half - r_closed) <= 1e-10
    assert abs(c.a_half - a_closed) <= 1e-10
    assert abs(c.mass_bound - bound_closed) <= 1e-9
    assert time.monotonic() - start < 1.0


def test_volume_engine_against_closed_form_and_monte_carlo():
    start = time.monotonic()
    for r in (0.5, 1.0, 1.177410, 2.0):
        exact = 1.0 - math.exp(-0.5 * r * r)
        assert abs(gauss_volume(disc_polygon(r, 1024), 1024) - exact) <= 1e-8
    rng = np.random.default_rng(20)
    for i in range(20):
        body = random_polygon(rng, 12)
        quad = gauss_volume_exact(body)
        mc, stderr = gauss_volume_mc(body, 1_000_000, seed=i)
        assert abs(quad - mc) <= 3.0 * stderr
    assert time.monotonic() - start < 120.0


def test_first_variation_matches_measure_integral():
    start = time.monotonic()
    rng = np.random.default_rng(33)
    for i in range(10):
        body = random_polygon(rng, 10)
        f = rng.uniform(0.5, 1.5, body.num_edges)
        p = (1.0, 1.5, 2.0)[i % 3]
        result = check_variational_formula(body, f, p)
        assert result.passed, result.witness
        assert result.worst_violation <= 1e-4
    assert time.monotonic() - start < 120.0


def test_discrete_solver_round_trip_on_half_volume_bodies():
    start = time.monotonic()
    rng = np.random.default_rng(44)
    for i in range(5):
        body = half_volume_polygon(rng)
        p = (1.0, 1.5, 2.0, 1.0, 2.0)[i]
        mu = lp_surface_measure(body, p)
        report = solve_constrained(VariationalProblem(mu, p))
        assert body_hausdorff_distance(report.body, body) <= 1e-4
        assert abs(report.multiplier / p - 1.0) <= 1e-3
        assert abs(report.volume_residual) <= 1e-8
        assert report.stationarity_residual <= 1e-4
    assert time.monotonic() - start < 180.0


def test_smooth_solver_constant_cos_refinement_and_mass_refusal():
    start = time.monotonic()
    # constant data: the solution is the constant field on the outer branch
    c0 = 0.045
    h = solve_homotopy(np.full(256, c0), 1.0).body.h
    assert np.ptp(h) == 0.0
    assert abs(constant_field_density(h[0], 1.0) - c0) <= 1e-11
    assert h[0] > gauss_constants(2, 1.0).r_half

    n = 512
    for p, level in ((1.0, 0.045), (2.0, 0.030)):
        f = cos_density(n, level, amplitude=0.2, frequency=2)
        report = solve_homotopy(f, p)
        assert report.stationarity_residual <= 1e-9
        round_trip = np.max(np.abs(smooth_lp_density(report.body, p) - f))
        assert round_trip <= 4.0 / n**2
        fine = solve_homotopy(cos_density(2 * n, level, 0.2, 2), p)
        assert np.max(np.abs(fine.body.h[::2] - report.body.h)) <= 8.0 / n**2

    heavy = np.full(256, 0.08)  # total 0.503 >= bound 0.364
    with pytest.raises(MassBoundError):
        solve_homotopy(heavy, 1.0)
    assert time.monotonic() - start < 120.0


@pytest.mark.parametrize("p, constant", [(1.0, 3.30685), (1.5, 2.9290), (2.0, 2.6227)])
def test_discrete_and_smooth_solvers_share_the_continuum_limit(p, constant):
    # The grid measure m_j = f(theta_j) 2pi/N of a smooth density, solved by
    # the discrete solver at the smooth body's Gaussian volume, gives the
    # smooth body up to O(N^-2).  N^2 max|h_d - h_s| is the measured constant
    # to 5 digits for N = 128-4096; the margin is 1 %.  lambda/p - 1 falls
    # like N^-2 too (-8.09e-5, -2.02e-5, -5.06e-6, -1.26e-6 at p = 1).
    start = time.monotonic()
    defects = []
    for n in (128, 256, 512, 1024):
        f = cos_density(n, 0.045, 0.2, 2)
        smooth = solve_homotopy(f, p)
        theta = 2.0 * np.pi * np.arange(n) / n
        mu = DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]),
                             f * (2.0 * np.pi / n))
        report = solve_constrained(VariationalProblem(
            mu, p, target_volume=field_gauss_volume(smooth.body)))
        assert report.body.num_edges == n
        error = float(np.max(np.abs(report.body.support - smooth.body.h)))
        assert n * n * error == pytest.approx(constant, rel=0.01)
        defects.append(report.multiplier / p - 1.0)
    ratios = np.array(defects[:-1]) / np.array(defects[1:])
    assert np.all((3.6 < ratios) & (ratios < 4.4)), ratios  # fourfold, 10 %
    assert time.monotonic() - start < 10.0


def test_two_homotopy_starts_reach_the_same_body():
    start = time.monotonic()
    densities = [(cos_density(256, 0.045, 0.2, 2), 1.0),
                 (cos_density(256, 0.030, 0.2, 2), 2.0),
                 (cos_density(256, 0.040, 0.15, 4), 1.5)]
    for f, p in densities:
        runs = [solve_homotopy(f, p, r_star=r)
                for r in (1.5, 2.6)]
        gap = np.max(np.abs(runs[0].body.h - runs[1].body.h))
        assert gap <= 1e-6
        assert all(r.volume_residual > 0.0 for r in runs)
    assert time.monotonic() - start < 120.0


def test_default_start_matches_another_start():
    # p puts the window midpoint 2.0887 at r0^2 = (2 - p) + 2^2, where the
    # eigenvalue (2 - p) - r0^2 - k^2 of mode k = 2 is -8, not 0; the default
    # start is now the ball carrying the mass of f, r0 = 1.7072, and the
    # solve from it reaches the body of another start in the window
    start = time.monotonic()
    p = 1.6373113759468145
    f = cos_density(256, 0.045, 0.2, 2)
    default = solve_homotopy(f, p)
    other = solve_homotopy(f, p, r_star=1.39254)
    assert default.flags == () and default.stationarity_residual <= 1e-9
    assert np.max(np.abs(default.body.h - other.body.h)) <= 1e-12
    assert time.monotonic() - start < 120.0


def test_inequality_suite_holds_on_randomized_instances():
    start = time.monotonic()
    results = run_suite(seed=0, instances=100)
    for result in results:
        assert result.passed, f"{result.name}: {result.witness}"
        assert result.worst_violation <= result.tolerance_used
    assert time.monotonic() - start < 300.0


def test_error_paths_refuse_with_diagnosis(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_json(measure_to_dict(hemisphere_bad_measure())))
    assert main(["solve-discrete", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "hemisphere" in err and "without bound" in err

    with pytest.raises(MassBoundError):
        solve_homotopy(np.full(256, 0.08), 1.0)

    f = cos_density(256, 0.045, 0.2, 2)
    with pytest.raises(ValueError, match=r"outside the window .* for p = 1$"):
        solve_homotopy(f, 1.0, r_star=1.0)  # (2-p) - r0^2 = 0, below the window
