"""The benchmark's checks accept the program's outputs and reject perturbed ones.

    python3 -m pytest bench/test_checks.py
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gaussmink as gm  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from checks import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def octagon():
    mu = gm.families.uniform_mgon_measure(8, 0.3)
    prob = gm.VariationalProblem(mu, 1.0)
    return mu, prob, gm.solve_constrained(prob)


def _check_discrete(body, mu, prob):
    checks.check_discrete_solution(body, mu.directions, mu.masses, prob.p,
                                   prob.volume_tol, prob.stationarity_tol)


def test_polygon_volume_matches_the_square_closed_form():
    square = gm.box_polygon(0.8)
    expected = (2.0 * 0.5 * (1.0 + math.erf(0.8 / math.sqrt(2.0))) - 1.0) ** 2
    got = checks.polygon_gauss_volume(square.normals, square.support, square.vertices)
    assert abs(got - expected) < 1e-14


def test_discrete_solution_passes_and_scaled_support_fails(octagon):
    mu, prob, report = octagon
    _check_discrete(report.body, mu, prob)
    scaled = gm.wulff_shape(report.body.normals, report.body.support * (1.0 + 1e-6))
    with pytest.raises(CheckFailed, match="Gaussian volume"):
        _check_discrete(scaled, mu, prob)


def test_stationarity_rejects_a_perturbed_mass(octagon):
    mu, prob, report = octagon
    masses = mu.masses.copy()
    masses[0] *= 1.0 + 1e-3
    with pytest.raises(CheckFailed, match="stationarity"):
        checks.check_discrete_solution(report.body, mu.directions, masses, 1.0,
                                       prob.volume_tol, prob.stationarity_tol)


def test_objective_must_beat_the_half_volume_ball(octagon):
    mu, _, report = octagon
    grown = gm.wulff_shape(report.body.normals, report.body.support * 1.3)
    with pytest.raises(CheckFailed, match="half-volume ball"):
        checks.check_discrete_solution(grown, mu.directions, mu.masses, 1.0, 1.0, 1.0)


def test_regular_polygon_reference_and_perturbation(octagon):
    _, _, report = octagon
    reference = checks.regular_polygon_half_support(8)
    checks.check_regular_polygon(report.body, 8, reference)
    support = report.body.support.copy()
    support[3] *= 1.0 + 1e-5
    with pytest.raises(CheckFailed, match="regular 8-gon"):
        checks.check_regular_polygon(gm.wulff_shape(report.body.normals, support), 8, reference)


@pytest.fixture(scope="module")
def cos_solution():
    f = gm.families.cos_density(256, 0.045, 0.2, 2)
    return f, np.asarray(gm.solve_homotopy(f, 1.0).body.h)


def test_field_solution_passes_and_perturbed_field_fails(cos_solution):
    f, h = cos_solution
    checks.check_field_solution(h, f, 1.0)
    bumped = h.copy()
    bumped[17] += 1e-7
    with pytest.raises(CheckFailed, match="residual"):
        checks.check_field_solution(bumped, f, 1.0)


def test_field_volume_matches_the_disc_and_rejects_small_bodies():
    for r in (1.0, 1.5):
        assert abs(checks.field_gauss_volume(np.full(256, r)) + math.expm1(-0.5 * r * r)) < 1e-13
    f = np.full(256, math.exp(-0.5) / (2 * math.pi))
    with pytest.raises(CheckFailed, match="not above 1/2"):
        checks.check_field_solution(np.full(256, 1.0), f, 1.0)


def test_constant_field_radius():
    level = 0.045
    report = gm.solve_homotopy(np.full(256, level), 1.5)
    h = np.asarray(report.body.h)
    checks.check_constant_field(h, level, 1.5)
    with pytest.raises(CheckFailed, match="constant solution"):
        checks.check_constant_field(h + 1e-7, level, 1.5)


def test_symmetry_rejects_a_small_asymmetry(cos_solution):
    _, h = cos_solution
    checks.check_field_symmetry(h, 2)
    tilted = h + 1e-8 * np.sin(np.arange(h.size) * 2 * math.pi / h.size)
    with pytest.raises(CheckFailed, match="symmetry"):
        checks.check_field_symmetry(tilted, 2)


def test_refinement_pair():
    coarse = gm.solve_homotopy(gm.families.cos_density(256), 1.0).body.h
    fine = gm.solve_homotopy(gm.families.cos_density(512), 1.0).body.h
    checks.check_refinement(np.asarray(coarse), np.asarray(fine))
    with pytest.raises(CheckFailed, match="differ"):
        checks.check_refinement(np.asarray(coarse) + 2e-4, np.asarray(fine))


def test_serialized_field_round_trip(cos_solution):
    _, h = cos_solution
    text = json.dumps({"resolution": h.size, "values": [float(f"{v:.9g}") for v in h]})
    checks.check_serialized_field(text, h)
    data = json.loads(text)
    data["values"][5] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="round-trip"):
        checks.check_serialized_field(json.dumps(data), h)


def test_suite_rows_must_all_pass():
    rows = gm.run_suite(0, 2)
    checks.check_suite_rows(rows, gm.format_table(rows))
    broken = rows[:-1] + [gm.CheckResult("uniqueness", False, 1.0, "{}", 1e-6)]
    with pytest.raises(CheckFailed, match="uniqueness"):
        checks.check_suite_rows(broken, gm.format_table(broken))


def test_tracer_sees_calls_bound_by_from_imports():
    t = tracer.Tracer()
    original = gm.discrete.wulff_shape_with_indices
    t.install()
    try:
        assert gm.discrete.wulff_shape_with_indices is not original
        report = gm.discrete.solve_constrained(
            gm.VariationalProblem(gm.families.uniform_mgon_measure(8, 0.3), 1.0))
    finally:
        t.uninstall()
    assert gm.discrete.wulff_shape_with_indices is original
    m = t.metrics(rounds=1)
    assert m["discrete.solve_constrained.calls"]["value"] == 1
    assert m["geometry.wulff_shape.calls"]["value"] > report.iterations
    assert m["gaussian.gauss_volume_exact.calls"]["value"] > 0
    assert m["discrete.inner_iters"]["value"] == report.iterations
    solve = t.names.index("discrete.solve_constrained")
    top = [i for i, n in enumerate(t.span_name) if n == solve]
    assert len(top) == 1 and t.span_parent[top[0]] == -1
    duration = t.span_end[top[0]] - t.span_start[top[0]]
    assert t.self_time_total() == pytest.approx(duration, rel=1e-9)


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["per_layer"] == tracer.metric_specs()
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
