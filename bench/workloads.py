"""The benchmark's four workloads: seeded inputs, operations and checks.

A workload is a fixed list of operations built once from the seed; a run
repeats that list in whole rounds.  Each operation calls the public library
API (looked up through the module at call time, so a tracer can see it) and
hands its output to a check from :mod:`checks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

import checks
import gaussmink as gm
import gaussmink.serialize  # noqa: F401  (the package does not import it)

# The eight symmetries of the square map unit vectors to unit vectors with
# exact arithmetic, so a rotated or reflected measure poses the same problem.
SQUARE_SYMMETRIES = tuple(np.array(m, dtype=float) for m in (
    [[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
    [[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1], [-1, 0]],
))

SPANNING_P = 1.5
# random_spanning_measure(default_rng(3), 20, 64) stalls at p = 1.5 on every
# run; it stays in the workload, unrotated, and counts as failed.
SPANNING_STALL = 3
# Generator seed of the measure whose images under the square's symmetries
# the benchmark seed picks.  All eight images converge, with two of the
# solver's 12 outer rounds to spare, and pass every check.
SPANNING_PANEL = 117
SPANNING_IMAGES = 6   # distinct images per round

LARGE_ATOMS = 512
LARGE_MASS = 0.3
LARGE_OFFSETS = 8     # rotations by j / 8 of the angular gap between atoms
# The solver's iteration count differs by up to 50 % between rotations of
# the same polygon (193 to 292 over the eight), so every seed solves the
# same two, of 193 and 201 iterations; the seed orders them.
LARGE_ROTATIONS = (0, 5)

SMOOTH_P = (1.0, 1.5, 2.0)
SMOOTH_RESOLUTIONS = (256, 512, 1024, 2048, 4096)
SMOOTH_CONSTANT_RESOLUTIONS = (256, 4096)
SMOOTH_FREQUENCIES = (1, 2, 4)
SMOOTH_AMPLITUDES = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
SMOOTH_MASS_FRACTIONS = (0.5, 0.6, 0.7, 0.8)   # total mass over the solvability bound
# cos solves at N = 8192 stall at the residual's rounding floor; their
# inputs are fixed, and they count as failed.
SMOOTH_FAILING_N = 8192

# The suite's run time differs by 20 % between suite seeds, so every seed
# runs the same suite seeds; the benchmark seed orders them.
SUITE_SEEDS = (0, 1, 2, 3, 4, 5)
SUITE_INSTANCES = 20


@dataclass
class Op:
    """One timed call into the library and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], None]


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op   # run and checked once during set-up, untimed


def _mass_bound(p: float) -> float:
    """Solvability threshold sqrt(2/pi) r_half^-p a e^{-a^2/2}, a = Phi^-1(3/4)."""
    a = float(special.ndtri(0.75))
    return math.sqrt(2.0 / math.pi) * checks.R_HALF ** (-p) * a * math.exp(-0.5 * a * a)


def _transformed(mu, matrix):
    return gm.geometry.DiscreteMeasure(2, mu.directions @ matrix.T, mu.masses)


def _discrete_op(label: str, mu, p: float, k_regular: int | None = None) -> Op:
    prob = gm.discrete.VariationalProblem(mu, p)
    reference = (checks.regular_polygon_half_support(k_regular)
                 if k_regular is not None else None)

    def run():
        return gm.discrete.solve_constrained(prob)

    def check(report, _results):
        checks.check_discrete_solution(report.body, mu.directions, mu.masses, p,
                                       prob.volume_tol, prob.stationarity_tol)
        if reference is not None:
            checks.check_regular_polygon(report.body, k_regular, reference)

    return Op(label, run, check)


def spanning_op(panel_seed: int, symmetry: int) -> Op:
    base = gm.families.random_spanning_measure(np.random.default_rng(panel_seed), 20, 64)
    return _discrete_op(f"spanning-rng{panel_seed}-sym{symmetry}",
                        _transformed(base, SQUARE_SYMMETRIES[symmetry]), SPANNING_P)


def spanning(seed: int) -> Workload:
    """Non-even random measures at p = 1.5: thousands of small evaluations."""
    rng = np.random.default_rng(seed)
    stall = gm.families.random_spanning_measure(np.random.default_rng(SPANNING_STALL), 20, 64)
    ops = [_discrete_op(f"spanning-rng{SPANNING_STALL}", stall, SPANNING_P)]
    for j in rng.choice(len(SQUARE_SYMMETRIES), SPANNING_IMAGES, replace=False):
        ops.append(spanning_op(SPANNING_PANEL, int(j)))
    return Workload(ops, _discrete_op("warmup", gm.families.uniform_mgon_measure(8, 0.3),
                                      SPANNING_P))


def mgon_op(k: int, offset: int) -> Op:
    """Uniform masses on the regular k-gon turned by offset / 8 of its gap."""
    angle = 2.0 * math.pi * offset / (k * LARGE_OFFSETS)
    c, s = math.cos(angle), math.sin(angle)
    mu = _transformed(gm.families.uniform_mgon_measure(k, LARGE_MASS),
                      np.array([[c, -s], [s, c]]))
    return _discrete_op(f"mgon{k}-rot{offset}", mu, 1.0, k_regular=k)


def large(seed: int) -> Workload:
    """Regular k-gon measures at p = 1: few iterations, large k."""
    rng = np.random.default_rng(seed)
    ops = [mgon_op(LARGE_ATOMS, int(j)) for j in rng.permutation(LARGE_ROTATIONS)]
    return Workload(ops, mgon_op(16, 0))


def _smooth_op(label: str, f: np.ndarray, p: float, *, frequency: int | None = None,
               coarse: str | None = None, constant: float | None = None) -> Op:
    def run():
        report = gm.smooth.solve_homotopy(f, p)
        text = gm.serialize.dumps_json(gm.serialize.solution_to_dict(report))
        summary = gm.serialize.report_text(report)
        return report, text, summary

    def check(out, results):
        report, text, summary = out
        h = np.asarray(report.body.h)
        checks.check_field_solution(h, f, p)
        checks.check_serialized_field(text, h)
        if f"iterations={report.iterations}" not in summary:
            raise checks.CheckFailed("report text does not echo the iteration count")
        if frequency is not None:
            checks.check_field_symmetry(h, frequency)
        if constant is not None:
            checks.check_constant_field(h, constant, p)
        if coarse is not None and coarse in results:
            checks.check_refinement(np.asarray(results[coarse][0].body.h), h)

    return Op(label, run, check)


def cos_ops(p: float, amplitude: float, frequency: int, fraction: float) -> list[Op]:
    """cos density at every resolution, each checked against the one at N/2."""
    level = fraction * _mass_bound(p) / (2.0 * math.pi)
    ops, coarse = [], None
    for n in SMOOTH_RESOLUTIONS:
        label = f"cos-p{p:g}-N{n}"
        f = gm.families.cos_density(n, level, amplitude, frequency)
        ops.append(_smooth_op(label, f, p, frequency=frequency, coarse=coarse))
        coarse = label
    return ops


def constant_ops(p: float, fraction: float) -> list[Op]:
    level = fraction * _mass_bound(p) / (2.0 * math.pi)
    return [_smooth_op(f"const-p{p:g}-N{n}", np.full(n, level), p, constant=level)
            for n in SMOOTH_CONSTANT_RESOLUTIONS]


def smooth(seed: int) -> Workload:
    """cos and constant densities: Newton, tridiagonal and field layers."""
    rng = np.random.default_rng(seed)
    ops = []
    for p in SMOOTH_P:
        ops += cos_ops(p, float(rng.choice(SMOOTH_AMPLITUDES)),
                       int(rng.choice(SMOOTH_FREQUENCIES)),
                       float(rng.choice(SMOOTH_MASS_FRACTIONS)))
        ops += constant_ops(p, float(rng.choice(SMOOTH_MASS_FRACTIONS)))
    for p in SMOOTH_P:
        f = gm.families.cos_density(SMOOTH_FAILING_N, 0.045, 0.2, 2)
        ops.append(_smooth_op(f"cos-p{p:g}-N{SMOOTH_FAILING_N}", f, p, frequency=2))
    return Workload(ops, _smooth_op("warmup", gm.families.cos_density(256), 1.0, frequency=2))


def _suite_op(suite_seed: int, instances: int = SUITE_INSTANCES) -> Op:
    def run():
        rows = gm.verify.run_suite(suite_seed, instances)
        return rows, gm.verify.format_table(rows)

    def check(out, _results):
        checks.check_suite_rows(*out)

    return Op(f"suite-{suite_seed}", run, check)


def suite(seed: int) -> Workload:
    """The randomized inequality suite: forward maps on fresh small polygons."""
    rng = np.random.default_rng(seed)
    ops = [_suite_op(int(s)) for s in rng.permutation(SUITE_SEEDS)]
    return Workload(ops, _suite_op(0, instances=1))


WORKLOADS = {
    "discrete-spanning": spanning,
    "discrete-large": large,
    "smooth-sweep": smooth,
    "verify-suite": suite,
}
