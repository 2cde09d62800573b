"""Property checks for the Gaussian convexity identities and inequalities.

Each check evaluates one formula or inequality on concrete bodies and
returns a CheckResult with the worst signed violation found and the
tolerance it was judged against; the randomized suite sweeps the checks
over generated instances and reports one aggregated row per family.

Tolerance budget: a uniform 1e-6 slack, plus an O(resolution^-2)
discretization allowance whenever a dense direction grid enters the
computation.  Violations are signed so that zero or negative means the
property held with margin.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .discrete import VariationalProblem, solve_constrained
from .families import (
    elongated_hexagon,
    random_even_polygon,
    random_polygon,
)
from .gaussian import (
    BALL_SURFACE_BOUND,
    gauss_constants,
    gauss_surface_polygon,
    gauss_volume_exact,
    lp_gauss_surface_polygon,
    lp_surface_measure,
    scale_to_gauss_volume,
    std_normal_quantile,
)
from .geometry import (
    SupportPolygon,
    body_hausdorff_distance,
    combine_bodies,
    disc_polygon,
    support_profile,
    wulff_shape,
    _LP_REFINE,
    _support_values,
)

UNIFORM_SLACK = 1e-6
# variational-check forward-difference steps t_j = _T_FIRST 2^-j: the first
# _T_ALWAYS always, then more while fewer than two keep every facet
_T_FIRST, _T_ALWAYS, _T_COUNT = 1e-3, 3, 7
_MEASURE_TOL, _BODY_TOL = 1e-8, 1e-6  # uniqueness: equal measures, equal bodies


class _BuiltOnRead:
    """Data descriptor of a str field that may be set to a function of no
    arguments instead: the first read calls it and keeps its result."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner):
        if obj is None:
            raise AttributeError(self.slot[1:])  # so the field has no default
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one property check.

    worst_violation is signed: positive means the property was broken by
    that amount, zero or negative means it held with margin.  The witness
    string serializes the offending (or worst-margin) inputs so the case
    can be replayed.  The checks pass a function that builds it, called
    on the first read of witness: the suite keeps one instance per row,
    and only its witness is ever built.
    """

    name: str
    passed: bool
    worst_violation: float
    witness: str = _BuiltOnRead()  # no default value: see _BuiltOnRead.__get__
    tolerance_used: float

    def __post_init__(self):
        if self.passed != (self.worst_violation <= self.tolerance_used):
            raise ValueError("passed must equal worst_violation <= tolerance_used")


def _result(name: str, worst: float, witness, tol: float) -> CheckResult:
    """The check's CheckResult; witness is a function returning its str."""
    return CheckResult(name, bool(worst <= tol), float(worst), witness, float(tol))


def _body_witness(body: SupportPolygon) -> dict:
    return {
        "normals": np.round(body.normals, 12).tolist(),
        "support": np.round(body.support, 12).tolist(),
    }


def check_variational_formula(body: SupportPolygon, f, p: float) -> CheckResult:
    """First variation of Gaussian volume along an L_p support perturbation.

    For h_t = (h^p + t f^p)^(1/p) the derivative of gamma([h_t]) at t = 0
    equals (1/p) sum f_i^p per-edge L_p mass.  Forward differences at the
    steps t_j = 1e-3 2^-j, j < 3, are Richardson-extrapolated
    (2 E(t/2) - E(t) cancels the O(t) term); the check passes when the
    extrapolated value matches the measure side to 1e-4 relative.  While
    fewer than two t values keep every facet of the body, the walk goes on
    to smaller t, up to j = 6.
    """
    f = np.array(f, dtype=float)  # a copy: the witness reads it later
    if f.shape != (body.num_edges,):
        raise ValueError("f must be sampled on the body's edge normals")
    if np.any(f <= 0.0):
        raise ValueError("f must be positive")
    if p == 0.0 or not math.isfinite(p):
        raise ValueError("p must be finite and nonzero")

    masses = lp_gauss_surface_polygon(body, p)
    measure_side = float(f**p @ masses) / p
    base = gauss_volume_exact(body)
    h = body.support

    slopes: dict[float, float] = {}
    skipped = []
    for j in range(_T_COUNT):
        if j >= _T_ALWAYS and len(slopes) >= 2:
            break  # smaller t are for a short edge that drops at larger ones
        t = _T_FIRST * 2.0**-j
        h_t = (h**p + t * f**p) ** (1.0 / p)
        body_t = wulff_shape(body.normals, h_t)
        if body_t.num_edges < body.num_edges:
            skipped.append(t)  # perturbation large enough to drop a facet
            continue
        slopes[t] = (gauss_volume_exact(body_t) - base) / t
    if len(slopes) < 2:
        return _result("variational-formula", math.inf, lambda: json.dumps({
            "error": "not enough usable t values", "skipped": skipped, "p": p,
        }), 1e-4)

    ts = sorted(slopes)  # ascending; pair the two smallest for extrapolation
    fitted_c = max(abs(slopes[t] - measure_side) / t for t in ts)
    extrapolated = 2.0 * slopes[ts[0]] - slopes[ts[1]]
    worst = abs(extrapolated - measure_side) / abs(measure_side)
    return _result("variational-formula", worst, lambda: json.dumps({
        "p": p,
        "measure_side": measure_side,
        "extrapolated": extrapolated,
        "fitted_linear_coefficient": fitted_c,
        "skipped_t": skipped,
        "body": _body_witness(body),
        "f": np.round(f, 12).tolist(),
    }), 1e-4)


@functools.lru_cache(maxsize=8)
def _combination_volume(K: SupportPolygon, L: SupportPolygon, lam: float,
                        p: float) -> float:
    """gamma((1-lam) K +_p lam L), built once per pair: the Ehrhard and the
    p = 1 log-concavity checks share it (bodies hash by identity)."""
    return gauss_volume_exact(combine_bodies(K, L, 1.0 - lam, lam, p))


def check_ehrhard(K: SupportPolygon, L: SupportPolygon,
                  lambdas=(0.25, 0.5, 0.75)) -> CheckResult:
    """Concavity of the Gaussian quantile along Minkowski interpolation.

    Psi(gamma((1-lam) K + lam L)) >= (1-lam) Psi(gamma(K)) + lam Psi(gamma(L))
    for every lam; polygon Minkowski sums are exact on the union normal set.
    """
    qK = float(std_normal_quantile(gauss_volume_exact(K)))
    qL = float(std_normal_quantile(gauss_volume_exact(L)))
    worst = -math.inf
    worst_lam = None
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda values must lie in [0, 1]")
        lhs = float(std_normal_quantile(_combination_volume(K, L, lam, 1.0)))
        violation = (1.0 - lam) * qK + lam * qL - lhs
        if violation > worst:
            worst, worst_lam = violation, lam
    return _result("ehrhard", worst, lambda: json.dumps({
        "lambda": worst_lam,
        "equality_case": body_hausdorff_distance(K, L) <= 1e-12,
        "K": _body_witness(K),
        "L": _body_witness(L),
    }), UNIFORM_SLACK)


def check_log_concavity(K: SupportPolygon, L: SupportPolygon,
                        lambdas=(0.25, 0.5, 0.75), p: float = 1.0) -> CheckResult:
    """Multiplicative form gamma(M) >= gamma(K)^(1-lam) gamma(L)^lam.

    M = (1-lam) K +_p lam L is the exact Minkowski sum for p = 1 and, for
    p > 1, the L_p combination's Wulff shape on a refined normal grid (the
    polygon encloses the true body, so only the outer (2pi/_LP_REFINE)^2
    allowance is added).
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("the multiplicative inequality is stated for finite p >= 1")
    gK = gauss_volume_exact(K)
    gL = gauss_volume_exact(L)
    # the refinement allowance only applies when an L_p Wulff body is sampled
    tol = UNIFORM_SLACK + ((2.0 * math.pi / _LP_REFINE) ** 2 if p != 1.0 else 0.0)
    worst, worst_lam = -math.inf, None
    for lam in lambdas:
        violation = gK ** (1.0 - lam) * gL**lam - _combination_volume(K, L, lam, p)
        if violation > worst:
            worst, worst_lam = violation, lam
    return _result("log-concavity", worst, lambda: json.dumps({
        "p": p,
        "lambda": worst_lam,
        "K": _body_witness(K),
        "L": _body_witness(L),
    }), tol)


def check_mixed_measure_inequality(K: SupportPolygon, L: SupportPolygon,
                                   p: float = 1.0) -> CheckResult:
    """Minimality of a body's own support integral at equal Gaussian volume.

    After rescaling both bodies to gamma = 1/2, integrating h_L^p against
    the L_p measure of K must dominate integrating h_K^p against it.
    """
    if not math.isfinite(p):
        raise ValueError("p must be finite")
    K = scale_to_gauss_volume(K, 0.5)
    L = scale_to_gauss_volume(L, 0.5)
    masses = lp_gauss_surface_polygon(K, p)
    own = float(K.support**p @ masses)
    other = float(support_profile(L, K.normals) ** p @ masses)
    # the witness reads K and L as rebound here, rescaled to volume 1/2
    return _result("mixed-measure", own - other, lambda: json.dumps({
        "p": p,
        "own_integral": own,
        "cross_integral": other,
        "hausdorff": body_hausdorff_distance(K, L),
        "K": _body_witness(K),
        "L": _body_witness(L),
    }), UNIFORM_SLACK)


def is_origin_symmetric(body: SupportPolygon) -> bool:
    """h(-nu_i) = h(nu_i) to 1e-9 max h: then K lies in -K, of equal area, so K = -K."""
    gap = np.max(np.abs(_support_values(body, -body.normals) - body.support))
    return bool(gap <= 1e-9 * np.max(body.support))


def check_isoperimetric(K: SupportPolygon, p: float = 1.0) -> CheckResult:
    """Lower bound on the total L_p measure of symmetric half-volume bodies.

    An origin-symmetric K rescaled to gamma = 1/2 must carry total L_p
    Gaussian surface measure at least the solvability threshold.
    """
    if not math.isfinite(p):
        raise ValueError("p must be finite")
    if not is_origin_symmetric(K):
        raise ValueError("the isoperimetric bound requires an origin-symmetric body")
    K = scale_to_gauss_volume(K, 0.5)
    total = float(lp_gauss_surface_polygon(K, p).sum())
    bound = gauss_constants(2, p).mass_bound
    violation = (bound - total) / bound  # relative shortfall
    return _result("isoperimetric", violation, lambda: json.dumps({
        "p": p,
        "total": total,
        "bound": bound,
        "K": _body_witness(K),
    }), UNIFORM_SLACK)


def check_ball_bound(K: SupportPolygon) -> CheckResult:
    """Dimensional cap on total Gaussian surface area: 4 n^(1/4) in the plane."""
    total = float(gauss_surface_polygon(K).sum())
    bound = BALL_SURFACE_BOUND
    return _result("ball-bound", total - bound, lambda: json.dumps({
        "total": total, "bound": bound, "K": _body_witness(K),
    }), UNIFORM_SLACK)


def check_uniqueness(K: SupportPolygon, L: SupportPolygon,
                     p: float = 1.0) -> CheckResult:
    """Equal L_p measures at volume >= 1/2 force equal bodies.

    If the L_p masses of K and L, each on its own edge normals, agree within
    ``_MEASURE_TOL`` per direction, their Hausdorff distance must be below
    ``_BODY_TOL``.  Bodies below the half-volume hypothesis are skipped with
    a flag: that regime is genuinely non-unique, so no claim is checked.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError("uniqueness is certified for finite p >= 1 only")
    gK = gauss_volume_exact(K)
    gL = gauss_volume_exact(L)
    if min(gK, gL) < 0.5 - 1e-9:
        return _result("uniqueness", 0.0, lambda: json.dumps({
            "skipped": "volume hypothesis fails, non-uniqueness regime",
            "gauss_volume_K": gK,
            "gauss_volume_L": gL,
        }), _BODY_TOL)

    gap = _measure_gap(lp_surface_measure(K, p), lp_surface_measure(L, p))
    distance = body_hausdorff_distance(K, L)
    if gap > _MEASURE_TOL:
        return _result("uniqueness", 0.0, lambda: json.dumps({
            "antecedent": f"measures differ by {gap:.6g} > {_MEASURE_TOL:g}",
            "hausdorff": distance,
        }), _BODY_TOL)
    return _result("uniqueness", distance, lambda: json.dumps({
        "measure_gap": gap,
        "hausdorff": distance,
        "gauss_volume_K": gK,
        "gauss_volume_L": gL,
    }), _BODY_TOL)


def _measure_gap(mu, nu) -> float:
    """Max mass discrepancy between two discrete measures on the circle."""
    angles = np.concatenate([np.arctan2(mu.directions[:, 1], mu.directions[:, 0]),
                             np.arctan2(nu.directions[:, 1], nu.directions[:, 0])])
    angles = np.unique(np.round(angles, 12))
    gap = 0.0
    for theta in angles:
        d = np.array([math.cos(theta), math.sin(theta)])
        a = float(np.sum(mu.masses[mu.directions @ d > 1.0 - 1e-12]))
        b = float(np.sum(nu.masses[nu.directions @ d > 1.0 - 1e-12]))
        gap = max(gap, abs(a - b))
    return gap


def run_suite(seed: int = 0, instances: int = 100) -> list[CheckResult]:
    """Randomized sweep of every check family; one aggregated row each.

    Deterministic in `seed`.  Each family's row carries the worst violation
    over its instances and the witness of that worst case, which is the
    only witness of the row that is built.
    """
    if instances < 1:
        raise ValueError("instances must be positive")
    rng = np.random.default_rng(seed)
    rows: list[CheckResult] = []

    def aggregate(name: str, results: list[CheckResult]) -> CheckResult:
        # rank by margin, not raw violation, so mixed tolerances stay consistent
        worst = max(results, key=lambda r: r.worst_violation - r.tolerance_used)
        return CheckResult(name, all(r.passed for r in results),
                           worst.worst_violation, worst.witness,
                           worst.tolerance_used)

    variational = []
    for _ in range(instances):
        body = random_polygon(rng)
        f = rng.uniform(0.5, 1.5, body.num_edges)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        variational.append(check_variational_formula(body, f, p))
    rows.append(aggregate("variational-formula", variational))

    ehrhard, mixed = [], []
    log_conc = {1.0: [], 2.0: []}
    for _ in range(instances):
        K, L = random_polygon(rng), random_polygon(rng)
        ehrhard.append(check_ehrhard(K, L))
        for p in (1.0, 2.0):
            log_conc[p].append(check_log_concavity(K, L, p=p))
        mixed.append(check_mixed_measure_inequality(K, L, p=1.0))
    rows.append(aggregate("ehrhard", ehrhard))
    rows.append(aggregate("log-concavity-p1", log_conc[1.0]))
    rows.append(aggregate("log-concavity-p2", log_conc[2.0]))
    rows.append(aggregate("mixed-measure", mixed))

    iso = []
    for i in range(instances):
        if i % 5 == 4:  # sprinkle strip-like bodies among generic ones
            body = elongated_hexagon(cap=2.0 + 0.5 * (i % 10))
        else:
            body = random_even_polygon(rng)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        iso.append(check_isoperimetric(body, p))
    rows.append(aggregate("isoperimetric", iso))

    ball = [check_ball_bound(random_polygon(rng)) for _ in range(instances)]
    ball.append(check_ball_bound(disc_polygon(1.0, 256)))
    rows.append(aggregate("ball-bound", ball))

    unique = []
    for _ in range(max(1, instances // 10)):
        # recover a body from K's own L_p measure at volume 1/2 and compare:
        # for p > 1 the symmetric solution is unique in h
        K = scale_to_gauss_volume(random_even_polygon(rng))
        p = float(rng.choice([1.5, 2.0]))
        mu = lp_surface_measure(K, p)
        L = solve_constrained(VariationalProblem(mu, p)).body
        unique.append(check_uniqueness(K, L, p=p))
    rows.append(aggregate("uniqueness", unique))
    return rows


def format_table(results: list[CheckResult]) -> str:
    """Fixed-width report table: name, pass, worst violation, tolerance."""
    name_width = max(len(r.name) for r in results) + 2
    lines = [f"{'check':<{name_width}}{'pass':<6}{'worst_violation':<18}tolerance"]
    for r in results:
        lines.append(
            f"{r.name:<{name_width}}{'yes' if r.passed else 'NO':<6}"
            f"{r.worst_violation:<18.6g}{r.tolerance_used:.6g}"
        )
    return "\n".join(lines)
