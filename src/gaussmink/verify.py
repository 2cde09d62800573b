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

import json
import math
from dataclasses import dataclass

import numpy as np

from .families import (
    elongated_hexagon,
    random_even_polygon,
    random_polygon,
)
from .gaussian import (
    ball_surface_bound,
    gauss_constants,
    gauss_surface_polygon,
    gauss_volume_exact,
    lp_gauss_surface_polygon,
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
)

UNIFORM_SLACK = 1e-6
# Halvings of the variational check's t ladder before it reports failure.
_MAX_T_HALVINGS = 4


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one property check.

    worst_violation is signed: positive means the property was broken by
    that amount, zero or negative means it held with margin.  The witness
    string serializes the offending (or worst-margin) inputs so the case
    can be replayed.
    """

    name: str
    passed: bool
    worst_violation: float
    witness: str
    tolerance_used: float

    def __post_init__(self):
        if self.passed != (self.worst_violation <= self.tolerance_used):
            raise ValueError("passed must equal worst_violation <= tolerance_used")


def _result(name: str, worst: float, witness: str, tol: float) -> CheckResult:
    return CheckResult(name, bool(worst <= tol), float(worst), witness, float(tol))


def _body_witness(body: SupportPolygon) -> dict:
    return {
        "normals": np.round(body.normals, 12).tolist(),
        "support": np.round(body.support, 12).tolist(),
    }


def lp_measure_total(body: SupportPolygon, p: float) -> float:
    return float(np.sum(lp_gauss_surface_polygon(body, p).masses))


def check_variational_formula(body: SupportPolygon, f, p: float,
                              t_values=(1e-3, 5e-4, 2.5e-4)) -> CheckResult:
    """First variation of Gaussian volume along an L_p support perturbation.

    For h_t = (h^p + t f^p)^(1/p) the derivative of gamma([h_t]) at t = 0
    equals (1/p) sum f_i^p per-edge L_p mass.  Forward differences at the
    given t values are Richardson-extrapolated (2 E(t/2) - E(t) cancels the
    O(t) term); the check passes when the extrapolated value matches the
    measure side to 1e-4 relative.  When fewer than two t values keep every
    facet of the body, the whole ladder is halved, at most
    ``_MAX_T_HALVINGS`` times.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (body.num_edges,):
        raise ValueError("f must be sampled on the body's edge normals")
    if np.any(f <= 0.0):
        raise ValueError("f must be positive")
    if p == 0.0:
        raise ValueError("p must be nonzero")

    masses = lp_gauss_surface_polygon(body, p).masses
    measure_side = float(f**p @ masses) / p
    base = gauss_volume_exact(body)
    h = body.support

    slopes: dict[float, float] = {}
    skipped = []
    ladder = sorted(t_values, reverse=True)
    for _ in range(_MAX_T_HALVINGS + 1):
        for t in ladder:
            if t in slopes or t in skipped:
                continue
            h_t = (h**p + t * f**p) ** (1.0 / p)
            body_t = wulff_shape(body.normals, h_t)
            if body_t.num_edges < body.num_edges:
                skipped.append(t)  # perturbation large enough to drop a facet
                continue
            slopes[t] = (gauss_volume_exact(body_t) - base) / t
        if len(slopes) >= 2:
            break
        ladder = [0.5 * t for t in ladder]  # a shorter edge needs smaller steps
    if len(slopes) < 2:
        witness = json.dumps({"error": "not enough usable t values",
                              "skipped": skipped, "p": p})
        return _result("variational-formula", math.inf, witness, 1e-4)

    ts = sorted(slopes)  # ascending; pair the two smallest for extrapolation
    fitted_c = max(abs(slopes[t] - measure_side) / t for t in ts)
    extrapolated = 2.0 * slopes[ts[0]] - slopes[ts[1]]
    worst = abs(extrapolated - measure_side) / abs(measure_side)
    witness = json.dumps({
        "p": p,
        "measure_side": measure_side,
        "extrapolated": extrapolated,
        "fitted_linear_coefficient": fitted_c,
        "skipped_t": skipped,
        "body": _body_witness(body),
        "f": np.round(f, 12).tolist(),
    })
    return _result("variational-formula", worst, witness, 1e-4)


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
        M = combine_bodies(K, L, 1.0 - lam, lam, 1.0)
        lhs = float(std_normal_quantile(gauss_volume_exact(M)))
        violation = (1.0 - lam) * qK + lam * qL - lhs
        if violation > worst:
            worst, worst_lam = violation, lam
    equality = body_hausdorff_distance(K, L) <= 1e-12
    witness = json.dumps({
        "lambda": worst_lam,
        "equality_case": equality,
        "K": _body_witness(K),
        "L": _body_witness(L),
    })
    return _result("ehrhard", worst, witness, UNIFORM_SLACK)


def check_log_concavity(K: SupportPolygon, L: SupportPolygon,
                        lambdas=(0.25, 0.5, 0.75), p: float = 1.0,
                        refine: int = 256) -> CheckResult:
    """Multiplicative form gamma(combination) >= gamma(K)^(1-lam) gamma(L)^lam.

    Checked for the Minkowski sum and, for p > 1, the L_p combination (whose
    Wulff shape is evaluated on a refined normal grid; the polygon encloses
    the true body, so only the outer O(refine^-2) allowance is added).
    """
    if p < 1.0:
        raise ValueError("the multiplicative inequality is stated for p >= 1")
    gK = gauss_volume_exact(K)
    gL = gauss_volume_exact(L)
    # the refinement allowance only applies when an L_p Wulff body is sampled
    tol = UNIFORM_SLACK + ((2.0 * math.pi / refine) ** 2 if p != 1.0 else 0.0)
    worst = -math.inf
    worst_case = None
    for lam in lambdas:
        forms = [("minkowski", combine_bodies(K, L, 1.0 - lam, lam, 1.0))]
        if p != 1.0:
            forms.append(
                (f"lp(p={p:g})", combine_bodies(K, L, 1.0 - lam, lam, p,
                                                refine=refine)))
        for label, M in forms:
            violation = gK ** (1.0 - lam) * gL**lam - gauss_volume_exact(M)
            if violation > worst:
                worst, worst_case = violation, (label, lam)
    witness = json.dumps({
        "form": worst_case[0],
        "lambda": worst_case[1],
        "K": _body_witness(K),
        "L": _body_witness(L),
    })
    return _result("log-concavity", worst, witness, tol)


def check_mixed_measure_inequality(K: SupportPolygon, L: SupportPolygon,
                                   p: float = 1.0) -> CheckResult:
    """Minimality of a body's own support integral at equal Gaussian volume.

    After rescaling both bodies to gamma = 1/2, integrating h_L^p against
    the L_p measure of K must dominate integrating h_K^p against it.
    """
    K = scale_to_gauss_volume(K, 0.5)
    L = scale_to_gauss_volume(L, 0.5)
    masses = lp_gauss_surface_polygon(K, p).masses
    own = float(K.support**p @ masses)
    other = float(support_profile(L, K.normals) ** p @ masses)
    violation = own - other
    witness = json.dumps({
        "p": p,
        "own_integral": own,
        "cross_integral": other,
        "hausdorff": body_hausdorff_distance(K, L),
        "K": _body_witness(K),
        "L": _body_witness(L),
    })
    return _result("mixed-measure", violation, witness, UNIFORM_SLACK)


def _reflected(body: SupportPolygon) -> SupportPolygon:
    return wulff_shape(-body.normals, body.support)


def is_origin_symmetric(body: SupportPolygon, tol: float = 1e-9) -> bool:
    scale = float(np.max(body.support))
    return body_hausdorff_distance(body, _reflected(body)) <= tol * scale


def check_isoperimetric(K: SupportPolygon, p: float = 1.0) -> CheckResult:
    """Lower bound on the total L_p measure of symmetric half-volume bodies.

    An origin-symmetric K rescaled to gamma = 1/2 must carry total L_p
    Gaussian surface measure at least the solvability threshold.
    """
    if not is_origin_symmetric(K):
        raise ValueError("the isoperimetric bound requires an origin-symmetric body")
    K = scale_to_gauss_volume(K, 0.5)
    total = lp_measure_total(K, p)
    bound = gauss_constants(2, p).mass_bound
    violation = (bound - total) / bound  # relative shortfall
    witness = json.dumps({
        "p": p,
        "total": total,
        "bound": bound,
        "K": _body_witness(K),
    })
    return _result("isoperimetric", violation, witness, UNIFORM_SLACK)


def check_ball_bound(K: SupportPolygon) -> CheckResult:
    """Dimensional cap on total Gaussian surface area: 4 n^(1/4) in the plane."""
    total = float(np.sum(gauss_surface_polygon(K).masses))
    bound = ball_surface_bound(2)
    violation = total - bound
    witness = json.dumps({"total": total, "bound": bound,
                          "K": _body_witness(K)})
    return _result("ball-bound", violation, witness, UNIFORM_SLACK)


def check_uniqueness(K: SupportPolygon, L: SupportPolygon, p: float = 1.0,
                     measure_tol: float = 1e-8,
                     body_tol: float = 1e-6) -> CheckResult:
    """Equal L_p measures at volume >= 1/2 force equal bodies.

    On the union normal grid, if the per-direction L_p masses of K and L
    agree within measure_tol, their Hausdorff distance must be below
    body_tol.  Bodies below the half-volume hypothesis are skipped with a
    flag: that regime is genuinely non-unique, so no claim is checked.
    """
    if p < 1.0:
        raise ValueError("uniqueness is certified for p >= 1 only")
    gK = gauss_volume_exact(K)
    gL = gauss_volume_exact(L)
    if min(gK, gL) < 0.5 - 1e-9:
        witness = json.dumps({
            "skipped": "volume hypothesis fails, non-uniqueness regime",
            "gauss_volume_K": gK,
            "gauss_volume_L": gL,
        })
        return _result("uniqueness", 0.0, witness, body_tol)

    directions = np.vstack([K.normals, L.normals])
    K_common = wulff_shape(directions, support_profile(K, directions))
    L_common = wulff_shape(directions, support_profile(L, directions))
    mK = lp_gauss_surface_polygon(K_common, p).as_discrete()
    mL = lp_gauss_surface_polygon(L_common, p).as_discrete()
    gap = _measure_gap(mK, mL)
    distance = body_hausdorff_distance(K, L)
    if gap > measure_tol:
        witness = json.dumps({
            "antecedent": f"measures differ by {gap:.6g} > {measure_tol:g}",
            "hausdorff": distance,
        })
        return _result("uniqueness", 0.0, witness, body_tol)
    witness = json.dumps({
        "measure_gap": gap,
        "hausdorff": distance,
        "gauss_volume_K": gK,
        "gauss_volume_L": gL,
    })
    return _result("uniqueness", distance, witness, body_tol)


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
    over its instances and the witness of that worst case.
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

    ehrhard = []
    log_conc = {1.0: [], 2.0: []}
    pairs = []
    for _ in range(instances):
        K, L = random_polygon(rng), random_polygon(rng)
        pairs.append((K, L))
        ehrhard.append(check_ehrhard(K, L))
        for p in (1.0, 2.0):
            log_conc[p].append(check_log_concavity(K, L, p=p))
    rows.append(aggregate("ehrhard", ehrhard))
    rows.append(aggregate("log-concavity-p1", log_conc[1.0]))
    rows.append(aggregate("log-concavity-p2", log_conc[2.0]))

    mixed = []
    for K, L in pairs:
        mixed.append(check_mixed_measure_inequality(K, L, p=1.0))
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
    for _ in range(max(1, instances // 10)):  # rescale pairs share volume 1/2
        K = scale_to_gauss_volume(random_even_polygon(rng))
        unique.append(check_uniqueness(K, K, p=1.0))
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
