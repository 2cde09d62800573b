"""Constrained variational solver for discrete surface measures.

Given a finite measure mu = sum_i m_i delta_{v_i} on the circle and an
exponent p > 0, minimize

    phi(h) = sum_i m_i h_i^p      subject to  gamma_2([h]) = 1/2,

where [h] is the halfplane intersection with support numbers h on the atom
directions.  A minimizer K satisfies mu = (lambda / p) S_p(K) for some
lambda > 0, i.e. p m_i = lambda S_{p,i} on every atom, since every atom of
positive mass bounds a facet there; the solver recovers lambda by least
squares and reports the worst relative defect of that relation.

Method: Newton's method on the KKT system in (h, lambda),

    p m_i h_i^(p-1) - lambda g_i(h) = 0,      gamma_2([h]) - 1/2 = 0,

where g is the vector of exact Gaussian edge masses, the gradient of the
exact per-sector volume.  With the atoms sorted by angle the Hessian of
gamma_2 is cyclic tridiagonal, so a step costs one cyclic-tridiagonal solve
with two right-hand sides and a scalar Schur complement for lambda.  The
canonical Wulff reduction runs once per solve, on the start body; the atom
directions then stay fixed, so a trial step rebuilds only the support part
of the start body's edge frame (SupportPolygon.with_support).  Steps are
halved until the residual norm decreases and every atom keeps its facet,
that is, every edge of the trial has positive length.  The iteration stops
at a scaled residual of 1e-13 or at the rounding floor, where no halving
decreases it.  The solve is deterministic: it starts on the constraint,
from the polygon on the atom directions that circumscribes the ball of the
target volume, shrunk onto the constraint, or, for p < 1, where phi is not
convex, from the solution at p = 1.

Precondition: the measure must not concentrate on a closed hemisphere
(otherwise inflating a halfplane-shaped body lowers phi without bound and
no minimizer exists).  For p >= 1 a converged solve is the minimizer:
[(1-t) h + t h'] contains (1-t)[h] + t[h'] and gamma_2 is log-concave
(Prekopa-Leindler, or Borell), so {h : gamma_2([h]) >= v} is convex; phi is
convex, so a KKT point with lambda > 0 is the global minimizer, unique in h
for p > 1.  When the measure is also even with total mass below the
threshold sqrt(2/pi) r^-p a e^{-a^2/2}, the unnormalized problem
S_p(K) = mu has a unique solution on the gamma > 1/2 branch; outside that
regime the report carries the "no-uniqueness-certificate" flag, since the
theory then guarantees only some lambda > 0, not the lambda = p
normalization.  Below p = 1 phi is not convex and the argument fails: the
report carries "uncertified".  report.certificate_flags states both rules
for both solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HemisphereConditionError, SolverStallError
from .gaussian import (
    ball_radius,
    gauss_surface_polygon,
    gauss_volume_exact,
    lp_gauss_surface_polygon,
    scale_to_gauss_volume,
)
from .geometry import (
    TWO_PI,
    DiscreteMeasure,
    SupportPolygon,
    hemisphere_margin,
    wulff_shape_with_indices,
    _angles_of,
    _nearest_angle,
    _rotate,
)
from .report import SolveReport, certificate_flags
from .smooth import solve_cyclic_tridiagonal

NEWTON_TOL = 1e-13   # scaled KKT residual at which Newton stops
MAX_STEPS = 100      # Newton steps per exponent
MAX_HALVINGS = 30    # step halvings before the rounding floor is declared
ROUNDING_FLOOR = "rounding floor: no step halving reduces the residual"


@dataclass(frozen=True)
class VariationalProblem:
    """Problem data for the constrained minimization.

    A target_volume below 1/2 lies off the paper's branch gamma_2 > 1/2 and
    may stall: at p = 1 a target of 0.2 stalled on 38 % of 1 283 random
    measures (5 to 200 atoms at uniform angles, masses U(0.01, 1)).  Regular
    measures solve at their start, in 0 Newton steps: uniform_mgon_measure
    with 4, 8, 64 and 512 atoms and the square at p = 0.3 to 2 100.  p is
    refused (ValueError) where h^p or s . s, s = h^(1-p) g, leaves the normal
    double range at the start ball: at target 1/2 (h = 1.177) from p ~ 2 150.
    """

    mu: DiscreteMeasure
    p: float
    target_volume: float = 0.5
    stationarity_tol: float = 1e-4
    volume_tol = 1e-8  # bound on |volume residual|; unannotated, so not a field

    def __post_init__(self):
        if not 0.0 < self.p < math.inf:
            raise ValueError(f"exponent p must be positive and finite, got p = {self.p:g}")
        if not 0.0 < self.target_volume < 1.0:
            raise ValueError("target volume must lie in (0, 1)")
        if not self.stationarity_tol > 0.0:
            raise ValueError("stationarity_tol must be positive")


def _volume_hessian_bands(body: SupportPolygon, grad: np.ndarray):
    """Cyclic tridiagonal bands (sub, diag, sup) of d grad_i / d h_j.

    With E_i = e^{-|V_i|^2/2} / 2pi at the vertex V_i shared by edges i and
    i+1, |V_i|^2 = h_i^2 + t1_i^2, whose normals turn by the angle Delta_i,

        d g_i / d h_{i+1} = E_i / sin Delta_i              (symmetric),
        d g_i / d h_i     = -h_i g_i - E_i cot Delta_i - E_{i-1} cot Delta_{i-1}.
    """
    h = body.support
    sup = np.exp(-0.5 * (h * h + body.t1 * body.t1)) / (TWO_PI * body.turn_sin)
    e_cot = sup * body.turn_cos
    return _rotate(sup, -1), -h * grad - e_cot - _rotate(e_cot, -1), sup


def recover_multiplier(body: SupportPolygon, mu: DiscreteMeasure,
                       p: float) -> tuple[float, float]:
    """Least-squares lambda for p m_i = lambda S_{p,i} and its worst defect.

    S_{p,i} is the L_p surface mass of the facet normal to atom i (zero when
    the atom bounds no facet).  Returns (lambda, max over active atoms of
    |p m_i - lambda S_{p,i}| / (p m_i)).
    """
    sp = lp_gauss_surface_polygon(body, p)
    near, gap = _nearest_angle(body.normal_angles, _angles_of(mu.directions))
    s = np.where(gap <= 1e-9, sp[near], 0.0)
    if not np.any(s > 0.0):
        raise ValueError("no atom matches a facet with positive mass")
    target = p * mu.masses
    lam = float((target @ s) / (s @ s))
    active = s > 0.0
    residual = float(np.max(np.abs(target[active] - lam * s[active]) / target[active]))
    return lam, residual


def solve_constrained(prob: VariationalProblem) -> SolveReport:
    """Minimize phi subject to the Gaussian volume constraint.

    Raises HemisphereConditionError for a measure concentrated on a closed
    hemisphere, that is, with hemisphere_margin at most 1e-8 times its total
    mass (the rest of the solve is scale-free too), and SolverStallError
    (with the objective trace) when Newton stops short of the problem's
    tolerances.
    """
    mu, p = prob.mu, prob.p
    margin = hemisphere_margin(mu)
    if not margin > 1e-8 * mu.total_mass:
        raise HemisphereConditionError(
            f"measure is concentrated on a closed hemisphere (margin {margin:.3g}): "
            "translates of a halfplane-like body lower the objective without "
            "bound, so no minimizer exists")
    # the constrained minimization itself needs no mass restriction
    flags = certificate_flags(p, mu.is_even(), mu.total_mass)

    k, r = mu.num_atoms, ball_radius(prob.target_volume)
    body, order = wulff_shape_with_indices(mu.directions, np.full(k, r))
    if len(order) < k:
        raise SolverStallError(f"the start ball keeps {len(order)} of {k} facets: "
                               "atom directions too close to resolve")
    with np.errstate(all="ignore"):  # h^p, and s . s of recover_multiplier
        s = lp_gauss_surface_polygon(body, p)
        scales = (np.float64(r) ** p, s @ s)
    if not all(np.finfo(float).tiny <= x < math.inf for x in scales):
        raise ValueError(f"p = {p:g} is out of the discrete solver's range: at the start "
                         f"radius {r:.6g}, h^p or the squared L_p edge masses leave "
                         "the double range")
    body = scale_to_gauss_volume(body, prob.target_volume)
    masses = mu.masses[order]
    trace = [float(masses @ body.support**p)]
    steps = 0
    # phi is convex for p >= 1 only; below that, start from the p = 1 body.
    for q in ((1.0, p) if p < 1.0 else (p,)):
        body, n, why = _newton_kkt(
            body, masses, q, prob.target_volume,
            recover_multiplier(body, mu, q)[0], lambda h: trace.append(float(masses @ h**p)))
        steps += n

    c = gauss_volume_exact(body) - prob.target_volume
    lam, stat = recover_multiplier(body, mu, p)
    if abs(c) > prob.volume_tol or stat > prob.stationarity_tol:
        raise SolverStallError(
            f"Newton-KKT stopped after {steps} steps ({why}): |volume residual| "
            f"= {abs(c):.3g}, stationarity residual = {stat:.3g}",
            trace=trace,
        )
    if lam <= 0.0:
        flags.append("nonpositive-multiplier")
    return SolveReport(
        body=body,
        multiplier=lam,
        volume_residual=c,
        stationarity_residual=stat,
        iterations=steps,
        homotopy_trace=(),
        flags=tuple(flags),
        objective_trace=tuple(trace),
    )


def _newton_kkt(frame, masses, p, target, lam, accepted):
    """Damped Newton on the KKT system from (frame.support, lam).

    frame is a body on the sorted atom directions that keeps every facet;
    trial bodies reuse its edge frame and its normals.  accepted(h) is called after every
    accepted step.  Returns (body, steps, why Newton stopped).
    """

    def evaluate(h, lam):
        """(body, g, F_1, F_2, merit, scaled residual), or None where a facet is lost."""
        try:
            body = frame.with_support(h)
        except ValueError:  # nonpositive support or an edge of nonpositive length
            return None
        g, dphi = gauss_surface_polygon(body), p * masses * h ** (p - 1.0)
        f1, f2 = dphi - lam * g, gauss_volume_exact(body) - target
        merit = math.hypot(float(np.linalg.norm(f1 / (p * masses))), f2)
        return body, g, f1, f2, merit, max(float(np.max(np.abs(f1) / dphi)), abs(f2))

    h = frame.support
    state = evaluate(h, lam)
    for steps in range(MAX_STEPS + 1):
        body, g, f1, f2, merit, scaled = state
        if scaled <= NEWTON_TOL:
            return body, steps, f"scaled KKT residual at {NEWTON_TOL:g}"
        if steps == MAX_STEPS:
            return body, steps, f"step limit {MAX_STEPS}"
        # A = diag(p (p-1) m h^(p-2)) - lambda Hess(gamma_2); solve
        # [A -g; g^T 0] [dh; dlam] = -[F_1; F_2] by the Schur complement.
        sub, diag, sup = _volume_hessian_bands(body, g)
        diag = p * (p - 1.0) * masses * h ** (p - 2.0) - lam * diag
        try:  # contiguous copies: g @ x on a strided view rounds differently
            x, y = solve_cyclic_tridiagonal(
                -lam * sub, diag, -lam * sup, np.column_stack([-f1, g])).T.copy()
        except SolverStallError:
            return body, steps, "singular KKT matrix"
        dlam = -(f2 + g @ x) / (g @ y)
        dh = x + dlam * y
        t = 1.0
        for _ in range(MAX_HALVINGS):
            h_t, lam_t = h + t * dh, lam + t * dlam
            if lam_t == lam and np.array_equal(h_t, h):  # so does every smaller t
                return body, steps, ROUNDING_FLOOR
            trial = evaluate(h_t, lam_t)
            if trial is not None and trial[4] < merit:
                break
            t *= 0.5
        else:
            return body, steps, ROUNDING_FLOOR
        h, lam, state = h_t, lam_t, trial
        accepted(h)
