"""Newton continuation for the smooth planar measure equation.

The unknown is a periodic support sample h on N uniform angles.  The
equation matches the arc-length density of the L_p Gaussian surface area
measure,

    (1/2pi) h^(1-p) exp(-((Dh)^2 + h^2)/2) (D^2 h + h) = f(theta),

to a prescribed positive density f, with D the periodic central difference.
A homotopy f_t = (1-t) c0 + t f starts from the constant solution h = r0 on
the branch whose ball has Gaussian volume above 1/2.  By default r0 is the
radius whose ball carries the mass of f (c0 = mean f), clamped to
R_STAR_CEILING, so the path only adds the zero-mean part of f.  One damped
Newton solve goes from it straight to t = 1; only when that solve stalls for
a reason other than the rounding floor does the path restart from the
constant start along the ladder T_LADDER, where a Newton solve that fails on
a rung ends the solve.  The linearization at the constant
start is the periodic operator D^2 + (2-p) - r0^2 up to a positive
prefactor, with spectrum (2-p) - r0^2 - k^2.  Every start on the branch has
r0^2 > 2 - p (r0 exceeds sqrt(2-p) for p < 2 and the half-volume radius for
p >= 2), so every eigenvalue is negative and no start is singular.

The residual has a rounding floor of about eps max(a h) / step^2, with
a = h^(1-p) e^(-h^2/2) / 2pi the density's prefactor; it grows like N^2.  A
Newton stall at that floor raises RoundingFloorError, naming the floor and
a reachable tolerance, at once: the floor does not depend on t, so the
ladder would stall too.  A stall of the ladder raises SolverStallError
naming the rung.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import MassBoundError, RoundingFloorError, SolverStallError
from .gaussian import (
    constant_field_density,
    constant_field_radius,
    field_gauss_volume,
    gauss_constants,
    smooth_lp_density,
)
from .geometry import TWO_PI, SupportField
from .report import SolveReport, certificate_flags

# upper end of the radius window of constant starts; Gaussian decay makes
# larger balls useless as homotopy anchors
R_STAR_CEILING = 3.0

_GUARD_TOL = 1e-8

# A Newton stall with residual within this factor of the rounding-floor
# estimate is put down to rounding; the factor only picks the error and its
# message.  Every stall measured on the cos densities at N = 8192 sat at
# 0.93-1.87 floors; the factor leaves room for the estimate's unknown
# stencil constant.
FLOOR_FACTOR = 16.0
# Stalls sit at up to about twice the floor estimate, and along a path the
# floor can double from its value at the stall (p = 2, N = 8192 to 2^18), so
# the suggested tolerance is four floors, or the stalled residual if larger.
_REACHABLE_FLOORS = 4.0

# continuation rungs and damping limits
T_LADDER = (0.25, 0.5, 0.75, 1.0)  # homotopy parameters t solved in turn
NEWTON_MAX_ITERS = 30   # Newton steps per continuation step
MAX_HALVINGS = 20       # damping halvings per Newton step


@dataclass(frozen=True)
class HomotopyStep:
    """One accepted continuation step with its certification data."""

    t: float
    newton_iters: int
    residual: float
    min_convexity: float
    gauss_volume: float


def linearized_guard(r0: float, p: float, resolution: int) -> bool:
    """True when the linearization at h = r0 has no near-zero eigenvalue.

    The periodic operator D^2 + ((2-p) - r0^2) has the eigenvalues
    (2-p) - r0^2 - k^2 and is singular exactly when (2-p) - r0^2 = k^2 for an
    integer mode k; modes up to resolution/2 are representable on the grid.
    No start on the volume > 1/2 branch is singular (module docstring).
    """
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    k = np.arange(resolution // 2 + 1, dtype=float)
    return bool(np.min(np.abs((2.0 - p) - r0 * r0 - k * k)) > _GUARD_TOL)


def residual(field: SupportField, f, p: float) -> np.ndarray:
    """Pointwise defect smooth_lp_density(field, p) - f on the field's grid."""
    f = np.asarray(f, dtype=float)
    if f.shape != (field.resolution,):
        raise ValueError("f must be sampled on the field's grid")
    return smooth_lp_density(field, p) - f


def _jacobian_bands(field: SupportField, p: float):
    """Cyclic tridiagonal bands of d(density)/dh at the field.

    With d = Dh (the field's slope), w = D^2 h + h (its curvature) and
    A = (1/2pi) h^(1-p) e^{-(d^2+h^2)/2}, the density is rho = A w, and the
    three-point stencils of d and w give

        d rho_k / d h_k      = rho ((1-p)/h - h) + A (1 - 2/step^2)
        d rho_k / d h_{k+-1} = -+ rho d / (2 step) + A / step^2.
    """
    h, d, w, step = field.h, field.slope, field.curvature, field.step
    a = h ** (1.0 - p) * np.exp(-0.5 * (d * d + h * h)) / TWO_PI
    rho = a * w
    diag = rho * ((1.0 - p) / h - h) + a * (1.0 - 2.0 / step**2)
    sup = -rho * d / (2.0 * step) + a / step**2
    sub = rho * d / (2.0 * step) + a / step**2
    return sub, diag, sup


def solve_cyclic_tridiagonal(sub, diag, sup, rhs):
    """Direct solve of the periodic tridiagonal system via rank-one repair.

    Shared by the smooth Newton step and the discrete Newton-KKT step; rhs
    is an (n,) vector or an (n, k) stack of columns, and the solution has its
    shape.

    The wraparound corners J[0,n-1] = sub[0] and J[n-1,0] = sup[n-1] are
    split off as an outer product u v^T, and the Sherman-Morrison identity
    restores them.  One LAPACK gtsv call solves the remaining tridiagonal
    system for the right-hand sides and u together.  A singular or
    non-finite system raises SolverStallError.
    """
    n = len(diag)
    corner_top = sub[0]
    corner_bot = sup[n - 1]
    gamma = -diag[0] if diag[0] != 0.0 else 1.0
    dl = np.array(sub[1:], dtype=float)
    d = np.array(diag, dtype=float)
    d[0] -= gamma
    d[n - 1] -= corner_top * corner_bot / gamma
    du = np.array(sup[:-1], dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    columns = np.zeros((n, rhs.size // n + 1), order="F")
    columns[:, :-1] = rhs.reshape(n, -1)
    columns[0, -1] = gamma
    columns[n - 1, -1] = corner_bot
    if not all(np.isfinite(a).all() for a in (dl, d, du, columns)):
        raise SolverStallError("non-finite cyclic-tridiagonal system")
    *_, solved, info = dgtsv(dl, d, du, columns, overwrite_dl=1, overwrite_d=1,
                             overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise SolverStallError("singular cyclic-tridiagonal system")
    y, q = solved[:, :-1], solved[:, -1]
    denom = 1.0 + q[0] + corner_top / gamma * q[n - 1]
    correction = (y[0] + corner_top / gamma * y[n - 1]) / denom
    delta = y - q[:, None] * correction
    if abs(denom) < 1e-12 or not np.all(np.isfinite(delta)):
        raise SolverStallError("singular cyclic-tridiagonal system")
    return delta.reshape(rhs.shape)


def _damped_search(field: SupportField, f, p: float, defect: np.ndarray,
                   levels: int):
    """The first of h - delta, h - delta/2, ... (at most levels trials) that
    is a valid convex field with a smaller residual max-norm, with that
    residual; None when none is.  delta = J^{-1} defect; a zero delta returns
    the field itself.  Raises SolverStallError on a singular system.
    """
    base = float(np.max(np.abs(defect)))
    sub, diag, sup = _jacobian_bands(field, p)
    delta = solve_cyclic_tridiagonal(sub, diag, sup, defect)
    if not np.any(delta):
        return field, defect
    t = 1.0
    for _ in range(levels):
        candidate = field.h - t * delta
        if np.array_equal(candidate, field.h):
            break  # every smaller t evaluates the same point
        try:
            trial = SupportField(candidate)
        except ValueError:  # a ConvexityError among them
            t *= 0.5
            continue
        trial_defect = residual(trial, f, p)
        if float(np.max(np.abs(trial_defect))) < base:
            return trial, trial_defect
        t *= 0.5
    return None


def newton_step(field: SupportField, f, p: float, defect: np.ndarray):
    """One damped Newton update h <- h - t J^{-1} G toward density f.

    defect is residual(field, f, p).  Returns the new field with its
    residual, the one the damping loop computed.  The full step is halved (at
    most MAX_HALVINGS times, and no further once the candidate equals h)
    until the residual max-norm decreases and the candidate stays a valid
    convex field.  When no damping level helps, raises RoundingFloorError if
    the residual is within FLOOR_FACTOR of _rounding_floor, and
    SolverStallError otherwise.
    """
    found = _damped_search(field, f, p, defect, MAX_HALVINGS)
    if found is not None:
        return found
    base = float(np.max(np.abs(defect)))
    floor = _rounding_floor(field, p)
    if base <= FLOOR_FACTOR * floor:
        raise RoundingFloorError(
            f"damped Newton step stalled at residual {base:.3g}, within "
            f"{FLOOR_FACTOR:g} times the rounding floor {floor:.3g} of the "
            f"N = {field.resolution} grid", base, floor)
    raise SolverStallError("damped Newton step failed to reduce the residual")


def _final_step(field: SupportField, f, p: float, defect: np.ndarray):
    """One undamped Newton trial past the tolerance, kept only when it lowers
    the residual; (field, defect) unchanged otherwise.  Never raises: near
    the rounding floor the trial may fail, and that is no stall.
    """
    try:
        found = _damped_search(field, f, p, defect, 1)
    except SolverStallError:
        return field, defect
    return (field, defect) if found is None else found


def _rounding_floor(field: SupportField, p: float) -> float:
    """Rounding error of the residual: eps max(a h) / step^2.

    a = h^(1-p) e^(-h^2/2) / 2pi is the density's prefactor and eps h / step^2
    the rounding error of the D^2 stencil.
    """
    h = field.h
    a = h ** (1.0 - p) * np.exp(-0.5 * h * h) / TWO_PI
    return float(np.finfo(float).eps * np.max(a * h) / field.step**2)


def _stall(message: str, steps: list, iters: int) -> SolverStallError:
    """A stall of the walk: its trace is the rungs finished, and its
    newton_iters counts the Newton steps accepted, theirs and iters more."""
    exc = SolverStallError(message, trace=list(steps))
    exc.newton_iters = sum(step.newton_iters for step in steps) + iters
    return exc


def _walk(schedule, field: SupportField, c0: float, f: np.ndarray, p: float,
          newton_tol: float):
    """Solve f_t = (1-t) c0 + t f for each t of schedule in turn, each Newton
    solve starting from the previous field; returns the last field and the
    trace.  field solves t = 0 exactly, so t = 0 takes no Newton step.  A
    stall other than at the rounding floor raises the SolverStallError of
    _stall.
    """
    n = field.resolution
    steps: list[HomotopyStep] = []
    for t in schedule:
        f_target = (1.0 - t) * c0 + t * f
        defect = residual(field, f_target, p)
        iters = 0
        try:
            while (norm := float(np.max(np.abs(defect)))) > newton_tol and t > 0.0:
                if iters == NEWTON_MAX_ITERS:
                    raise SolverStallError(f"Newton did not reach tolerance in "
                                           f"{NEWTON_MAX_ITERS} iterations")
                field, defect = newton_step(field, f_target, p, defect)
                iters += 1
        except RoundingFloorError as exc:
            reachable = max(_REACHABLE_FLOORS * exc.floor, exc.residual)
            scale = 10.0 ** math.floor(math.log10(reachable))
            reachable = math.ceil(reachable / scale) * scale  # rounded up to 1 digit
            raise RoundingFloorError(
                f"Newton stalled at the rounding floor of the residual "
                f"(N = {n}, p = {p:g}, reached t = {steps[-1].t:.6g}): "
                f"residual {exc.residual:.3g}, floor estimate {exc.floor:.3g}, "
                f"requested newton_tol = {newton_tol:g}; tolerances from about "
                f"{reachable:g} up are reachable: pass --tol >= {reachable:g}",
                exc.residual, exc.floor, trace=list(steps),
            ) from None
        except SolverStallError as exc:
            raise _stall(f"{exc} on the continuation rung t = {t:g}", steps, iters) from None
        if t > 0.0:
            # one more step, kept if it helps: a quadratic step from the last
            # iterate takes the residual from near newton_tol to round-off
            polished, defect = _final_step(field, f_target, p, defect)
            if polished is not field:
                field, norm = polished, float(np.max(np.abs(defect)))
                iters += 1
        gamma = field_gauss_volume(field)
        if gamma <= 0.5:
            raise _stall(f"path lost the volume certificate at t = {t:.6g}: "
                         f"gauss volume {gamma:.6g} <= 1/2", steps, iters)
        steps.append(
            HomotopyStep(
                t=t,
                newton_iters=iters,
                residual=norm,
                min_convexity=float(np.min(field.curvature)),
                gauss_volume=gamma,
            )
        )
    return field, steps


def solve_homotopy(f, p: float, *, newton_tol: float = 1e-11,
                   r_star: float | None = None) -> SolveReport:
    """Track the constant solution to a solution of density = f.

    f is sampled on N uniform angles, N = len(f) even and at least 64, and
    must be positive with total mass below the solvability threshold; the
    threshold check runs before any continuation step.  The path
    f_t = (1-t) c0 + t f is walked first as t = 0, 1: one damped Newton
    solve from the constant start, which is exact at t = 0.  If that solve
    stalls other than at the rounding floor (step limit, failed damping,
    singular system, lost volume certificate), the walk restarts from the
    constant start as t = 0 and then each rung of T_LADDER, each Newton solve
    starting from the previous field.  Each Newton solve ends with one more
    step once newton_tol is met, kept only when it lowers the residual.
    Every t reached is volume-checked and recorded as a HomotopyStep.  The
    report carries the solution field, the max-norm equation residual, the
    volume margin above 1/2, the trace of the walk that succeeded, and the
    Newton steps accepted by both walks when the ladder ran.

    newton_tol is the max-norm residual each Newton solve must reach.  The
    default 1e-11 lies above the rounding floor (module docstring) up to
    N = 4096 on the cos densities measured at p >= 0.7, but not for heavy,
    rough densities at small p: cos_density(4096, 0.95 mass_bound / 2 pi,
    0.9, 3) converges at p = 0.4, 0.5, 0.7, 1, 1.5, 2 and 3 and stalls at
    the floor at p = 0.1, 0.2 and 0.3.  A stall at the floor raises
    RoundingFloorError naming a reachable tolerance; a stall of the ladder
    raises SolverStallError naming the rung.  r_star overrides the radius of
    the constant start, by default the radius whose ball has the constant
    density mean(f), or R_STAR_CEILING for lighter densities; a value
    outside the window (branch floor + 1e-6, R_STAR_CEILING] raises
    ValueError.
    """
    if not newton_tol > 0.0:
        raise ValueError("newton_tol must be positive")
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise ValueError("f must be sampled on a one-dimensional angle grid")
    n = len(f)
    if n < 64 or n % 2 != 0:
        raise ValueError("resolution must be an even integer >= 64")
    if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
        raise ValueError("f must be positive and finite")
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got p = {p:g}")

    level = float(np.mean(f))
    total_mass = TWO_PI * level
    constants = gauss_constants(2, p)
    if total_mass >= constants.mass_bound:
        raise MassBoundError(
            f"total mass {total_mass:.6g} is not below the solvability "
            f"threshold {constants.mass_bound:.6g} for p = {p:g}"
        )
    even = float(np.max(np.abs(f - np.roll(f, n // 2)))) <= 1e-12 * float(np.max(f))
    flags = certificate_flags(p, even, total_mass)

    # constant start: by default the radius whose ball carries the mass of f,
    # clamped to the ceiling; the window (branch floor + 1e-6, ceiling] keeps
    # off the fold r0^2 = 2 - p, near which (up to about 2e-7 above it) the
    # first rung's Newton solve stalls.  Below the mass bound the matched
    # radius lies inside it: mass_bound is at most 0.62 times the mass
    # 2pi c0 of the ball at the window floor, for p from 0.01 to 100
    floor = max(constants.r_half, math.sqrt(2.0 - p)) if p < 2.0 else constants.r_half
    r0 = constant_field_radius(level, p, floor, R_STAR_CEILING) if r_star is None else r_star
    if not floor + 1e-6 < r0 <= R_STAR_CEILING:
        raise ValueError(
            f"r_star = {r0:g} lies outside the window of constant starts "
            f"({floor:.6g} + 1e-6, {R_STAR_CEILING:g}] for p = {p:g}")
    c0 = constant_field_density(r0, p)
    start = SupportField(np.full(n, r0))
    spent = 0  # Newton steps of a failed direct solve
    try:
        field, steps = _walk((0.0, 1.0), start, c0, f, p, newton_tol)
    except RoundingFloorError:
        raise  # the floor does not depend on t: the ladder would stall too
    except SolverStallError as exc:
        spent = exc.newton_iters
        field, steps = _walk((0.0, *T_LADDER), start, c0, f, p, newton_tol)

    density = smooth_lp_density(field, p)
    return SolveReport(
        body=field,
        multiplier=float(density @ f / (f @ f)),
        volume_residual=steps[-1].gauss_volume - 0.5,
        stationarity_residual=float(np.max(np.abs(density - f))),
        iterations=spent + sum(step.newton_iters for step in steps),
        homotopy_trace=tuple(steps),
        flags=tuple(flags),
        objective_trace=(),
    )
