"""Gaussian volume and (L_p-)Gaussian surface area of planar convex bodies.

The standard Gaussian measure has density e^{-|x|^2/2} / (2 pi)^{n/2}.  Its
volume on a star-shaped body is computed in polar coordinates,

    gamma_n(K) = (surface quadrature) of F(rho_K(u)) / (2 pi)^{n/2},
    F(s) = integral_0^s e^{-r^2/2} r^(n-1) dr,

with F expressed through the regularized lower incomplete gamma function.
For n = 2, F(s) = 1 - e^{-s^2/2} and the quadrature is the periodic
trapezoid rule on uniform angles.  For a polygon the polar integral has a
closed form instead: the sector of angles seen by one edge at distance h
has mass (width)/2pi minus a difference of two values of Owen's T function
T(h, a) (Owen 1956), evaluated by scipy.special.owens_t (the Patefield-Tandy
algorithm).  This exact route is accurate to about 1e-15 relative; for tiny
bodies the per-sector cancellation leaves an absolute error near 1e-17.  An
independent Monte Carlo route (the fraction of standard normal draws landing
inside the body) cross-checks both and is the only volume route offered for
dimension >= 3.

The surface area measure of a polygon concentrates on its edge normals; the
mass of an edge at distance h from the origin is the exact one-dimensional
integral e^{-h^2/2} (Phi(t1) - Phi(t0)) / sqrt(2 pi) over the edge's signed
tangential extent [t0, t1] about the foot of the perpendicular.  The L_p
variant reweights each edge by h^(1-p), since x . nu is constant on a facet.
For smooth bodies given by a periodic support sample, the corresponding
density w.r.t. arc measure is (1/2pi) h^(1-p) e^{-(h'^2+h^2)/2} (h'' + h)
with periodic central differences.

Phi is evaluated through the complementary error function; Psi = Phi^{-1} is
a safeguarded Newton iteration on Phi itself, so the pair is consistent to
machine precision by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import (
    TWO_PI,
    DirectionGrid,
    DiscreteMeasure,
    SupportField,
    SupportPolygon,
    _as_unit_rows,
)

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Ball's dimensional bound on total Gaussian surface area: 4 n^(1/4).
def ball_surface_bound(n: int = 2) -> float:
    return 4.0 * n**0.25


def std_normal_cdf(x):
    """Phi(x) = (1/sqrt(2 pi)) integral_{-inf}^x e^{-t^2/2} dt.

    Evaluated as erfc(-x/sqrt(2))/2, accurate to well under 1e-12 absolute
    over the whole real line.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(-x / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / SQRT_TWO_PI
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(q):
    """Psi(q) = Phi^{-1}(q) for q in (0,1), by safeguarded Newton on Phi.

    Newton steps x <- x - (Phi(x) - q)/phi(x) are clipped to a shrinking
    bisection bracket, so the iteration cannot escape and the bisection
    fallback guarantees convergence; termination leaves |Phi(x) - q| at
    rounding level (far below the 1e-12 contract).
    """
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr <= 0.0) or np.any(q_arr >= 1.0):
        raise ValueError("quantile argument must lie strictly between 0 and 1")
    lo = np.full(q_arr.shape, -40.0)
    hi = np.full(q_arr.shape, 40.0)
    x = np.zeros(q_arr.shape)
    for _ in range(120):
        f = std_normal_cdf(x) - q_arr
        f = np.asarray(f)
        lo = np.where(f < 0.0, x, lo)
        hi = np.where(f > 0.0, x, hi)
        step = f / np.maximum(std_normal_pdf(x), 1e-300)
        xn = x - step
        outside = (xn <= lo) | (xn >= hi) | ~np.isfinite(xn)
        xn = np.where(outside, 0.5 * (lo + hi), xn)
        if np.all(np.abs(xn - x) <= 1e-16 * (1.0 + np.abs(x))):
            x = xn
            break
        x = xn
    return float(x) if q_arr.ndim == 0 else x


def radial_volume_kernel(s, n: int):
    """F(s) = integral_0^s e^{-r^2/2} r^(n-1) dr.

    Equals 2^(n/2-1) Gamma(n/2) P(n/2, s^2/2) with P the regularized lower
    incomplete gamma function; for n = 2 this is 1 - e^{-s^2/2}.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("radius must be nonnegative")
    half = 0.5 * n
    out = 2.0 ** (half - 1.0) * math.gamma(half) * special.gammainc(half, 0.5 * s * s)
    return float(out) if out.ndim == 0 else out


def ball_gauss_volume(r, n: int = 2):
    """gamma_n(r B) = P(n/2, r^2/2); for n = 2 equals 1 - e^{-r^2/2}."""
    r = np.asarray(r, dtype=float)
    out = special.gammainc(0.5 * n, 0.5 * r * r)
    return float(out) if out.ndim == 0 else out


def gauss_volume(body: SupportPolygon, resolution: int = 4096) -> float:
    """Gaussian volume of a planar body by periodic trapezoid quadrature.

    gamma_2(K) = (1/2pi) integral (1 - e^{-rho(theta)^2/2}) dtheta, sampled
    on `resolution` uniform angles.  Error is O(resolution^-2); when the
    polygon's normal fan is aligned with the angle grid (as disc stand-ins
    built at matching resolution are) the sampled radii are exact and the
    error drops to rounding level for balls.
    """
    if resolution < 256:
        raise ValueError("resolution must be at least 256")
    theta = TWO_PI * np.arange(resolution) / resolution
    rho = body.radial(theta)
    return float(np.mean(-np.expm1(-0.5 * rho * rho)))


def gauss_volume_exact(body: SupportPolygon) -> float:
    """Gaussian volume of a polygon as a sum of closed-form sector masses.

    The rays at angles phi_j + [lo_j, hi_j] hit edge j at radius h_j / cos,
    and x = tan(angle) turns the polar integral over that sector into
    (hi_j - lo_j)/2pi - (T(h_j, tan hi_j) - T(h_j, tan lo_j)), with Owen's T
    function from scipy.special.owens_t.  Accurate to about 1e-15 relative;
    on tiny bodies the two terms nearly cancel, leaving an absolute error
    near 1e-17.  The derivative in a support coordinate is exactly the edge's
    Gaussian mass, so this volume and the edge-mass gradient are consistent
    for optimization; :func:`gauss_volume` agrees to its O(resolution^-2).
    """
    phi = body.normal_angles
    beta = np.arctan2(body.vertices[:, 1], body.vertices[:, 0])
    hi = np.mod(beta - phi + math.pi, TWO_PI) - math.pi            # in (-pi/2, pi/2)
    lo = np.mod(np.roll(beta, 1) - phi + math.pi, TWO_PI) - math.pi
    owen = special.owens_t(body.support, np.tan([hi, lo]))
    return float(np.sum((hi - lo) / TWO_PI - (owen[0] - owen[1])))


def scale_to_gauss_volume(body: SupportPolygon, target: float = 0.5) -> SupportPolygon:
    """Scalar rescale of a body so its Gaussian volume hits `target`.

    The map s -> gamma(s K) is strictly increasing from 0 to 1, so a
    bracketed root-find on the scale factor always succeeds.
    """
    from scipy.optimize import brentq

    from .geometry import scale_body

    if not 0.0 < target < 1.0:
        raise ValueError("target volume must lie strictly between 0 and 1")
    lo, hi = 1.0, 1.0
    while gauss_volume_exact(scale_body(body, lo)) > target:
        lo *= 0.5
        if lo < 1e-12:
            raise ValueError("rescale bracket collapsed at the lower end")
    while gauss_volume_exact(scale_body(body, hi)) < target:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("rescale bracket collapsed at the upper end")
    s = brentq(lambda u: gauss_volume_exact(scale_body(body, u)) - target,
               lo, hi, xtol=1e-15, rtol=8.9e-16)
    return scale_body(body, s)


def _inside_polygon(body: SupportPolygon, points: np.ndarray) -> np.ndarray:
    """Boolean inside-test via the hit-edge constraint x . nu_e <= h_e."""
    theta = np.arctan2(points[:, 1], points[:, 0])
    e = body.edge_index(theta)
    dots = np.einsum("ij,ij->i", points, body.normals[e])
    return dots <= body.support[e]


def gauss_volume_mc(body: SupportPolygon, samples: int, seed: int,
                    shards: int = 1) -> tuple[float, float]:
    """Monte Carlo Gaussian volume: fraction of normal draws inside the body.

    Sampling is split into `shards` streams with seeds derived from `seed`
    via SeedSequence.spawn, each consumed in fixed-size chunks, so results
    are bit-identical for a fixed (seed, samples, shards) triple regardless
    of scheduling.  Returns (estimate, binomial standard error).
    """
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    if shards < 1:
        raise ValueError("shard count must be positive")
    children = np.random.SeedSequence(seed).spawn(shards)
    base, extra = divmod(samples, shards)
    hits = 0
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        remaining = base + (1 if i < extra else 0)
        while remaining > 0:
            chunk = min(remaining, 262_144)
            pts = rng.standard_normal((chunk, 2))
            hits += int(np.count_nonzero(_inside_polygon(body, pts)))
            remaining -= chunk
    phat = hits / samples
    stderr = math.sqrt(phat * (1.0 - phat) / samples)
    return phat, stderr


def gauss_volume_mc_grid(grid: DirectionGrid, support, samples: int, seed: int,
                         shards: int = 1) -> tuple[float, float]:
    """Monte Carlo Gaussian volume of {x : x . v_i <= h_i} for a support-grid
    body in any dimension (the only volume route offered for n >= 3)."""
    h = np.asarray(support, dtype=float)
    if h.shape != (grid.resolution,):
        raise ValueError("one support value per grid node required")
    if np.any(h <= 0.0):
        raise ValueError("support values must be positive")
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    children = np.random.SeedSequence(seed).spawn(max(shards, 1))
    base, extra = divmod(samples, max(shards, 1))
    nodes_t = grid.nodes.T
    hits = 0
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        remaining = base + (1 if i < extra else 0)
        while remaining > 0:
            chunk = min(remaining, 65_536)
            pts = rng.standard_normal((chunk, grid.dimension))
            inside = np.all(pts @ nodes_t <= h[None, :], axis=1)
            hits += int(np.count_nonzero(inside))
            remaining -= chunk
    phat = hits / samples
    stderr = math.sqrt(phat * (1.0 - phat) / samples)
    return phat, stderr


@dataclass(frozen=True)
class EdgeMeasure:
    """Surface area measure of a polygon: one (normal, mass) pair per edge.

    Masses are nonnegative (zero marks an edge the measure does not see).
    For p = 1 the total cannot exceed Ball's bound 4 n^(1/4); construction
    enforces this with a 1e-9 slack.
    """

    normals: np.ndarray
    masses: np.ndarray
    p_exponent: float

    def __post_init__(self):
        normals = _as_unit_rows(self.normals, tol=1e-9)
        masses = np.asarray(self.masses, dtype=float)
        if masses.shape != (normals.shape[0],):
            raise ValueError("one mass per edge normal required")
        if np.any(masses < 0.0) or not np.all(np.isfinite(masses)):
            raise ValueError("edge masses must be nonnegative and finite")
        if self.p_exponent == 1.0 and masses.sum() > ball_surface_bound(2) + 1e-9:
            raise ValueError(
                f"total Gaussian surface area {masses.sum():.9g} exceeds the "
                f"dimensional bound {ball_surface_bound(2):.9g}"
            )
        normals.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "masses", masses)

    @property
    def num_edges(self) -> int:
        return self.masses.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def as_discrete(self, drop_below: float = 0.0) -> DiscreteMeasure:
        """Atoms at the edge normals, dropping masses <= drop_below."""
        keep = self.masses > drop_below
        if not np.any(keep):
            raise ValueError("measure has no positive atoms")
        return DiscreteMeasure(2, self.normals[keep], self.masses[keep])


def _edge_tangential_extents(body: SupportPolygon) -> tuple[np.ndarray, np.ndarray]:
    """Signed tangential coordinates (t0, t1) of every edge's endpoints about
    the foot of the perpendicular from the origin; t0 < t1 in CCW order."""
    tau = np.column_stack([-body.normals[:, 1], body.normals[:, 0]])
    start = np.roll(body.vertices, 1, axis=0)  # edge i runs V_{i-1} -> V_i
    t0 = np.einsum("ij,ij->i", start, tau)
    t1 = np.einsum("ij,ij->i", body.vertices, tau)
    return t0, t1


def gauss_surface_polygon(body: SupportPolygon) -> EdgeMeasure:
    """Gaussian surface area measure of a polygon (p = 1).

    Each edge contributes the exact one-dimensional Gaussian integral
    e^{-h^2/2} (Phi(t1) - Phi(t0)) / sqrt(2 pi) at its outer normal.
    """
    t0, t1 = _edge_tangential_extents(body)
    masses = (
        np.exp(-0.5 * body.support**2)
        * (std_normal_cdf(t1) - std_normal_cdf(t0))
        / SQRT_TWO_PI
    )
    return EdgeMeasure(body.normals, masses, 1.0)


def lp_gauss_surface_polygon(body: SupportPolygon, p: float) -> EdgeMeasure:
    """L_p-Gaussian surface area measure of a polygon.

    x . nu equals the support value h on a facet, so the p-measure is the
    p = 1 measure reweighted edgewise by h^(1-p), exactly.
    """
    if np.any(body.support <= 0.0):
        raise ValueError("support values must be positive")
    base = gauss_surface_polygon(body)
    return EdgeMeasure(body.normals, body.support ** (1.0 - p) * base.masses, float(p))


def smooth_lp_density(field: SupportField, p: float) -> np.ndarray:
    """Density of the L_p-Gaussian surface area measure w.r.t. arc length.

    g_k = (1/2pi) h_k^(1-p) e^{-((Dh)_k^2 + h_k^2)/2} ((D^2 h)_k + h_k) with
    periodic central differences.  Field construction has already verified
    the convexity surrogate (D^2 h + h) > 0, so the density is positive.
    """
    return _lp_density_values(field.h, field.step, p)


def _lp_density_values(h: np.ndarray, step: float, p: float) -> np.ndarray:
    """Density formula on raw samples; no convexity validation (solver use)."""
    d = (np.roll(h, -1) - np.roll(h, 1)) / (2.0 * step)
    s = (np.roll(h, -1) - 2.0 * h + np.roll(h, 1)) / (step * step)
    return h ** (1.0 - p) * np.exp(-0.5 * (d * d + h * h)) * (s + h) / TWO_PI


def constant_field_density(r: float, p: float) -> float:
    """Density of a centred ball of radius r: (1/2pi) r^(2-p) e^{-r^2/2}."""
    return r ** (2.0 - p) * math.exp(-0.5 * r * r) / TWO_PI


def field_gauss_volume(field: SupportField) -> float:
    """Gaussian volume of the body with smooth support sample h.

    Polar coordinates through the boundary parametrization x(theta) =
    h nu + h' tau give |x|^2 = h^2 + h'^2 and the radial-angle Jacobian
    d alpha / d theta = h (h + h'') / (h^2 + h'^2), so

        gamma_2 = (1/2pi) int (1 - e^{-(h^2+h'^2)/2}) h (h+h'') / (h^2+h'^2) dtheta,

    evaluated with the periodic trapezoid rule (spectrally accurate for
    smooth h).
    """
    h = field.h
    d = field.first_difference()
    s = field.second_difference()
    r2 = h * h + d * d
    jac = h * (s + h) / r2
    return float(np.mean(-np.expm1(-0.5 * r2) * jac))


@dataclass(frozen=True)
class GaussConstants:
    """Reference constants for dimension n and exponent p.

    r_half is the radius with gamma_n(r B) = 1/2; a_half the half-width with
    gamma_n of the symmetric strip equal to 1/2 (dimension-free, = Psi(3/4));
    mass_bound = sqrt(2/pi) r_half^(-p) a_half e^{-a_half^2/2} is the
    solvability threshold for the total measure.
    """

    n: int
    p: float
    r_half: float
    a_half: float
    mass_bound: float

    def __post_init__(self):
        if self.r_half <= 0.0 or self.a_half <= 0.0 or self.mass_bound <= 0.0:
            raise ValueError("constants must be positive")
        composed = (
            math.sqrt(2.0 / math.pi)
            * self.r_half ** (-self.p)
            * self.a_half
            * math.exp(-0.5 * self.a_half**2)
        )
        if abs(composed - self.mass_bound) > 1e-12 * composed:
            raise ValueError("mass_bound inconsistent with its parts")


def gauss_constants(n: int, p: float) -> GaussConstants:
    """Compute (r_half, a_half, mass_bound) for dimension n, exponent p.

    r_half solves gamma_n(r B) = 1/2 (for n = 2 this is sqrt(2 ln 2));
    a_half = Psi(3/4) since the strip volume is 2 Phi(a) - 1.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    from scipy.optimize import brentq

    r_half = float(brentq(lambda r: ball_gauss_volume(r, n) - 0.5, 1e-6, 40.0,
                          xtol=1e-14, rtol=8.9e-16))
    a_half = float(std_normal_quantile(0.75))
    mass_bound = (
        math.sqrt(2.0 / math.pi) * r_half ** (-p) * a_half * math.exp(-0.5 * a_half**2)
    )
    return GaussConstants(n, float(p), r_half, a_half, mass_bound)
