"""Gaussian volume and (L_p-)Gaussian surface area of planar convex bodies.

The standard Gaussian measure on the plane has density e^{-|x|^2/2} / 2pi.
Its volume on a star-shaped body is computed in polar coordinates,

    gamma_2(K) = (1/2pi) integral (1 - e^{-rho_K(theta)^2/2}) dtheta,

by the periodic trapezoid rule on uniform angles.  For a polygon the polar
integral has a closed form instead: the sector of angles seen by one edge at
distance h has mass (width)/2pi minus a difference of two values of Owen's T
function T(h, a) (Owen 1956), evaluated by scipy.special.owens_t (the
Patefield-Tandy algorithm).  This exact route is accurate to about 1e-15
relative; for tiny bodies the per-sector cancellation leaves an absolute error
near 1e-17.  An independent Monte Carlo route (the fraction of standard normal
draws landing inside the body) cross-checks both.

Only the reference constants keep a dimension n (gauss_constants(n, p),
GaussConstants.n, and ball_radius, which inverts gamma_n(r B) =
P(n/2, r^2/2), the regularized lower incomplete gamma function); the
bodies, measures and forward maps are planar.

The surface area measure of a polygon concentrates on its edge normals; the
mass of an edge at distance h from the origin is the exact one-dimensional
integral e^{-h^2/2} (Phi(t1) - Phi(t0)) / sqrt(2 pi) over the edge's signed
tangential extent [t0, t1] about the foot of the perpendicular.  The L_p
variant reweights each edge by h^(1-p), since x . nu is constant on a facet.
Both forward maps return the masses as an array aligned with body.normals;
lp_surface_measure turns them into a DiscreteMeasure, one atom per edge of
positive mass.  For smooth bodies given by a periodic support sample, the
density w.r.t. arc measure is (1/2pi) h^(1-p) e^{-(h'^2+h^2)/2} (h'' + h),
with h' and h'' + h the periodic central differences that SupportField
computes on construction (its slope and curvature).

Phi is evaluated through the complementary error function and Psi = Phi^{-1}
by scipy's ndtri; the pair is consistent to about 5e-13 relative, from the
centre down to the far tail q = 1e-300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import (
    TWO_PI,
    DiscreteMeasure,
    SupportField,
    SupportPolygon,
    scale_body,
)

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Ball's dimensional bound 4 n^(1/4) on total Gaussian surface area, at n = 2.
BALL_SURFACE_BOUND = 4.0 * 2.0**0.25


def std_normal_cdf(x):
    """Phi(x) = (1/sqrt(2 pi)) integral_{-inf}^x e^{-t^2/2} dt.

    Evaluated as erfc(-x/sqrt(2))/2, accurate to well under 1e-12 absolute
    over the whole real line.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(-x / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(q):
    """Psi(q) = Phi^{-1}(q) for q in (0,1), by scipy's ndtri.

    Phi(Psi(q)) matches q to about 5e-13 relative, from q = 1e-300 up.
    """
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr <= 0.0) or np.any(q_arr >= 1.0):
        raise ValueError("quantile argument must lie strictly between 0 and 1")
    x = special.ndtri(q_arr)
    return float(x) if q_arr.ndim == 0 else x


def ball_radius(v: float, n: int = 2) -> float:
    """Radius r with gamma_n(r B) = v, in closed form sqrt(2 P^-1(n/2, v))."""
    return math.sqrt(2.0 * special.gammaincinv(0.5 * n, v))


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

    Edge j, at distance h_j, runs from t0_j to t1_j along its tangent, so the
    rays hitting it make angles with tangent x in [t0_j/h_j, t1_j/h_j] with
    its normal, and x turns the polar integral over that sector into
    (arctan x1 - arctan x0)/2pi - (T(h_j, x1) - T(h_j, x0)), with Owen's T
    function from scipy.special.owens_t.  Accurate to about 1e-15 relative;
    on tiny bodies the two terms nearly cancel, leaving an absolute error
    near 1e-17.  The derivative in a support coordinate is exactly the edge's
    Gaussian mass, so this volume and the edge-mass gradient are consistent
    for optimization; :func:`gauss_volume` agrees to its O(resolution^-2).
    """
    return _dilate_volume(body)(1.0)


def _dilate_volume(body: SupportPolygon):
    """The map s -> gamma_2(s K).  A dilation keeps each sector end's tangent
    t/h, so the tangents and sector widths are computed once, from K."""
    tangents = np.stack([body.t1, body.t0]) / body.support
    widths = np.subtract(*np.arctan(tangents)) / TWO_PI

    def volume(s: float) -> float:
        owen = special.owens_t(s * body.support, tangents)
        return float(np.sum(widths - (owen[0] - owen[1])))
    return volume


def scale_to_gauss_volume(body: SupportPolygon, target: float = 0.5) -> SupportPolygon:
    """Scalar rescale of a body so its Gaussian volume hits `target`.

    In x = s^2 the volume gamma(sqrt(x) K) = (1/2pi) int (1 - e^{-x rho^2/2})
    dtheta is increasing and concave, as each integrand is.  So every tangent
    lies above the graph, and Newton's method on x, started below the root,
    never passes it: it climbs monotonically and stops once a step no longer
    increases x.  The start halves s from 1 until the volume is at most the
    target.  The slope is d gamma / dx = sum_i h_i g_i(sK) / 2s, with
    g_i(sK) the edge masses of the dilated body.  A dilation preserves every
    angle, so the iteration evaluates only the scaled supports s h and builds
    one body, at the root.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target volume must lie strictly between 0 and 1")
    volume = _dilate_volume(body)
    h, ends = body.support, np.stack([body.t1, body.t0])
    x, gamma = 1.0, volume(1.0)
    while gamma > target:
        x *= 0.25
        if x < 1e-24:
            raise ValueError("rescale bracket collapsed at the lower end")
        gamma = volume(math.sqrt(x))
    while True:
        s = math.sqrt(x)
        cdf = special.ndtr(s * ends)  # Phi at the edge ends of sK
        masses = np.exp(-0.5 * x * h * h) * (cdf[0] - cdf[1]) / SQRT_TWO_PI
        x_next = x + 2.0 * s * (target - gamma) / float(h @ masses)
        if not x_next > x:
            return scale_body(body, s)
        x = x_next
        if x > 1e24:
            raise ValueError("rescale bracket collapsed at the upper end")
        gamma = volume(math.sqrt(x))


def _inside_polygon(body: SupportPolygon, points: np.ndarray) -> np.ndarray:
    """Boolean inside-test via the hit-edge constraint x . nu_e <= h_e."""
    theta = np.arctan2(points[:, 1], points[:, 0])
    e = body.edge_index(theta)
    dots = np.einsum("ij,ij->i", points, body.normals[e])
    return dots <= body.support[e]


def gauss_volume_mc(body: SupportPolygon, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo Gaussian volume: fraction of normal draws inside the body.

    Draws come from the first child of SeedSequence(seed), consumed in
    fixed-size chunks, so results are bit-identical for a fixed (seed,
    samples) pair.  Returns (estimate, binomial standard error).
    """
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    hits, remaining = 0, samples
    while remaining > 0:
        chunk = min(remaining, 262_144)
        pts = rng.standard_normal((chunk, 2))
        hits += int(np.count_nonzero(_inside_polygon(body, pts)))
        remaining -= chunk
    phat = hits / samples
    stderr = math.sqrt(phat * (1.0 - phat) / samples)
    return phat, stderr


def gauss_surface_polygon(body: SupportPolygon) -> np.ndarray:
    """Gaussian surface area measure of a polygon (p = 1), one mass per edge.

    Edge i, from V_{i-1} to V_i, has its ends at the body's signed tangential
    coordinates t0 < t1 about the foot of the perpendicular from the origin.
    Its mass, also d gamma_2 / d h_i, is e^{-h^2/2} (Phi(t1) - Phi(t0)) / sqrt(2 pi).
    """
    return (np.exp(-0.5 * body.support**2)
            * (std_normal_cdf(body.t1) - std_normal_cdf(body.t0)) / SQRT_TWO_PI)


def lp_gauss_surface_polygon(body: SupportPolygon, p: float) -> np.ndarray:
    """L_p-Gaussian surface area measure of a polygon, one mass per edge.

    x . nu equals the support value h on a facet, so the p-measure is the
    p = 1 measure reweighted edgewise by h^(1-p), exactly.
    """
    return body.support ** (1.0 - p) * gauss_surface_polygon(body)


def lp_surface_measure(body: SupportPolygon, p: float) -> DiscreteMeasure:
    """The L_p measure as atoms at the edge normals, leaving out zero masses.

    A mass is zero when it underflows (an edge far from the origin); raises
    ValueError when no edge keeps a positive mass.
    """
    masses = lp_gauss_surface_polygon(body, p)
    keep = masses > 0.0
    if not np.any(keep):
        raise ValueError("measure has no positive atoms")
    return DiscreteMeasure(2, body.normals[keep], masses[keep])


def smooth_lp_density(field: SupportField, p: float) -> np.ndarray:
    """Density of the L_p-Gaussian surface area measure w.r.t. arc length.

    g_k = (1/2pi) h_k^(1-p) e^{-((Dh)_k^2 + h_k^2)/2} ((D^2 h)_k + h_k) with
    the field's slope Dh and curvature D^2 h + h.  Field construction has
    already verified that the curvature is positive, so the density is too.
    """
    h, d = field.h, field.slope
    return h ** (1.0 - p) * np.exp(-0.5 * (d * d + h * h)) * field.curvature / TWO_PI


def constant_field_density(r: float, p: float) -> float:
    """Density of a centred ball of radius r: (1/2pi) r^(2-p) e^{-r^2/2}."""
    return r ** (2.0 - p) * math.exp(-0.5 * r * r) / TWO_PI


def constant_field_radius(c: float, p: float, lo: float, hi: float) -> float:
    """Radius r in [lo, hi] with constant_field_density(r, p) = c.

    [lo, hi] must lie on the branch r^2 >= 2 - p, where the density
    decreases in r; c above the density at lo gives lo, below it at hi gives
    hi.  Newton's method on g(r) = (2-p) ln r - r^2/2 - ln(2pi c), which
    decreases with g'(r) = (2-p)/r - r, keeps a bracket of the root and
    bisects it whenever a step would leave it.
    """
    target = math.log(TWO_PI * c)

    def g(r: float) -> float:
        return (2.0 - p) * math.log(r) - 0.5 * r * r - target

    if g(hi) >= 0.0:
        return hi
    if g(lo) <= 0.0:
        return lo
    r = 0.5 * (lo + hi)
    while lo < r < hi:  # ends when the step vanishes or the bracket closes
        value = g(r)
        if value > 0.0:
            lo = r
        else:
            hi = r
        nxt = r - value / ((2.0 - p) / r - r)
        if nxt == r:
            break
        r = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    return r


def field_gauss_volume(field: SupportField) -> float:
    """Gaussian volume of the body with smooth support sample h.

    Polar coordinates through the boundary parametrization x(theta) =
    h nu + h' tau give |x|^2 = h^2 + h'^2 and the radial-angle Jacobian
    d alpha / d theta = h (h + h'') / (h^2 + h'^2), so

        gamma_2 = (1/2pi) int (1 - e^{-(h^2+h'^2)/2}) h (h+h'') / (h^2+h'^2) dtheta,

    evaluated with the periodic trapezoid rule (spectrally accurate for
    smooth h).
    """
    h, d = field.h, field.slope
    r2 = h * h + d * d
    jac = h * field.curvature / r2
    return float(np.mean(-np.expm1(-0.5 * r2) * jac))


@dataclass(frozen=True)
class GaussConstants:
    """Reference constants for dimension n and exponent p.

    r_half is the radius with gamma_n(r B) = 1/2; a_half the half-width with
    gamma_n of the symmetric strip equal to 1/2 (dimension-free, = Psi(3/4));
    mass_bound = sqrt(2/pi) r_half^(-p) a_half e^{-a_half^2/2} is the
    solvability threshold for the total measure.  Only r_half and a_half
    are validated: for p above about 4 550 (n = 2) r_half^(-p) underflows
    and mass_bound rounds to 0.0, which no positive total mass is below;
    below about p = -4 346 it overflows, and mass_bound raises ValueError.
    """

    n: int
    p: float
    r_half: float
    a_half: float

    def __post_init__(self):
        if not (self.r_half > 0.0 and self.a_half > 0.0 and math.isfinite(self.p)):
            raise ValueError("constants must be positive, and p finite")

    @property
    def mass_bound(self) -> float:
        try:
            return (math.sqrt(2.0 / math.pi) * self.r_half ** (-self.p)
                    * self.a_half * math.exp(-0.5 * self.a_half**2))
        except OverflowError:  # r_half^(-p)
            raise ValueError(f"mass_bound overflows at p = {self.p:g}") from None


def gauss_constants(n: int, p: float) -> GaussConstants:
    """Compute (r_half, a_half, mass_bound) for dimension n, exponent p.

    r_half solves gamma_n(r B) = 1/2 (for n = 2 this is sqrt(2 ln 2));
    a_half = Psi(3/4) since the strip volume is 2 Phi(a) - 1.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    r_half = ball_radius(0.5, n)
    a_half = float(std_normal_quantile(0.75))
    return GaussConstants(n, float(p), r_half, a_half)
