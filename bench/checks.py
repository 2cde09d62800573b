"""Output checks computed apart from the program's forward maps.

Nothing here calls gaussmink: every check reads the arrays of a returned
body (or field) and recomputes what it needs with numpy and scipy alone.
Each check raises CheckFailed naming the property that broke.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, optimize, special

TWO_PI = 2.0 * math.pi
# gamma_2(r B) = 1 - exp(-r^2 / 2) in the plane, so the half-volume radius is:
R_HALF = math.sqrt(2.0 * math.log(2.0))


class CheckFailed(AssertionError):
    """An output of the program broke a property the benchmark checks."""


def _wrap(angle):
    """Angle difference mapped into [-pi, pi)."""
    return np.mod(angle + math.pi, TWO_PI) - math.pi


# -- polygons ---------------------------------------------------------------

def polygon_gauss_volume(normals, support, vertices) -> float:
    """Gaussian volume of a polygon by adaptive quadrature per edge sector.

    Edge j spans the polar angles between vertices j-1 and j; on that sector
    the radial function is h_j / cos(alpha - phi_j).
    """
    phi = np.arctan2(normals[:, 1], normals[:, 0])
    beta = np.arctan2(vertices[:, 1], vertices[:, 0])
    lo = _wrap(np.roll(beta, 1) - phi)
    hi = _wrap(beta - phi)
    total = 0.0
    for h, a, b in zip(support, lo, hi):
        val, _ = integrate.quad(
            lambda u, h=h: -math.expm1(-0.5 * (h / math.cos(u)) ** 2),
            a, b, epsabs=1e-15, epsrel=1e-13, limit=200)
        total += val
    return total / TWO_PI


def polygon_edge_masses(normals, support, vertices) -> np.ndarray:
    """Gaussian edge masses e^{-h^2/2} (Phi(t1) - Phi(t0)) / sqrt(2 pi)."""
    tau = np.column_stack([-normals[:, 1], normals[:, 0]])
    t0 = np.einsum("ij,ij->i", np.roll(vertices, 1, axis=0), tau)
    t1 = np.einsum("ij,ij->i", vertices, tau)
    return (np.exp(-0.5 * support**2) * (special.ndtr(t1) - special.ndtr(t0))
            / math.sqrt(TWO_PI))


def _facet_atoms(normals, directions) -> np.ndarray:
    """Atom index of each facet normal; every facet must sit on an atom."""
    cos = normals @ directions.T
    idx = np.argmax(cos, axis=1)
    if np.any(cos[np.arange(len(idx)), idx] < 1.0 - 1e-12):
        raise CheckFailed("a facet normal is not an atom direction")
    return idx


def check_discrete_solution(body, directions, masses, p: float,
                            volume_tol: float, stationarity_tol: float) -> None:
    """Volume 1/2, stationarity p m_i = lambda S_{p,i}, and phi below the ball."""
    normals = np.asarray(body.normals, dtype=float)
    support = np.asarray(body.support, dtype=float)
    vertices = np.asarray(body.vertices, dtype=float)
    directions = np.asarray(directions, dtype=float)
    masses = np.asarray(masses, dtype=float)

    gamma = polygon_gauss_volume(normals, support, vertices)
    if not abs(gamma - 0.5) <= volume_tol:
        raise CheckFailed(f"Gaussian volume {gamma:.15g} is not within "
                          f"{volume_tol:g} of 1/2")

    atom = _facet_atoms(normals, directions)
    s = support ** (1.0 - p) * polygon_edge_masses(normals, support, vertices)
    target = p * masses[atom]
    lam = float(target @ s / (s @ s))
    if not lam > 0.0:
        raise CheckFailed(f"multiplier {lam:g} is not positive")
    defect = float(np.max(np.abs(target - lam * s) / target))
    if not defect <= stationarity_tol:
        raise CheckFailed(f"stationarity defect {defect:.3g} exceeds "
                          f"{stationarity_tol:g}")

    h_atoms = np.max(directions @ vertices.T, axis=1)
    phi_body = float(masses @ h_atoms**p)
    phi_ball = R_HALF**p * float(masses.sum())
    if not phi_body <= phi_ball * (1.0 + 1e-12):
        raise CheckFailed(f"objective {phi_body:.12g} does not beat the "
                          f"half-volume ball {phi_ball:.12g}")


def regular_polygon_half_support(k: int) -> float:
    """Support number of the regular k-gon of Gaussian volume 1/2."""
    half = math.pi / k

    def volume(s):
        val, _ = integrate.quad(
            lambda u: -math.expm1(-0.5 * (s / math.cos(u)) ** 2),
            -half, half, epsabs=1e-15, epsrel=1e-13)
        return k * val / TWO_PI - 0.5

    return optimize.brentq(volume, 0.5 * R_HALF, R_HALF, xtol=1e-15,
                           rtol=4 * np.finfo(float).eps)


def check_regular_polygon(body, k: int, reference: float, rtol: float = 1e-6) -> None:
    """o-symmetric uniqueness: the solution is the regular k-gon itself."""
    if body.normals.shape[0] != k:
        raise CheckFailed(f"{body.normals.shape[0]} facets kept, expected {k}")
    err = float(np.max(np.abs(np.asarray(body.support) - reference))) / reference
    if not err <= rtol:
        raise CheckFailed(f"support deviates from the regular {k}-gon's "
                          f"{reference:.12g} by {err:.3g} relative")


# -- periodic support fields ------------------------------------------------

def field_density(h, p: float) -> np.ndarray:
    """(1/2pi) h^(1-p) e^{-(h'^2+h^2)/2} (h''+h) with central differences."""
    n = h.size
    step = TWO_PI / n
    up, down = np.roll(h, -1), np.roll(h, 1)
    d1 = (up - down) / (2.0 * step)
    d2 = (up - 2.0 * h + down) / step**2
    return h ** (1.0 - p) * np.exp(-0.5 * (d1 * d1 + h * h)) * (d2 + h) / TWO_PI


def field_gauss_volume(h) -> float:
    """Gaussian volume of the body whose support samples are h.

    Boundary points x = h nu + h' tau use a spectral derivative; the polar
    integral (1/2pi) int (1 - e^{-|x|^2/2}) d alpha runs over their polar
    angles with the trapezoid rule.
    """
    n = h.size
    theta = TWO_PI * np.arange(n) / n
    k = np.fft.rfftfreq(n, 1.0 / n)
    dh = np.fft.irfft(1j * k * np.fft.rfft(h), n)
    x = h * np.cos(theta) - dh * np.sin(theta)
    y = h * np.sin(theta) + dh * np.cos(theta)
    alpha = np.unwrap(np.arctan2(y, x))
    dalpha = np.diff(np.append(alpha, alpha[0] + TWO_PI))
    g = -np.expm1(-0.5 * (x * x + y * y))
    return float(np.sum(0.5 * (g + np.roll(g, -1)) * dalpha) / TWO_PI)


def constant_density_radius(c: float, p: float) -> float:
    """Largest r with (1/2pi) r^(2-p) e^{-r^2/2} = c (the volume > 1/2 branch)."""
    def gap(r):
        return r ** (2.0 - p) * math.exp(-0.5 * r * r) / TWO_PI - c

    lo = math.sqrt(2.0 - p) if p < 2.0 else R_HALF
    lo = max(lo, R_HALF)
    return optimize.brentq(gap, lo, 40.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def check_field_solution(h, f, p: float, residual_tol: float = 1e-9) -> None:
    """Equation residual, and Gaussian volume above 1/2."""
    defect = float(np.max(np.abs(field_density(h, p) - f)))
    if not defect <= residual_tol:
        raise CheckFailed(f"equation residual {defect:.3g} exceeds {residual_tol:g}")
    gamma = field_gauss_volume(h)
    if not gamma > 0.5:
        raise CheckFailed(f"Gaussian volume {gamma:.12g} is not above 1/2")


def check_constant_field(h, c: float, p: float, tol: float = 1e-8) -> None:
    r = constant_density_radius(c, p)
    err = float(np.max(np.abs(h - r)))
    if not err <= tol:
        raise CheckFailed(f"constant solution deviates from the radius "
                          f"{r:.15g} by {err:.3g}")


def check_field_symmetry(h, frequency: int, tol: float = 1e-10) -> None:
    """The density's symmetries: theta -> -theta and period 2 pi / q."""
    n = h.size
    scale = float(np.max(np.abs(h)))
    mirror = float(np.max(np.abs(h - np.roll(h[::-1], 1))))
    shift = float(np.max(np.abs(h - np.roll(h, n // frequency))))
    if not max(mirror, shift) <= tol * scale:
        raise CheckFailed(f"symmetry broken: reflection {mirror:.3g}, "
                          f"shift by 2pi/{frequency} {shift:.3g}")


def check_refinement(h_coarse, h_fine) -> None:
    """Solutions at N and 2N agree within 8 / N^2 on the shared nodes."""
    n = h_coarse.size
    if h_fine.size != 2 * n:
        raise CheckFailed("refinement pair is not N and 2N")
    gap = float(np.max(np.abs(h_coarse - h_fine[::2])))
    if not gap <= 8.0 / n**2:
        raise CheckFailed(f"N = {n} and 2N solutions differ by {gap:.3g} "
                          f"> 8/N^2 = {8.0 / n**2:.3g}")


def check_serialized_field(text: str, h) -> None:
    """The JSON the CLI would write holds h to nine significant digits."""
    data = json.loads(text)
    values = np.asarray(data["values"], dtype=float)
    if data["resolution"] != h.size or values.shape != h.shape:
        raise CheckFailed("serialized field has the wrong resolution")
    if not np.all(np.abs(values - h) <= 1e-8 * np.abs(h)):
        raise CheckFailed("serialized field does not round-trip to 9 digits")


# -- inequality suite -------------------------------------------------------

def check_suite_rows(rows, table: str) -> None:
    """Every row passes with its worst violation at or below its tolerance."""
    for r in rows:
        if not (r.passed and r.worst_violation <= r.tolerance_used):
            raise CheckFailed(f"suite row {r.name} failed: worst violation "
                              f"{r.worst_violation:.6g} > {r.tolerance_used:.6g}")
    lines = table.splitlines()
    if len(lines) != len(rows) + 1 or any(" NO " in ln for ln in lines):
        raise CheckFailed("formatted table does not list every row as passed")
