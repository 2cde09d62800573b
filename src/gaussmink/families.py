"""Deterministic generators for test bodies, measures, and densities.

Every generator is a pure function of its seed (via numpy Generator), so
suite runs and CLI outputs are reproducible.  The named families back the
command-line `generate` subcommand; the random generators feed the
randomized verifier sweeps.
"""

from __future__ import annotations

import numpy as np

from .errors import UnboundedBodyError
from .gaussian import lp_surface_measure, scale_to_gauss_volume
from .geometry import (
    TWO_PI,
    DiscreteMeasure,
    SupportPolygon,
    box_polygon,
    wulff_shape,
)

def random_polygon(rng: np.random.Generator, max_edges: int = 24) -> SupportPolygon:
    """Bounded polygon of 4 to max_edges random unit normals, h in [0.6, 1.8]."""
    for _ in range(80):
        m = int(rng.integers(4, max_edges + 1))
        theta = rng.uniform(0.0, TWO_PI, m)
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        support = rng.uniform(0.6, 1.8, m)
        try:
            return wulff_shape(normals, support)
        except UnboundedBodyError:
            continue
    raise RuntimeError("random polygon generation kept hitting halfplane draws")


def random_even_polygon(rng: np.random.Generator) -> SupportPolygon:
    """Origin-symmetric polygon: 2 to 12 antipodal normal pairs share supports."""
    k = int(rng.integers(2, 13))
    theta = rng.uniform(0.0, np.pi, k)
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    support = rng.uniform(0.6, 1.8, k)
    return wulff_shape(np.vstack([normals, -normals]),
                       np.concatenate([support, support]))


def elongated_hexagon(cap: float) -> SupportPolygon:
    """Origin-symmetric hexagon stretching toward the strip |x| <= 1.

    Two vertical edges at distance 1 plus four caps at slope 0.2 meeting
    the axis near `cap`; growing `cap` lets the hexagon approach the strip.
    """
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    c, s = np.cos(0.2), np.sin(0.2)
    normals = np.array([
        [1.0, 0.0], [-1.0, 0.0],
        [c, s], [-c, s], [c, -s], [-c, -s],
    ])
    slanted = c + cap * s
    support = np.array([1.0, 1.0, slanted, slanted, slanted, slanted])
    return wulff_shape(normals, support)


def random_even_measure(rng: np.random.Generator) -> DiscreteMeasure:
    k = int(rng.integers(2, 11))
    theta = rng.uniform(0.0, np.pi, k)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    masses = rng.uniform(0.02, 0.2, k)
    return DiscreteMeasure(2, np.vstack([dirs, -dirs]),
                           np.concatenate([masses, masses]))


def random_spanning_measure(rng: np.random.Generator, min_atoms: int = 4,
                            max_atoms: int = 16) -> DiscreteMeasure:
    """Measure whose support spans the circle (hemisphere condition holds)."""
    for _ in range(80):
        k = int(rng.integers(min_atoms, max_atoms + 1))
        theta = rng.uniform(0.0, TWO_PI, k)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        masses = rng.uniform(0.02, 0.3, k)
        try:
            wulff_shape(dirs, np.ones(k))
        except UnboundedBodyError:
            continue
        return DiscreteMeasure(2, dirs, masses)
    raise RuntimeError("random measure generation kept hitting halfplane draws")


def uniform_mgon_measure(m: int, total: float) -> DiscreteMeasure:
    """Equal masses on the m-th roots of unity."""
    if m < 3:
        raise ValueError("need at least three directions")
    if total <= 0.0:
        raise ValueError("total mass must be positive")
    theta = TWO_PI * np.arange(m) / m
    return DiscreteMeasure(2, np.column_stack([np.cos(theta), np.sin(theta)]),
                           np.full(m, total / m))


def square_surface_measure() -> DiscreteMeasure:
    """Gaussian surface area measure (p = 1) of the half-volume axis square."""
    return lp_surface_measure(scale_to_gauss_volume(box_polygon(1.0)), 1.0)


def cos_density(resolution: int = 256, level: float = 0.045,
                amplitude: float = 0.2, frequency: int = 2) -> np.ndarray:
    """Even trigonometric density level * (1 + amplitude cos(frequency theta))."""
    if not -1.0 < amplitude < 1.0:
        raise ValueError("amplitude must keep the density positive")
    if frequency < 1:
        raise ValueError("frequency must be a positive integer")
    theta = TWO_PI * np.arange(resolution) / resolution
    return level * (1.0 + amplitude * np.cos(frequency * theta))


def hemisphere_bad_measure(seed: int = 0) -> DiscreteMeasure:
    """Five atoms squeezed into an open halfplane; fails the hemisphere condition."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-1.2, 1.2, 5)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return DiscreteMeasure(2, dirs, rng.uniform(0.05, 0.3, 5))

