"""Planar convex bodies through their support functions.

A body K containing the origin in its interior is stored as the Wulff shape
(halfplane intersection) of a finite family of outer normals and support
values,

    K = intersection over i of { x : x . nu_i <= h_i },

reduced so that every retained halfplane contributes an edge of positive
length.  Normals are unit vectors sorted by angle; vertices are derived as
intersections of consecutive edge lines.  The polar dual swaps the roles of
vertices and scaled normals (rho_K = 1 / h_{K*}), which keeps both directions
of the duality exact at the level of floating point line intersections.

Radial queries use the star-shaped decomposition about the origin: the ray at
angle alpha hits the unique edge whose vertex-angle sector contains alpha, so
lookups are a binary search over vertex angles rather than a scan over edges.

Also here: direction grids (quadrature nodes on the sphere), discrete measures
on the circle/sphere with the closed-hemisphere spanning test, and periodic
support-function samples on the circle with their difference stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvexityError, UnboundedBodyError

TWO_PI = 2.0 * math.pi

# Tolerances for the canonical polygon form.
_UNIT_TOL = 1e-12          # deviation of stored unit vectors from norm 1
_ANGLE_DEDUP_TOL = 1e-12   # normals closer than this in angle are duplicates
_COLLINEAR_TOL = 1e-10     # relative cross-product threshold for redundancy


def _as_unit_rows(vectors, tol: float = 1e-9) -> np.ndarray:
    """Validate an (m, d) array of unit rows; returns a float copy."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    norms = np.linalg.norm(v, axis=1)
    if np.any(np.abs(norms - 1.0) > tol):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(f"row {worst} is not a unit vector (norm {norms[worst]:.12g})")
    return v / norms[:, None]


def _angles_of(vectors: np.ndarray) -> np.ndarray:
    """Angles in [0, 2pi) of the rows of an (m, 2) array."""
    return np.mod(np.arctan2(vectors[:, 1], vectors[:, 0]), TWO_PI)


def unit_vector(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


@dataclass(frozen=True)
class DirectionGrid:
    """Quadrature nodes and weights on the unit sphere S^(n-1).

    For n = 2 the nodes are the N equally spaced angles 2*pi*k/N and every
    weight is 2*pi/N.  For n >= 3 the nodes are a deterministic quasi-uniform
    point set with equal weights summing to the sphere's surface area.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _as_unit_rows(self.nodes, tol=_UNIT_TOL)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape[1] != self.dimension:
            raise ValueError("node dimension mismatch")
        if weights.shape != (nodes.shape[0],):
            raise ValueError("one weight per node required")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def resolution(self) -> int:
        return self.nodes.shape[0]


def sphere_surface_area(n: int) -> float:
    """Surface area of S^(n-1): 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def make_direction_grid(n: int, resolution: int, seed: int = 0) -> DirectionGrid:
    """Build a direction grid on S^(n-1).

    n = 2 uses the uniform angular partition.  n = 3 uses the Fibonacci
    lattice; n >= 4 uses seeded normalized Gaussian draws.  Both carry equal
    weights so the weights sum to the exact surface area.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if resolution < 4:
        raise ValueError(f"resolution {resolution} too small (need at least 4)")
    if n == 2:
        theta = TWO_PI * np.arange(resolution) / resolution
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(resolution, TWO_PI / resolution)
        return DirectionGrid(2, nodes, weights)
    area = sphere_surface_area(n)
    if n == 3:
        # Fibonacci lattice: quasi-uniform and deterministic.
        k = np.arange(resolution)
        z = 1.0 - (2.0 * k + 1.0) / resolution
        phi = math.pi * (3.0 - math.sqrt(5.0)) * k
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        nodes = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, n, resolution)))
        raw = rng.standard_normal((resolution, n))
        nodes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    weights = np.full(resolution, area / resolution)
    return DirectionGrid(n, nodes, weights)


def _intersect_lines(nu_a, h_a, nu_b, h_b) -> np.ndarray:
    """Intersection of x . nu_a = h_a and x . nu_b = h_b (arrays broadcast)."""
    det = nu_a[..., 0] * nu_b[..., 1] - nu_a[..., 1] * nu_b[..., 0]
    x = (h_a * nu_b[..., 1] - h_b * nu_a[..., 1]) / det
    y = (h_b * nu_a[..., 0] - h_a * nu_b[..., 0]) / det
    return np.stack([x, y], axis=-1)


@dataclass(frozen=True)
class SupportPolygon:
    """Planar convex body with the origin interior, in canonical edge form.

    normals[i] is the outward unit normal of edge i, sorted by angle starting
    from the smallest; support[i] > 0 is the distance of the edge line from
    the origin; vertices[i] is the corner shared by edges i and i+1 (cyclic).
    Construct through :func:`wulff_shape`, which removes redundant halfplanes.
    """

    normals: np.ndarray
    support: np.ndarray
    vertices: np.ndarray
    # Lookup tables for radial queries, derived in __post_init__.
    _vertex_angles: np.ndarray = field(repr=False, default=None)
    _sector_edges: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        normals = _as_unit_rows(self.normals, tol=_UNIT_TOL)
        support = np.asarray(self.support, dtype=float)
        vertices = np.asarray(self.vertices, dtype=float)
        m = normals.shape[0]
        if m < 3:
            raise ValueError("a polygon needs at least 3 edges")
        if support.shape != (m,) or vertices.shape != (m, 2):
            raise ValueError("inconsistent array lengths")
        if np.any(support <= 0.0):
            raise ValueError("support values must be positive (origin interior)")
        ang = _angles_of(normals)
        if np.any(np.diff(ang) <= 0.0):
            raise ValueError("normals must be strictly sorted by angle")
        # Vertex i must sit on the lines of edges i and i+1.
        scale = support.max()
        on_i = np.abs(np.einsum("ij,ij->i", vertices, normals) - support)
        on_next = np.abs(
            np.einsum("ij,ij->i", vertices, np.roll(normals, -1, axis=0))
            - np.roll(support, -1)
        )
        if max(on_i.max(), on_next.max()) > 1e-9 * max(scale, 1.0):
            raise ValueError("vertices do not lie on their edge lines")
        for arr in (normals, support, vertices):
            arr.setflags(write=False)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "vertices", vertices)
        # Sector table: the ray at angle alpha hits edge j when alpha lies
        # between the angles of vertices j-1 and j.  Vertex angles increase
        # cyclically; rotate so the table is sorted.
        beta = _angles_of(vertices)
        k0 = int(np.argmin(beta))
        sorted_beta = np.roll(beta, -k0)
        # Sector i ends at the vertex of original index (k0 + i) mod m, and
        # rays in it hit the edge with that same index (edge j spans the
        # sector between vertices j-1 and j).
        edge_of_sector = np.roll(np.arange(m), -k0)
        object.__setattr__(self, "_vertex_angles", sorted_beta)
        object.__setattr__(self, "_sector_edges", edge_of_sector)

    @property
    def num_edges(self) -> int:
        return self.normals.shape[0]

    @property
    def normal_angles(self) -> np.ndarray:
        return _angles_of(self.normals)

    def edge_index(self, angles) -> np.ndarray:
        """Index of the edge hit by rays at the given angles (radians)."""
        alpha = np.mod(np.asarray(angles, dtype=float), TWO_PI)
        pos = np.searchsorted(self._vertex_angles, alpha, side="left")
        pos = np.where(pos == self.num_edges, 0, pos)
        return self._sector_edges[pos]

    def radial(self, angles) -> np.ndarray:
        """Radial function at the given ray angles (vectorized)."""
        alpha = np.asarray(angles, dtype=float)
        e = self.edge_index(alpha)
        nu = self.normals[e]
        denom = nu[..., 0] * np.cos(alpha) + nu[..., 1] * np.sin(alpha)
        return self.support[e] / denom


def _left_turns(ux, uy, vx, vy):
    """Edge u turns left into edge v beyond the collinearity tolerance."""
    return ux * vy - uy * vx > _COLLINEAR_TOL * (np.hypot(ux, uy) * np.hypot(vx, vy))


def _reduce_halfplanes(normals: np.ndarray, support: np.ndarray):
    """Canonical Wulff reduction: (kept, normals, support, vertices).

    kept holds the caller's indices of the surviving constraints by angle.
    Redundancy removal is the convex hull of the polar points nu_i / h_i,
    sorted by angle about the origin.  All points but the anchor (the
    farthest, on the hull) get the left-turn test at once; then the first
    failing point is dropped and its neighbours retested until none fails.
    A Graham scan from the anchor drops that point first too, so points near
    collinear are decided exactly as the scan decides them.
    """
    normals = _as_unit_rows(normals)
    support = np.asarray(support, dtype=float)
    if support.shape != (normals.shape[0],):
        raise ValueError("one support value per normal required")
    if np.any(support <= 0.0):
        raise ValueError("support values must be positive (empty interior otherwise)")
    if normals.shape[0] < 3:
        raise ValueError("need at least 3 normals")

    ang = _angles_of(normals)
    order = np.lexsort((support, ang))  # angle asc, then support asc
    ang_s, sup_s = ang[order], support[order]
    # Duplicate normals: keep the binding (smallest support) constraint,
    # which the lexsort puts first; ties keep the earlier original index.
    keep_first = np.ones(len(order), dtype=bool)
    keep_first[1:] = np.diff(ang_s) > _ANGLE_DEDUP_TOL
    idx = order[keep_first]
    ang_d, sup_d, nor_d = ang[idx], support[idx], normals[idx]
    if len(idx) < 3:
        raise ValueError("need at least 3 distinct normals")

    gaps = np.diff(np.append(ang_d, ang_d[0] + TWO_PI))
    if gaps.max() >= math.pi - 1e-12:
        raise UnboundedBodyError(
            "normals are contained in a closed halfplane; the intersection is unbounded"
        )

    q = nor_d / sup_d[:, None]
    m = len(q)
    rot = (np.arange(m) + int(np.argmax(np.einsum("ij,ij->i", q, q)))) % m
    pts = q[rot]
    u = pts - pts[np.arange(-1, m - 1)]  # u[j] = p_j - p_{j-1}
    ok = _left_turns(*u.T, *u[np.arange(1, m + 1) % m].T).tolist()
    ok[0] = True
    x, y = pts.T.tolist()
    prev, succ = [m - 1, *range(m - 1)], [*range(1, m), 0]
    kept_local, alive = np.ones(m, dtype=bool), m
    todo = [j for j in range(m - 1, 0, -1) if not ok[j]]  # first failure on top
    while todo and alive >= 3:  # the scan stops closing the hull at 2 points
        j = todo.pop()
        if ok[j]:
            continue  # dropped already, or passes since its neighbours changed
        ok[j], kept_local[j], alive = True, False, alive - 1
        a, c = prev[j], succ[j]
        succ[a], prev[c] = c, a
        for k in filter(None, (c, a)):  # new failures precede older ones
            b, e = prev[k], succ[k]
            ok[k] = bool(_left_turns(x[k] - x[b], y[k] - y[b], x[e] - x[k], y[e] - y[k]))
            if not ok[k]:
                todo.append(k)

    kept = idx[np.sort(rot[kept_local])]  # original indices, ascending angle
    nu_k = normals[kept]
    h_k = support[kept]
    vertices = _intersect_lines(nu_k, h_k, np.roll(nu_k, -1, axis=0), np.roll(h_k, -1))
    return kept, nu_k, h_k, vertices


def wulff_shape(normals, support) -> SupportPolygon:
    """Halfplane intersection of {x . nu_i <= h_i} in canonical reduced form.

    Redundant constraints (those whose edge would have zero length, up to the
    collinearity tolerance 1e-10) are removed; the support function of the
    result equals the input exactly on retained normals and is <= the input
    on removed ones.

    Raises UnboundedBodyError when the normals lie in a closed halfplane and
    ValueError for nonpositive support values or fewer than 3 normals.
    """
    _, nu_k, h_k, vertices = _reduce_halfplanes(normals, support)
    return SupportPolygon(nu_k, h_k, vertices)


def wulff_shape_with_indices(normals, support):
    """Like :func:`wulff_shape` but also returns the retained input indices."""
    kept, nu_k, h_k, vertices = _reduce_halfplanes(normals, support)
    return SupportPolygon(nu_k, h_k, vertices), kept


def support_eval(body: SupportPolygon, v) -> float:
    """Support function h_K(v) = max over vertices x of v . x, for unit v."""
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    return float(np.max(body.vertices @ v))


def support_profile(body: SupportPolygon, directions) -> np.ndarray:
    """Support function on an (R, 2) array of unit directions (vectorized)."""
    d = _as_unit_rows(directions)
    return np.max(d @ body.vertices.T, axis=1)


def radial_eval(body: SupportPolygon, u) -> float:
    """Radial function rho_K(u): distance to the boundary along unit u.

    The hit edge realizes rho(u) * (u . nu) = h(nu).
    """
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    return float(body.radial(math.atan2(u[1], u[0])))


def polar_body(body: SupportPolygon) -> SupportPolygon:
    """Polar dual K* = {y : x . y <= 1 for all x in K}.

    Vertices of K map to edges of K* (normal x/|x| at distance 1/|x|) and
    edges of K map to vertices nu/h, so polar(polar(K)) reproduces K exactly
    up to the line intersections.
    """
    vnorm = np.linalg.norm(body.vertices, axis=1)
    normals = body.vertices / vnorm[:, None]
    support = 1.0 / vnorm
    vertices = np.roll(body.normals / body.support[:, None], -1, axis=0)
    # Canonical rotation: start at the smallest normal angle.
    ang = _angles_of(normals)
    shift = int(np.argmin(ang))
    roll = lambda a: np.roll(a, -shift, axis=0)
    return SupportPolygon(roll(normals), roll(support), roll(vertices))


def scale_body(body: SupportPolygon, s: float) -> SupportPolygon:
    """Dilate by s > 0 about the origin."""
    if s <= 0.0:
        raise ValueError("scale factor must be positive")
    return SupportPolygon(body.normals, s * body.support, s * body.vertices)


def disc_polygon(radius: float, m: int = 512) -> SupportPolygon:
    """Regular m-gon circumscribing the disc of the given radius (h = radius
    on m uniform normals); the standard polygonal stand-in for a ball."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    theta = TWO_PI * np.arange(m) / m
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    return wulff_shape(normals, np.full(m, float(radius)))


def box_polygon(half_x: float, half_y: float | None = None) -> SupportPolygon:
    """Axis-aligned rectangle [-half_x, half_x] x [-half_y, half_y]."""
    if half_y is None:
        half_y = half_x
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return wulff_shape(normals, np.array([half_x, half_y, half_x, half_y], dtype=float))


def lp_combination(hK, hL, a: float, b: float, p: float) -> np.ndarray:
    """Pointwise L_p combination of two positive support samples.

    Returns (a hK^p + b hL^p)^(1/p) for p != 0 and hK^a hL^b for p = 0.
    For 0 < p < 1 the result need not be a support function; pass it through
    :func:`wulff_shape` before treating it as a body.
    """
    hK = np.asarray(hK, dtype=float)
    hL = np.asarray(hL, dtype=float)
    if hK.shape != hL.shape:
        raise ValueError("support samples must share a grid")
    if np.any(hK <= 0.0) or np.any(hL <= 0.0):
        raise ValueError("support samples must be positive")
    if a < 0.0 or b < 0.0 or (a == 0.0 and b == 0.0):
        raise ValueError("weights must be nonnegative and not both zero")
    if p == 0.0:
        return hK**a * hL**b
    return (a * hK**p + b * hL**p) ** (1.0 / p)


def combine_bodies(K: SupportPolygon, L: SupportPolygon, a: float, b: float,
                   p: float, refine: int = 0) -> SupportPolygon:
    """Wulff shape of the L_p combination of two bodies.

    Supports are evaluated exactly on the union of the two normal sets
    (optionally refined with `refine` extra uniform directions, useful for
    p != 1 where the true combination is not a polytope) and combined
    pointwise.  For p = 1 this is the exact Minkowski combination aK + bL.
    """
    dirs = [K.normals, L.normals]
    if refine:
        theta = TWO_PI * np.arange(refine) / refine
        dirs.append(np.column_stack([np.cos(theta), np.sin(theta)]))
    directions = np.vstack(dirs)
    hK = support_profile(K, directions)
    hL = support_profile(L, directions)
    return wulff_shape(directions, lp_combination(hK, hL, a, b, p))


def hausdorff_distance(hK, hL) -> float:
    """Sup-norm distance between two support samples on a shared grid."""
    hK = np.asarray(hK, dtype=float)
    hL = np.asarray(hL, dtype=float)
    if hK.shape != hL.shape:
        raise ValueError("support samples must share a grid")
    return float(np.max(np.abs(hK - hL)))


def body_hausdorff_distance(K: SupportPolygon, L: SupportPolygon,
                            resolution: int = 2048) -> float:
    """Hausdorff distance max_v |h_K(v) - h_L(v)| over a dense direction grid
    joined with both bodies' own normals."""
    theta = TWO_PI * np.arange(resolution) / resolution
    dirs = np.vstack([
        np.column_stack([np.cos(theta), np.sin(theta)]),
        K.normals, L.normals,
    ])
    return float(np.max(np.abs(support_profile(K, dirs) - support_profile(L, dirs))))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite positive measure on the sphere given by (direction, mass) atoms."""

    dimension: int
    directions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        directions = _as_unit_rows(self.directions, tol=1e-9)
        masses = np.asarray(self.masses, dtype=float)
        if directions.shape[1] != self.dimension:
            raise ValueError("direction dimension mismatch")
        if masses.shape != (directions.shape[0],):
            raise ValueError("one mass per direction required")
        if np.any(masses <= 0.0) or not np.all(np.isfinite(masses)):
            raise ValueError("masses must be positive and finite")
        if self.dimension == 2:
            ang = np.sort(_angles_of(directions))
            gaps = np.diff(np.append(ang, ang[0] + TWO_PI))
            if len(ang) > 1 and gaps.min() <= _ANGLE_DEDUP_TOL:
                raise ValueError("atom directions must be distinct")
        else:
            srt = directions[np.lexsort(directions.T)]
            if len(srt) > 1 and np.min(np.max(np.abs(np.diff(srt, axis=0)), axis=1)) <= 1e-12:
                raise ValueError("atom directions must be distinct")
        directions.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "masses", masses)

    @property
    def num_atoms(self) -> int:
        return self.masses.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def is_even(self, tol: float = 1e-9) -> bool:
        """True when atoms come in antipodal pairs of equal mass."""
        d, m = self.directions, self.masses
        if self.dimension == 2:
            # The atom nearest to -d_i is one of the two whose angles bracket
            # the antipodal angle, so a sort finds it in O(k log k).
            ang = _angles_of(d)
            order = np.argsort(ang)
            pos = np.searchsorted(ang[order], np.mod(ang + math.pi, TWO_PI))
            cand = order[np.stack([pos - 1, pos % len(d)])]
            dist = np.linalg.norm(d[None, :, :] + d[cand], axis=2)
            pick = np.argmin(dist, axis=0)
            partner, gap = cand[pick, np.arange(len(d))], dist.min(axis=0)
        else:
            dist = np.linalg.norm(d[:, None, :] + d[None, :, :], axis=2)
            partner = np.argmin(dist, axis=1)
            gap = dist[np.arange(len(d)), partner]
        if np.any(gap > tol):
            return False
        return bool(np.all(np.abs(m - m[partner]) <= tol * np.maximum(m, m[partner])))


def hemisphere_margin(mu: DiscreteMeasure, resolution: int = 4096) -> float:
    """min over test directions e of sum_i m_i (e . v_i)_+ .

    A positive margin certifies that the measure is not concentrated on any
    closed hemisphere.  In the plane, e -> sum m_i (e . v_i)_+ is a
    nonnegative sinusoid, hence concave, between consecutive breakpoints (the
    directions perpendicular to atoms), so its minimum lies at one of the 2k
    breakpoints.  There the open half circle of atoms with e . v_i > 0 is a
    cyclic window of the angle-sorted atoms, summed from prefix sums, and the
    planar margin is exact in O(k log k) time and O(k) memory.  For n >= 3
    the value is a minimum over `resolution` grid directions.
    """
    if mu.dimension != 2:
        grid = make_direction_grid(mu.dimension, resolution)
        return float(np.min(np.clip(grid.nodes @ mu.directions.T, 0.0, None) @ mu.masses))
    ang = _angles_of(mu.directions)
    order = np.argsort(ang)
    ang = ang[order]
    weighted = mu.masses[order, None] * mu.directions[order]
    prefix = np.vstack([np.zeros((1, 2)), np.cumsum(np.vstack([weighted, weighted]), axis=0)])
    # The window of e = (-sin s, cos s) is the open half circle (s, s + pi)
    # of atom angles; breakpoints have s at an atom or at its antipode.
    s = np.concatenate([ang, np.mod(ang + math.pi, TWO_PI)])
    doubled = np.concatenate([ang, ang + TWO_PI])
    inside = (prefix[np.searchsorted(doubled, s + math.pi, side="left")]
              - prefix[np.searchsorted(doubled, s, side="right")])
    return float(np.min(inside[:, 1] * np.cos(s) - inside[:, 0] * np.sin(s)))


def check_hemisphere_condition(mu: DiscreteMeasure, epsilon: float = 1e-8,
                               resolution: int = 4096) -> bool:
    """True iff the hemisphere margin exceeds epsilon (solver precondition)."""
    return hemisphere_margin(mu, resolution) > epsilon


@dataclass(frozen=True)
class SupportField:
    """Periodic sample of a support function h on the circle.

    h[k] is the value at theta_k = 2 pi k / N.  The discrete convexity
    surrogate (D2 h + h) with the periodic central second difference must be
    positive at every node; construction fails otherwise.
    """

    resolution: int
    h: np.ndarray
    p_exponent: float = 1.0

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.shape != (self.resolution,):
            raise ValueError("h must have length equal to the resolution")
        if np.any(h <= 0.0) or not np.all(np.isfinite(h)):
            raise ValueError("support values must be positive and finite")
        conv = periodic_second_difference(h, self.step) + h
        if np.any(conv <= 0.0):
            node = int(np.argmin(conv))
            raise ConvexityError(node, float(conv[node]))
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @property
    def step(self) -> float:
        return TWO_PI / self.resolution

    @property
    def theta(self) -> np.ndarray:
        return TWO_PI * np.arange(self.resolution) / self.resolution

    def first_difference(self) -> np.ndarray:
        return periodic_first_difference(self.h, self.step)

    def second_difference(self) -> np.ndarray:
        return periodic_second_difference(self.h, self.step)

    def min_convexity(self) -> float:
        return float(np.min(self.second_difference() + self.h))


def periodic_first_difference(h: np.ndarray, step: float) -> np.ndarray:
    """Central difference (h_{k+1} - h_{k-1}) / (2 step) with wraparound."""
    return (np.roll(h, -1) - np.roll(h, 1)) / (2.0 * step)


def periodic_second_difference(h: np.ndarray, step: float) -> np.ndarray:
    """Central difference (h_{k+1} - 2 h_k + h_{k-1}) / step^2 with wraparound."""
    return (np.roll(h, -1) - 2.0 * h + np.roll(h, 1)) / (step * step)


def field_to_polygon(fld: SupportField) -> SupportPolygon:
    """Wulff shape of the sampled support values on the field's normal grid."""
    theta = fld.theta
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    return wulff_shape(normals, fld.h)
