"""Planar convex bodies through their support functions.

A body K containing the origin in its interior is stored as the Wulff shape
(halfplane intersection) of a finite family of outer normals and support
values,

    K = intersection over i of { x : x . nu_i <= h_i },

reduced so that every retained halfplane contributes an edge of positive
length.  Normals are unit vectors sorted by angle; construction derives the
edge ends in each edge's tangent frame, and the vertices from them.

Radial queries use the star-shaped decomposition about the origin: the ray at
angle alpha hits the unique edge whose vertex-angle sector contains alpha, so
lookups are a binary search over vertex angles rather than a scan over edges.

Also here: discrete measures on the circle with the closed-half-circle
spanning test, and periodic support-function samples on the circle, which
hold the one copy of the central-difference stencil.  These records hold
arrays, whose elementwise == has no truth value, so they compare and hash
by identity (eq=False).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvexityError, UnboundedBodyError

TWO_PI = 2.0 * math.pi

# Tolerances for the canonical polygon form.
_UNIT_TOL = 1e-12          # deviation of stored unit vectors from norm 1
_ANGLE_DEDUP_TOL = 1e-12   # normals closer than this in angle are duplicates
_COLLINEAR_TOL = 1e-10     # relative cross-product threshold for redundancy
_LP_REFINE = 256           # uniform normals added to an L_p (p != 1) combination


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=1) of (m, 2) rows, without its per-call overhead."""
    x, y = v[:, 0], v[:, 1]
    return np.sqrt(x * x + y * y)


def _as_unit_rows(vectors, tol: float = 1e-9) -> np.ndarray:
    """Validate a nonempty (m, 2) array of finite unit rows, or one row; returns a copy."""
    v = np.asarray(vectors, dtype=float)
    if v.shape[-1:] != (2,) or v.ndim > 2 or not v.size:
        raise ValueError(f"directions must be a nonempty (m, 2) array, got shape {v.shape}")
    v = np.atleast_2d(v)
    norms = _row_norms(v)
    off = np.abs(norms - 1.0)
    if not (off <= tol).all():  # a NaN norm fails this test too
        worst = int(np.argmax(np.nan_to_num(off, nan=np.inf)))
        raise ValueError(f"row {worst} is not a unit vector (norm {norms[worst]:.12g})")
    return v / norms[:, None]


def _angles_of(vectors: np.ndarray) -> np.ndarray:
    """Angles in [0, 2pi) of the rows of an (m, 2) array."""
    return np.mod(np.arctan2(vectors[:, 1], vectors[:, 0]), TWO_PI)


def _check_support(support: np.ndarray, m: int) -> None:
    """One positive, finite support value per normal."""
    if support.shape != (m,):
        raise ValueError("inconsistent array lengths")
    if not 0.0 < support.min() <= support.max() < math.inf:  # NaN fails too
        if not np.all(np.isfinite(support)):
            raise ValueError("support values must be finite")
        raise ValueError("support values must be positive (origin interior)")


def _nearest_angle(sorted_angles: np.ndarray, angles: np.ndarray):
    """(index, gap): for each angle, the position in sorted_angles of the
    nearest one and the angular distance to it.  The nearest is one of the
    two sorted angles that bracket the angle, cyclically."""
    pos = np.searchsorted(sorted_angles, angles)
    cand = np.stack([pos - 1, pos % len(sorted_angles)])
    gap = np.abs(angles - sorted_angles[cand])
    gap = np.minimum(gap, TWO_PI - gap)
    pick, cols = np.argmin(gap, axis=0), np.arange(len(angles))
    return cand[pick, cols], gap[pick, cols]


def _rotate(a: np.ndarray, k: int) -> np.ndarray:
    """np.roll(a, -k, axis=0) for k = 1 or -1, without its overhead on short arrays."""
    return np.concatenate([a[k:], a[:k]])


def _freeze(obj, **arrays: np.ndarray) -> None:
    """Set read-only arrays as fields of a frozen dataclass instance."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class SupportPolygon:
    """Planar convex body with the origin interior, in canonical edge form.

    normals[i] is the outward unit normal of edge i, sorted by angle starting
    from the smallest; support[i] > 0 is the distance of the edge line from
    the origin.  Construct through :func:`wulff_shape`, which removes
    redundant halfplanes; one left in (an edge with t1 <= t0) raises
    ValueError.  Construction derives the edge frame once, read-only
    like the inputs.  With c, s = turn_cos[i], turn_sin[i] = nu_i . nu_{i+1},
    nu_i x nu_{i+1}, bend[i] = s/(1 + c) and tau_i the normal turned a
    quarter left,

        t1[i]       = (h_{i+1} - h_i)/s + h_i bend[i],
        t0[i+1]     = (h_{i+1} - h_i)/s - h_{i+1} bend[i],
        vertices[i] = h_i nu_i + t1[i] tau_i:

    edge i runs from t0[i] to t1[i] along tau_i, measured from its foot
    h_i nu_i, and vertices[i] is the corner of edges i and i+1 (cyclic).
    Unlike (h_{i+1} - h_i c)/s, this form keeps its precision for close
    normals; past a quarter turn, bend = tan(turn/2) is taken as (1 - c)/s.

    The frame splits in two.  turn_cos, turn_sin and bend depend on the
    normals alone (consecutive normals a half turn or more apart raise
    UnboundedBodyError); t0, t1 and vertices depend on the support too.
    The constructor validates everything.  :meth:`with_support` keeps the
    normals and their part of the frame and checks only the new support;
    :func:`wulff_shape` skips the checks its reduction guarantees (unit,
    strictly sorted normals and positive support).
    """

    normals: np.ndarray
    support: np.ndarray
    turn_cos: np.ndarray = field(init=False, repr=False)
    turn_sin: np.ndarray = field(init=False, repr=False)
    bend: np.ndarray = field(init=False, repr=False)
    t0: np.ndarray = field(init=False, repr=False)
    t1: np.ndarray = field(init=False, repr=False)
    vertices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        normals = _as_unit_rows(self.normals, tol=_UNIT_TOL)
        support = np.array(self.support, dtype=float)
        m = normals.shape[0]
        if m < 3:
            raise ValueError("a polygon needs at least 3 edges")
        _check_support(support, m)
        if np.any(np.diff(_angles_of(normals)) <= 0.0):
            raise ValueError("normals must be strictly sorted by angle")
        self._derive_frame(normals)
        self._derive_edges(support)

    def with_support(self, support) -> SupportPolygon:
        """The body with these normals and new support values; the normals'
        part of the frame is reused.  Raises ValueError for a support of the
        wrong shape or not positive, and when an edge vanishes."""
        support = np.array(support, dtype=float)
        _check_support(support, self.num_edges)
        body = object.__new__(SupportPolygon)
        _freeze(body, normals=self.normals, turn_cos=self.turn_cos,
                turn_sin=self.turn_sin, bend=self.bend)
        body._derive_edges(support)
        return body

    def _derive_frame(self, normals: np.ndarray) -> None:
        """The part of the frame that depends on the normals alone."""
        (x, y), (nx, ny) = normals.T, _rotate(normals, 1).T
        c, s = x * nx + y * ny, x * ny - y * nx
        if (s <= 0.0).any():
            raise UnboundedBodyError("consecutive normals must be less than pi apart")
        near = c > 0.0  # tan(turn / 2), in the form that does not cancel
        bend = np.where(near, s, 1.0 - c) / np.where(near, 1.0 + c, s)
        _freeze(self, normals=normals, turn_cos=c, turn_sin=s, bend=bend)

    def _derive_edges(self, support: np.ndarray) -> None:
        """The part of the frame that depends on the support: t0, t1, vertices."""
        h_next, bend = _rotate(support, 1), self.bend
        rise = (h_next - support) / self.turn_sin
        t1, t0 = rise + support * bend, _rotate(rise - h_next * bend, -1)
        if (t1 <= t0).any():
            raise ValueError("redundant halfplane (edge of nonpositive length); "
                             "reduce the halfplanes with wulff_shape")
        x, y = self.normals[:, 0], self.normals[:, 1]
        vertices = np.empty_like(self.normals)
        np.subtract(support * x, t1 * y, out=vertices[:, 0])
        np.add(support * y, t1 * x, out=vertices[:, 1])
        _freeze(self, support=support, t0=t0, t1=t1, vertices=vertices)

    @cached_property
    def _sector_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex angles sorted from the smallest, and the edge each sector's rays
        hit: edge j spans the sector between vertices j-1 and j (built lazily)."""
        beta = _angles_of(self.vertices)
        k0 = int(np.argmin(beta))
        edges = (np.arange(self.num_edges) + k0) % self.num_edges
        return beta[edges], edges

    @property
    def num_edges(self) -> int:
        return self.normals.shape[0]

    @property
    def normal_angles(self) -> np.ndarray:
        return _angles_of(self.normals)

    def edge_index(self, angles) -> np.ndarray:
        """Index of the edge hit by rays at the given angles (radians)."""
        alpha = np.mod(np.asarray(angles, dtype=float), TWO_PI)
        vertex_angles, sector_edges = self._sector_table
        pos = np.searchsorted(vertex_angles, alpha, side="left")
        pos = np.where(pos == self.num_edges, 0, pos)
        return sector_edges[pos]

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
    """Canonical Wulff reduction: (kept, normals, support).

    kept holds the caller's indices of the surviving constraints by angle.
    Redundancy removal is the convex hull of the polar points nu_i / h_i,
    sorted by angle about the origin.  All points but the anchor (the
    farthest, on the hull) get the left-turn test at once; then the first
    failing point after the anchor is dropped and its neighbours retested
    until none fails.  A Graham scan from the anchor drops that point first
    too, so points near collinear are decided exactly as the scan decides
    them.
    """
    normals = _as_unit_rows(normals)
    support = np.asarray(support, dtype=float)
    _check_support(support, normals.shape[0])
    if normals.shape[0] < 3:
        raise ValueError("need at least 3 normals")

    ang = _angles_of(normals)
    order = np.lexsort((support, ang))  # angle asc, then support asc
    ang_s = ang[order]
    # Duplicate normals: keep the binding (smallest support) constraint,
    # which the lexsort puts first; ties keep the earlier original index.
    idx = order[np.concatenate([[True], ang_s[1:] - ang_s[:-1] > _ANGLE_DEDUP_TOL])]
    if len(idx) < 3:
        raise ValueError("need at least 3 distinct normals")
    ang_d = ang[idx]
    gap = max((ang_d[1:] - ang_d[:-1]).max(), ang_d[0] + TWO_PI - ang_d[-1])
    if gap >= math.pi - 1e-12:
        raise UnboundedBodyError(
            "normals are contained in a closed halfplane; the intersection is unbounded"
        )

    # The cyclic left-turn test needs no rotation to the anchor; only the
    # order of the retests below starts there.
    q = normals[idx] / support[idx, None]
    ring = np.concatenate([q[-1:], q, q[:1]])
    u = ring[1:] - ring[:-1]  # u[j] = p_j - p_{j-1}, and u[m] = u[0]
    ok = _left_turns(u[:-1, 0], u[:-1, 1], u[1:, 0], u[1:, 1])
    anchor = int(np.add.reduce(q * q, axis=1).argmax())  # farthest by |q|^2; its root can tie
    ok[anchor] = True
    if ok.all():
        return idx, normals[idx], support[idx]

    m = len(idx)
    fails = np.flatnonzero(~ok)
    split = int(np.searchsorted(fails, anchor))
    todo = [*fails[:split][::-1].tolist(), *fails[split:][::-1].tolist()]  # first on top
    kept_local, alive = np.ones(m, dtype=bool), m
    ok, x, y = ok.tolist(), q[:, 0].tolist(), q[:, 1].tolist()
    prev, succ = [m - 1, *range(m - 1)], [*range(1, m), 0]
    while todo and alive >= 3:  # the scan stops closing the hull at 2 points
        j = todo.pop()
        if ok[j]:
            continue  # dropped already, or passes since its neighbours changed
        ok[j], kept_local[j], alive = True, False, alive - 1
        a, c = prev[j], succ[j]
        succ[a], prev[c] = c, a
        for k in (c, a):  # new failures precede older ones
            if k == anchor:
                continue
            b, e = prev[k], succ[k]
            ok[k] = bool(_left_turns(x[k] - x[b], y[k] - y[b], x[e] - x[k], y[e] - y[k]))
            if not ok[k]:
                todo.append(k)

    kept = idx[kept_local]  # original indices, ascending angle
    return kept, normals[kept], support[kept]


def wulff_shape(normals, support) -> SupportPolygon:
    """Halfplane intersection of {x . nu_i <= h_i} in canonical reduced form.

    Redundant constraints (those whose edge would have zero length, up to the
    collinearity tolerance 1e-10) are removed; the support function of the
    result equals the input exactly on retained normals and is <= the input
    on removed ones.

    Raises UnboundedBodyError when the normals lie in a closed halfplane and
    ValueError for nonpositive support values or fewer than 3 normals.
    """
    return _reduced_body(normals, support)[0]


def wulff_shape_with_indices(normals, support):
    """Like :func:`wulff_shape` but also returns the retained input indices."""
    return _reduced_body(normals, support)


def _reduced_body(normals, support):
    """(body, kept) of the Wulff reduction, built without re-validation."""
    kept, nu_k, h_k = _reduce_halfplanes(normals, support)
    if len(kept) < 3:
        raise ValueError("a polygon needs at least 3 edges")
    # The rows are unit, strictly sorted and h_k positive; the constructor's
    # normalization is kept, so the body is bit-identical to SupportPolygon's.
    body = object.__new__(SupportPolygon)
    body._derive_frame(nu_k / _row_norms(nu_k)[:, None])
    body._derive_edges(h_k)
    return body, kept


def support_profile(body: SupportPolygon, directions) -> np.ndarray:
    """Support function on an (R, 2) array of unit directions (vectorized)."""
    return _support_values(body, _as_unit_rows(directions))


def _support_values(body: SupportPolygon, d: np.ndarray) -> np.ndarray:
    """Support function on directions that are already validated unit rows."""
    return np.max(d @ body.vertices.T, axis=1)


@lru_cache(maxsize=8)
def _direction_grid(resolution: int) -> np.ndarray:
    """Read-only unit rows at the angles 2 pi k / resolution, normalized as
    _as_unit_rows normalizes them (no rows for resolution 0)."""
    theta = TWO_PI * np.arange(resolution) / resolution
    grid = np.column_stack([np.cos(theta), np.sin(theta)])
    grid /= _row_norms(grid)[:, None]
    grid.setflags(write=False)
    return grid


def scale_body(body: SupportPolygon, s: float) -> SupportPolygon:
    """Dilate by s > 0 about the origin."""
    if s <= 0.0:
        raise ValueError("scale factor must be positive")
    return body.with_support(s * body.support)


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
                   p: float) -> SupportPolygon:
    """Wulff shape of the L_p combination of two bodies.

    Supports are evaluated exactly on the union of the two normal sets and
    combined pointwise.  For p = 1 this is the exact Minkowski combination
    aK + bL.  For p != 1 the true combination is not a polygon, and the
    union is joined with _LP_REFINE uniform directions.
    """
    refine = _LP_REFINE if p != 1.0 else 0
    directions = np.vstack([K.normals, L.normals, _direction_grid(refine)])
    hK, hL = _support_values(K, directions), _support_values(L, directions)
    return wulff_shape(directions, lp_combination(hK, hL, a, b, p))


def body_hausdorff_distance(K: SupportPolygon, L: SupportPolygon) -> float:
    """Hausdorff distance max_v |h_K(v) - h_L(v)| over 2048 uniform directions
    joined with both bodies' own normals."""
    dirs = np.vstack([_direction_grid(2048), K.normals, L.normals])
    return float(np.max(np.abs(_support_values(K, dirs) - _support_values(L, dirs))))


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finite positive measure on the circle given by (direction, mass) atoms.

    dimension is kept for the serialized format and must equal 2.
    """

    dimension: int
    directions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        if self.dimension != 2:
            raise ValueError("only planar measures are supported")
        directions = _as_unit_rows(self.directions, tol=1e-9)
        masses = np.array(self.masses, dtype=float)
        if masses.shape != (directions.shape[0],):
            raise ValueError("one mass per direction required")
        if np.any(masses <= 0.0) or not np.all(np.isfinite(masses)):
            raise ValueError("masses must be positive and finite")
        ang = np.sort(_angles_of(directions))
        gaps = np.diff(np.append(ang, ang[0] + TWO_PI))
        if len(ang) > 1 and gaps.min() <= _ANGLE_DEDUP_TOL:
            raise ValueError("atom directions must be distinct")
        _freeze(self, directions=directions, masses=masses)

    @property
    def num_atoms(self) -> int:
        return self.masses.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def is_even(self) -> bool:
        """True when atoms come in antipodal pairs of equal mass: the atom
        nearest each antipode lies within 1e-9 in angle and its mass within
        1e-9 relative."""
        m, ang = self.masses, _angles_of(self.directions)
        order = np.argsort(ang)
        near, gap = _nearest_angle(ang[order], np.mod(ang + math.pi, TWO_PI))
        if np.any(gap > 1e-9):
            return False
        partner = order[near]
        return bool(np.all(np.abs(m - m[partner]) <= 1e-9 * np.maximum(m, m[partner])))


def hemisphere_margin(mu: DiscreteMeasure) -> float:
    """min over unit directions e of sum_i m_i (e . v_i)_+ .

    A positive margin certifies that the measure is not concentrated on any
    closed half circle.  e -> sum m_i (e . v_i)_+ is a nonnegative sinusoid,
    hence concave, between consecutive breakpoints (the directions
    perpendicular to atoms), so its minimum lies at one of the 2k
    breakpoints.  There the open half circle of atoms with e . v_i > 0 is a
    cyclic window of the angle-sorted atoms, summed from prefix sums, and the
    margin is exact in O(k log k) time and O(k) memory.
    """
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


@dataclass(frozen=True, eq=False)
class SupportField:
    """Periodic sample of a support function h on the circle.

    h[k] is the value at theta_k = 2 pi k / N, and the grid size N is
    len(h), read back as resolution.  Construction computes the periodic
    central differences once, both read-only like h:

        slope[k]     = (D h)_k       = (h_{k+1} - h_{k-1}) / (2 step)
        curvature[k] = (D^2 h + h)_k = (h_{k+1} - 2 h_k + h_{k-1}) / step^2 + h_k.

    curvature is the discrete convexity surrogate; it must be positive at
    every node, and construction fails otherwise.
    """

    h: np.ndarray
    slope: np.ndarray = field(init=False, repr=False)
    curvature: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        if h.ndim != 1 or h.size == 0:
            raise ValueError("h must be a nonempty one-dimensional sample")
        if np.any(h <= 0.0) or not np.all(np.isfinite(h)):
            raise ValueError("support values must be positive and finite")
        up, down, step = _rotate(h, 1), _rotate(h, -1), TWO_PI / len(h)
        curvature = (up - 2.0 * h + down) / (step * step) + h
        if np.any(curvature <= 0.0):
            node = int(np.argmin(curvature))
            raise ConvexityError(node, float(curvature[node]))
        slope = (up - down) / (2.0 * step)
        _freeze(self, h=h, slope=slope, curvature=curvature)

    @property
    def resolution(self) -> int:
        return len(self.h)

    @property
    def step(self) -> float:
        return TWO_PI / self.resolution

    @property
    def theta(self) -> np.ndarray:
        return TWO_PI * np.arange(self.resolution) / self.resolution


def field_to_polygon(fld: SupportField) -> SupportPolygon:
    """Wulff shape of the sampled support values on the field's normal grid."""
    theta = fld.theta
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    return wulff_shape(normals, fld.h)
