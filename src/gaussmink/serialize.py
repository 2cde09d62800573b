"""File formats for bodies, measures, densities, reports, and SVG plots.

JSON payloads:

* body: ``{"dimension": 2, "normals": [[x, y], ...], "support": [h1, ...]}``
* measure: ``{"dimension": 2, "p": 1.0, "atoms": [{"direction": [x, y],
  "mass": m}, ...]}``
* density or support field (theta implicit at 2 pi k / N):
  ``{"resolution": N, "values": [...]}``

Every number is written with nine significant digits and keys are sorted, so
identical inputs produce byte-identical files.  Directions are stored as unit
vectors and re-normalized on load to absorb the rounding.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .gaussian import GaussConstants
from .geometry import (DiscreteMeasure, SupportField, SupportPolygon,
                       field_to_polygon, wulff_shape)
from .report import SolveReport

SIGNIFICANT_DIGITS = 9
_FORMAT = f".{SIGNIFICANT_DIGITS}g"
PLOT_SAMPLES = 1024
PLOT_HALF_EXTENT = 4.0


def echo_float(x) -> str:
    """Format one finite scalar with nine significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("only finite numbers are serialized")
    return format(x, _FORMAT)


def _sig_list(values) -> list:
    """The values, flattened, each rounded to nine significant digits.

    Equal bit for bit to float(echo_float(v)) per value; finiteness is
    checked once for the whole array.
    """
    values = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(values)):
        raise ValueError("only finite numbers are serialized")
    return [float(format(v, _FORMAT)) for v in values.tolist()]


def _pairs(flat: list) -> list:
    return [flat[i:i + 2] for i in range(0, len(flat), 2)]


def _float_array(values, error: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):  # a non-number, or ragged nesting
        raise ValueError(error) from None


def _finite_number(data: dict, key: str, default):
    """data[key], or default when absent; ValueError unless a finite number."""
    value = data.get(key, default)
    if not (_is_number(value) and math.isfinite(value)):
        raise ValueError(f"'{key}' must be a finite number, got {json.dumps(value)}")
    return value


def _unit_rows(rows, what: str) -> np.ndarray:
    error = f"{what} must be a nonempty list of [x, y] pairs"
    rows = _float_array(rows, error)
    if rows.ndim != 2 or rows.shape[1] != 2 or rows.shape[0] == 0:
        raise ValueError(error)
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms < 1e-12) or not np.all(np.isfinite(norms)):
        raise ValueError(f"{what} must be nonzero finite vectors")
    return rows / norms[:, None]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def dumps_json(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", byte for byte.

    json runs its C encoder only without indent, so the indented layout is
    built here.  A list of finite floats, the bulk of every payload, is
    joined from float.__repr__, the text json writes for each.
    """
    return _indented(payload, "\n") + "\n"


def _indented(value, newline: str) -> str:
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = [json.dumps(key) + ": " + _indented(value[key], inner)
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {float} and math.isfinite(sum(value)):
            items = map(float.__repr__, value)
        else:  # other scalars and nesting; a sum that overflows lands here too
            items = [_indented(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)


def body_to_dict(body: SupportPolygon) -> dict:
    return {"dimension": 2,
            "normals": _pairs(_sig_list(body.normals)),
            "support": _sig_list(body.support)}


def body_from_dict(data: dict) -> SupportPolygon:
    """Rebuild a polygon from its halfplane list via the Wulff shape."""
    if not isinstance(data, dict) or {"normals", "support"} - data.keys():
        raise ValueError("body payload needs 'normals' and 'support' keys")
    if data.get("dimension", 2) != 2:
        raise ValueError("only planar bodies are supported")
    support = _float_array(data["support"], "'support' must be a list of numbers")
    return wulff_shape(_unit_rows(data["normals"], "normals"), support)


def measure_to_dict(mu: DiscreteMeasure, p: float = 1.0) -> dict:
    atoms = [{"direction": d, "mass": m}
             for d, m in zip(_pairs(_sig_list(mu.directions)), _sig_list(mu.masses))]
    return {"dimension": 2, "p": float(echo_float(p)), "atoms": atoms}


def measure_from_dict(data: dict) -> tuple[DiscreteMeasure, float]:
    """Return the measure and the exponent p recorded beside it.

    Raises ValueError naming the first atom of the wrong shape.
    """
    if not isinstance(data, dict) or "atoms" not in data:
        raise ValueError("measure payload needs an 'atoms' key")
    if data.get("dimension", 2) != 2:
        raise ValueError("only planar measures are supported")
    atoms = data["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("'atoms' must be a nonempty JSON array")
    for i, atom in enumerate(atoms):
        vector = atom.get("direction") if isinstance(atom, dict) else None
        if not (isinstance(vector, list) and len(vector) == 2
                and all(map(_is_number, vector)) and _is_number(atom.get("mass"))):
            raise ValueError(f"atom {i} must be an object with a numeric "
                             f"'direction' pair [x, y] and a numeric 'mass', "
                             f"got {json.dumps(atom)}")
    directions = _unit_rows([atom["direction"] for atom in atoms], "directions")
    masses = np.array([atom["mass"] for atom in atoms], dtype=float)
    return DiscreteMeasure(2, directions, masses), float(_finite_number(data, "p", 1.0))


def density_to_dict(values) -> dict:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("density values must be a nonempty vector")
    return {"resolution": int(values.size), "values": _sig_list(values)}


def density_from_dict(data: dict) -> np.ndarray:
    """Grid samples at theta_k = 2 pi k / N, validated against 'resolution'."""
    if not isinstance(data, dict) or "values" not in data:
        raise ValueError("density payload needs a 'values' key")
    error = "density values must be a nonempty vector"
    values = _float_array(data["values"], error)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(error)
    if _finite_number(data, "resolution", values.size) != values.size:
        raise ValueError("resolution field disagrees with the value count")
    if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
        raise ValueError("density values must be positive and finite")
    return values


def classify_payload(data: dict) -> str:
    """Which of the JSON formats a decoded payload is."""
    if not isinstance(data, dict):
        raise ValueError("input file must hold a JSON object")
    for key, kind in (("support", "body"), ("atoms", "measure"),
                      ("values", "density")):
        if key in data:
            return kind
    raise ValueError(
        "unrecognized input: expected a body ('support'), measure ('atoms'), "
        "or density ('values') payload")


def load_input(path):
    """Read a JSON file and decode it by format.

    Returns (kind, object) where the object is a SupportPolygon, a
    (DiscreteMeasure, p) pair, or a density vector.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    kind = classify_payload(data)
    decoder = {"body": body_from_dict, "measure": measure_from_dict,
               "density": density_from_dict}[kind]
    return kind, decoder(data)


def constants_text(constants: GaussConstants) -> str:
    """key=value lines for scripting."""
    lines = [f"n={constants.n}",
             f"p={echo_float(constants.p)}",
             f"r_half={echo_float(constants.r_half)}",
             f"a_half={echo_float(constants.a_half)}",
             f"mass_bound={echo_float(constants.mass_bound)}"]
    return "\n".join(lines) + "\n"


def edge_measure_text(masses: np.ndarray, p: float) -> str:
    """key=value lines: p, the edge count, each edge's mass and their total."""
    lines = [f"p={echo_float(p)}", f"edges={len(masses)}"]
    lines += [f"mass_{i}={echo_float(m)}" for i, m in enumerate(masses)]
    lines.append(f"total={echo_float(masses.sum())}")
    return "\n".join(lines) + "\n"


def report_text(report: SolveReport) -> str:
    lines = [f"multiplier={echo_float(report.multiplier)}",
             f"volume_residual={echo_float(report.volume_residual)}",
             f"stationarity_residual={echo_float(report.stationarity_residual)}",
             f"iterations={report.iterations}"]
    if report.homotopy_trace:
        lines.append(f"homotopy_steps={len(report.homotopy_trace)}")
    if report.objective_trace:
        lines.append(f"objective={echo_float(report.objective_trace[-1])}")
    lines.append("flags=" + ";".join(report.flags))
    return "\n".join(lines) + "\n"


def solution_to_dict(report: SolveReport) -> dict:
    """Serialize the solved body: polygon or theta-implicit field."""
    if isinstance(report.body, SupportField):
        return density_to_dict(report.body.h)
    return body_to_dict(report.body)


def boundary_svg(obj) -> str:
    """SVG plot of a body boundary with a unit-circle reference.

    Accepts a SupportPolygon or a SupportField; the boundary is the radial
    profile rho(theta) sampled at 1024 angles inside viewBox [-4, 4]^2.
    The y axis is flipped so the picture uses mathematical orientation.
    """
    body = field_to_polygon(obj) if isinstance(obj, SupportField) else obj
    if not isinstance(body, SupportPolygon):
        raise ValueError("plot input must be a body or a support field")
    theta = 2.0 * math.pi * np.arange(PLOT_SAMPLES) / PLOT_SAMPLES
    rho = np.asarray(body.radial(theta), dtype=float)
    x = rho * np.cos(theta)
    y = -rho * np.sin(theta)
    pts = list(zip(x, y))
    pts.append(pts[0])
    points = " ".join(f"{echo_float(a)},{echo_float(b)}" for a, b in pts)
    e = PLOT_HALF_EXTENT
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{-e:g} {-e:g} {2 * e:g} {2 * e:g}">\n'
        f'  <circle cx="0" cy="0" r="1" fill="none" stroke="#999" '
        f'stroke-width="0.015"/>\n'
        f'  <polyline points="{points}" fill="none" stroke="#000" '
        f'stroke-width="0.03"/>\n'
        f'</svg>\n'
    )
