"""Result record shared by the discrete and smooth solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import gauss_constants
from .geometry import SupportField, SupportPolygon


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a constrained solve.

    multiplier is the Lagrange multiplier lambda in the stationarity
    relation mu = (lambda / p) * (surface area measure of the body);
    volume_residual is gamma_2(body) minus the target; stationarity_residual
    is the worst relative per-atom defect of that relation (discrete path)
    or the final equation residual (smooth path).  homotopy_trace is empty
    for the discrete path; objective_trace records the objective phi at the
    start and after each accepted Newton step of the discrete path (so it
    has iterations + 1 entries) and is empty for the smooth one.  flags
    carry diagnostics such as "no-uniqueness-certificate".  Like the body
    it holds, a report compares and hashes by identity.
    """

    body: SupportPolygon | SupportField
    multiplier: float
    volume_residual: float
    stationarity_residual: float
    iterations: int
    homotopy_trace: tuple = ()
    flags: tuple = ()
    objective_trace: tuple = ()

    def __post_init__(self):
        for name in ("multiplier", "volume_residual", "stationarity_residual"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def certificate_flags(p: float, even: bool, total_mass: float) -> list[str]:
    """Flags of a solve outside the paper's certificate regime, for both
    solvers: "uncertified" for p < 1, and "no-uniqueness-certificate" unless
    the data are even and light (total_mass below the mass_bound of
    gauss_constants(2, p), with which this function compares it)."""
    light = total_mass < gauss_constants(2, p).mass_bound
    return ((["uncertified"] if p < 1.0 else [])
            + ([] if even and light else ["no-uniqueness-certificate"]))
