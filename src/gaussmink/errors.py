"""Exception types shared across the toolkit.

Input-validation failures subclass ValueError so they map onto the CLI's
"invalid input" exit code; solver breakdowns carry their trace for
post-mortem inspection and map onto the "non-convergence" exit code.
"""


class UnboundedBodyError(ValueError):
    """Normals lie in a closed halfplane; the halfspace intersection is unbounded."""


class HemisphereConditionError(ValueError):
    """Measure concentrated on a closed hemisphere: the constrained objective
    admits minimizing bodies that escape to infinity, so no minimizer exists."""


class MassBoundError(ValueError):
    """Total measure exceeds the solvability threshold sqrt(2/pi) r^-p a e^(-a^2/2):
    any body of Gaussian volume 1/2 already carries at least that much measure."""


class ConvexityError(ValueError):
    """Discrete convexity surrogate (h'' + h) non-positive at some node."""

    def __init__(self, node: int, value: float):
        self.node = node
        self.value = value
        super().__init__(f"convexity surrogate h''+h = {value:.6g} <= 0 at node {node}")


class SolverStallError(RuntimeError):
    """Iteration failed to converge; carries the trace accumulated so far.

    A stall of the smooth solver's walk also carries newton_iters, the
    Newton steps it accepted before stalling.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class RoundingFloorError(SolverStallError):
    """Newton stalled with its residual at the rounding floor of the grid.

    The floor depends only on the iterate and the resolution, so only a
    looser tolerance (or a coarser grid) lets the solve finish.  Carries the
    achieved residual and the floor estimate.
    """

    def __init__(self, message: str, residual: float, floor: float, trace=None):
        super().__init__(message, trace)
        self.residual = residual
        self.floor = floor
