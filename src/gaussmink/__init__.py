"""Gaussian surface area measures of planar convex bodies, with solvers for
the associated Minkowski problems (discrete variational and smooth homotopy)
and a property-checking suite for the underlying inequalities."""

from .discrete import VariationalProblem, recover_multiplier, solve_constrained
from .errors import (ConvexityError, HemisphereConditionError, MassBoundError,
                     RoundingFloorError, SolverStallError, UnboundedBodyError)
from .gaussian import (GaussConstants, gauss_constants, gauss_surface_polygon,
                       gauss_volume, gauss_volume_exact, gauss_volume_mc,
                       lp_gauss_surface_polygon, lp_surface_measure,
                       scale_to_gauss_volume, smooth_lp_density,
                       std_normal_cdf, std_normal_quantile)
from .geometry import (DiscreteMeasure, SupportField, SupportPolygon,
                       body_hausdorff_distance, box_polygon, combine_bodies,
                       disc_polygon, field_to_polygon, lp_combination,
                       wulff_shape)
from .report import SolveReport
from .smooth import HomotopyStep, linearized_guard, solve_homotopy
from .verify import (CheckResult, check_ball_bound, check_ehrhard,
                     check_isoperimetric, check_log_concavity,
                     check_mixed_measure_inequality, check_uniqueness,
                     check_variational_formula, format_table, run_suite)

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "ConvexityError", "DiscreteMeasure", "GaussConstants",
    "HemisphereConditionError", "HomotopyStep",
    "MassBoundError", "RoundingFloorError",
    "SolveReport", "SolverStallError", "SupportField", "SupportPolygon",
    "UnboundedBodyError", "VariationalProblem",
    "body_hausdorff_distance", "box_polygon", "check_ball_bound",
    "check_ehrhard", "check_isoperimetric", "check_log_concavity",
    "check_mixed_measure_inequality", "check_uniqueness",
    "check_variational_formula", "combine_bodies",
    "disc_polygon", "field_to_polygon", "format_table", "gauss_constants",
    "gauss_surface_polygon", "gauss_volume", "gauss_volume_exact",
    "gauss_volume_mc", "linearized_guard", "lp_combination",
    "lp_gauss_surface_polygon", "lp_surface_measure", "recover_multiplier",
    "run_suite", "scale_to_gauss_volume", "smooth_lp_density",
    "solve_constrained", "solve_homotopy", "std_normal_cdf",
    "std_normal_quantile", "wulff_shape",
]
