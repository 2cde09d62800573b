"""Command-line front end.

Subcommands: measure (surface area measure of a body file), solve-discrete,
solve-smooth, verify (property-check suite), constants, plot (SVG boundary),
and generate (named deterministic test inputs).

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 solver non-convergence (a stall, or a tolerance below the residual's
rounding floor; stderr then also summarizes the solver's trace).  Outputs
are byte-identical for identical (configuration, seed); every number is
echoed with nine significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import serialize
from .discrete import VariationalProblem, solve_constrained
from .errors import SolverStallError
from .families import build_family, cos_density
from .gaussian import gauss_constants, lp_gauss_surface_polygon, lp_surface_measure
from .geometry import SupportField
from .smooth import HomotopyStep, solve_homotopy
from .verify import format_table, run_suite

COMMANDS = ("measure", "solve-discrete", "solve-smooth", "verify",
            "constants", "plot", "generate")
SMOOTH_FAMILIES = ("constant", "cos")
DEFAULT_DENSITY_LEVEL = 0.045
RESOLUTION_RANGE = (64, 2**20)

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_NO_CONVERGENCE = 3

# the options each generate family reads, besides --output
GENERATE_FLAGS = {"uniform-mgon": ("n", "p"), "square-measure": ("p",),
                  "cos-density": ("resolution", "amplitude", "frequency"),
                  "random-even": ("seed", "p"), "hemisphere-bad": ("seed", "p")}
# the options each solve-smooth density source reads, besides --p, --tol
# and --output
SMOOTH_FLAGS = {"--input": (), "--family constant": ("family", "resolution"),
                "--family cos": ("family", "resolution", "amplitude", "frequency")}


@dataclass(frozen=True)
class RunConfig:
    """One normalized CLI invocation.

    An option stays None when its flag was not given, so each command can
    fall back to its own default (e.g. the p recorded inside a measure file),
    generate can refuse a flag its family does not read, and solve-smooth a
    flag its density source (--input or a --family) does not read.
    """

    command: str
    input_path: str | None = None
    output_path: str | None = None
    p: float | None = None
    resolution: int | None = None
    seed: int | None = None
    tol: float | None = None
    family: str | None = None
    amplitude: float | None = None
    frequency: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.command == "solve-smooth":
            source = ("--input" if self.input_path is not None
                      else f"--family {self.family}")
            reads = SMOOTH_FLAGS.get(source)
            checked = ("family", "resolution", "amplitude", "frequency")
        else:
            source = self.family
            reads = GENERATE_FLAGS.get(source) if self.command == "generate" else None
            checked = ("p", "seed", "resolution", "n", "amplitude", "frequency")
        if reads is not None:
            unread = [f"--{name}" for name in checked
                      if getattr(self, name) is not None and name not in reads]
            if unread:
                raise ValueError(f"{self.command} {source} does not read "
                                 f"{', '.join(unread)}")
        if self.p is not None and not math.isfinite(self.p):
            raise ValueError("p must be finite")
        lo, hi = RESOLUTION_RANGE
        if self.resolution is not None and not lo <= self.resolution <= hi:
            raise ValueError(f"resolution must lie in [{lo}, {hi}]")
        if self.tol is not None and not 0.0 < self.tol < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _write_output(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(config: RunConfig, text: str) -> None:
    sys.stdout.write(text)
    if config.output_path is not None:
        _write_output(config.output_path, text)


def _emit_report(config: RunConfig, report) -> int:
    """Print the report's key=value lines; --output gets the solved body."""
    sys.stdout.write(serialize.report_text(report))
    if config.output_path is not None:
        _write_output(config.output_path,
                      serialize.dumps_json(serialize.solution_to_dict(report)))
    return EXIT_OK


def _require_input(config: RunConfig, expected: str):
    if config.input_path is None:
        raise ValueError(f"{config.command} requires --input")
    kind, obj = serialize.load_input(config.input_path)
    if kind != expected:
        raise ValueError(f"{config.command} expects a {expected} file, "
                         f"got a {kind} file")
    return obj


def _cmd_constants(config: RunConfig) -> int:
    constants = gauss_constants(config.n if config.n is not None else 2,
                                config.p if config.p is not None else 1.0)
    _emit(config, serialize.constants_text(constants))
    return EXIT_OK


def _cmd_measure(config: RunConfig) -> int:
    body = _require_input(config, "body")
    p = config.p if config.p is not None else 1.0
    if config.output_path is not None:
        # lp_surface_measure refuses a body whose edge masses all underflow
        # to 0: fail before anything is printed
        _write_output(config.output_path, serialize.dumps_json(
            serialize.measure_to_dict(lp_surface_measure(body, p), p)))
    sys.stdout.write(serialize.edge_measure_text(lp_gauss_surface_polygon(body, p), p))
    return EXIT_OK


def _cmd_solve_discrete(config: RunConfig) -> int:
    mu, file_p = _require_input(config, "measure")
    p = config.p if config.p is not None else file_p
    prob = VariationalProblem(
        mu, p,
        stationarity_tol=config.tol if config.tol is not None else 1e-4)
    return _emit_report(config, solve_constrained(prob))


def _smooth_density(config: RunConfig) -> np.ndarray:
    if config.input_path is not None:
        return _require_input(config, "density")
    if config.family is None:
        raise ValueError("solve-smooth needs --input or --family")
    resolution = config.resolution if config.resolution is not None else 256
    if config.family == "constant":
        return np.full(resolution, DEFAULT_DENSITY_LEVEL)
    if config.family == "cos":
        return cos_density(resolution, DEFAULT_DENSITY_LEVEL,
                           config.amplitude if config.amplitude is not None else 0.2,
                           config.frequency if config.frequency is not None else 2)
    raise ValueError(f"unknown density family {config.family!r}; "
                     f"choose from {SMOOTH_FAMILIES}")


def _cmd_solve_smooth(config: RunConfig) -> int:
    values = _smooth_density(config)
    tol = {} if config.tol is None else {"newton_tol": config.tol}
    return _emit_report(config, solve_homotopy(
        values, config.p if config.p is not None else 1.0, **tol))


def _cmd_verify(config: RunConfig) -> int:
    results = run_suite(seed=config.seed if config.seed is not None else 0,
                        instances=config.n if config.n is not None else 100)
    _emit(config, format_table(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFICATION_FAILURE


def _cmd_plot(config: RunConfig) -> int:
    if config.input_path is None:
        raise ValueError("plot requires --input")
    kind, obj = serialize.load_input(config.input_path)
    if kind == "body":
        drawable = obj
    elif kind == "density":
        # theta-implicit values are read back as a support field
        drawable = SupportField(obj)
    else:
        raise ValueError(f"plot expects a body or field file, got a {kind} file")
    _emit(config, serialize.boundary_svg(drawable))
    return EXIT_OK


def _cmd_generate(config: RunConfig) -> int:
    # the options not given take the family's own defaults
    obj = build_family(config.family, **{
        "m" if name == "n" else name: getattr(config, name)
        for name in GENERATE_FLAGS.get(config.family, ())
        if name != "p" and getattr(config, name) is not None})
    if isinstance(obj, np.ndarray):
        payload = serialize.density_to_dict(obj)
    else:
        payload = serialize.measure_to_dict(
            obj, config.p if config.p is not None else 1.0)
    path = config.output_path or f"{config.family}.json"
    _write_output(path, serialize.dumps_json(payload))
    sys.stdout.write(f"wrote {path}\n")
    return EXIT_OK


_HANDLERS = {"constants": _cmd_constants,
             "measure": _cmd_measure,
             "solve-discrete": _cmd_solve_discrete,
             "solve-smooth": _cmd_solve_smooth,
             "verify": _cmd_verify,
             "plot": _cmd_plot,
             "generate": _cmd_generate}


def _trace_summary(trace) -> str | None:
    """One line on how far a failed solve got, or None without a trace."""
    if not trace:
        return None
    if isinstance(trace[0], HomotopyStep):  # t = 0 start, then accepted steps
        return (f"trace: {len(trace) - 1} accepted continuation steps, "
                f"last accepted t = {serialize.echo_float(trace[-1].t)}")
    # discrete: phi at the start ball, then after each Newton step
    return (f"trace: {len(trace) - 1} Newton steps, "
            f"last phi = {serialize.echo_float(trace[-1])}")


def run(config: RunConfig) -> int:
    """Dispatch one invocation and map failures to exit codes."""
    try:
        return _HANDLERS[config.command](config)
    except SolverStallError as exc:  # RoundingFloorError included
        print(f"error: {exc}", file=sys.stderr)
        summary = _trace_summary(exc.trace)
        if summary is not None:
            print(summary, file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussmink",
        description="Gaussian surface area measures of planar convex bodies "
                    "and solvers for the associated Minkowski problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, input_flag=False, p_flag=False, tol_flag=False,
            seed_flag=False, resolution_flag=False, family_positional=False):
        cmd = sub.add_parser(name, help=help_text)
        if family_positional:
            cmd.add_argument("family", help="test case family name")
        if input_flag:
            cmd.add_argument("--input", dest="input_path", help="input JSON file")
        cmd.add_argument("--output", dest="output_path",
                         help="write the result to this file")
        if p_flag:
            cmd.add_argument("--p", type=float, default=None,
                             help="measure exponent p")
        if tol_flag:
            cmd.add_argument("--tol", type=float, default=None,
                             help="solver tolerance")
        if seed_flag:
            cmd.add_argument("--seed", type=int, help="random seed")
        if resolution_flag:
            cmd.add_argument("--resolution", type=int, help="grid resolution")
        return cmd

    add("constants", "print the dimensional constants as key=value lines",
        p_flag=True).add_argument("--n", type=int, default=2,
                                  help="ambient dimension")
    add("measure", "surface area measure of a body file", input_flag=True,
        p_flag=True)
    add("solve-discrete", "solve the Minkowski problem for a discrete measure",
        input_flag=True, p_flag=True, tol_flag=True)
    smooth = add("solve-smooth", "solve the smooth Minkowski problem on the "
                 "circle", input_flag=True, p_flag=True, tol_flag=True,
                 resolution_flag=True)
    smooth.add_argument("--family", default=None,
                        help="built-in density family: constant or cos")
    smooth.add_argument("--amplitude", type=float,
                        help="cos family modulation amplitude")
    smooth.add_argument("--frequency", type=int,
                        help="cos family modulation frequency")
    add("verify", "run the property-check suite", seed_flag=True).add_argument(
        "--n", type=int, default=100, help="number of random instances")
    add("plot", "render a body or field boundary as SVG", input_flag=True)
    gen = add("generate", "write a named deterministic test input",
              p_flag=True, seed_flag=True, resolution_flag=True,
              family_positional=True)
    gen.add_argument("--n", type=int, help="atom count for uniform-mgon")
    gen.add_argument("--amplitude", type=float,
                     help="cos-density modulation amplitude")
    gen.add_argument("--frequency", type=int,
                     help="cos-density modulation frequency")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                        if hasattr(args, f.name)})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
