"""Command-line front end.

Subcommands: measure (surface area measure of a body file), solve-discrete,
solve-smooth, verify (property-check suite), constants, plot (SVG boundary),
and generate (named deterministic test inputs, one nested subcommand per
family).

argparse owns the contract: each subcommand and each generate family
registers exactly the flags it reads, with their defaults and value checks,
so any other flag, or a value out of range, is a usage error (exit 2).  The
cos grid flags alone have no argparse default: one left out is None and
takes cos_density's.  solve-smooth reads flags by density source: its handler
refuses the grid flags that --input, or --family constant, does not read.

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

import numpy as np

from . import serialize
from .discrete import VariationalProblem, solve_constrained
from .errors import SolverStallError
from .families import (cos_density, hemisphere_bad_measure, random_even_measure,
                       square_surface_measure, uniform_mgon_measure)
from .gaussian import gauss_constants, lp_gauss_surface_polygon, lp_surface_measure
from .geometry import SupportField
from .smooth import HomotopyStep, solve_homotopy
from .verify import format_table, run_suite

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_NO_CONVERGENCE = 3


def _checked(convert, accept, message: str):
    """argparse type: convert the string, then refuse a value accept rejects."""
    def check(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(message)
        return value
    check.__name__ = convert.__name__  # argparse's "invalid float value: ..."
    return check


_tolerance = _checked(float, lambda tol: 0.0 < tol < math.inf,
                      "tolerance must be positive and finite")
# flags that several parsers share: (name, add_argument keywords)
_INPUT = ("--input", {"dest": "input_path", "help": "input JSON file"})
_OUTPUT = ("--output", {"dest": "output_path", "help": "write the result to this file"})
_P = ("--p", {"type": _checked(float, math.isfinite, "p must be finite"),
              "default": 1.0, "help": "measure exponent p"})
_SEED = ("--seed", {"type": _checked(int, lambda seed: seed >= 0, "seed must be nonnegative"),
                    "default": 0, "help": "random seed"})
# the cos grid: no argparse default, so None means "not typed"
_GRID = ("resolution", "amplitude", "frequency")
_COS = (("--resolution", {"type": _checked(int, lambda n: 64 <= n <= 2**20,
                                           "resolution must lie in [64, 1048576]"),
                          "help": "grid resolution"}),
        ("--amplitude", {"type": float, "help": "cos modulation amplitude"}),
        ("--frequency", {"type": int, "help": "cos modulation frequency"}))


def _typed_grid(args) -> dict:
    """The cos grid flags typed on the command line, by cos_density keyword."""
    return {name: value for name in _GRID if (value := getattr(args, name)) is not None}


def _write_output(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(args, text: str) -> None:
    sys.stdout.write(text)
    if args.output_path is not None:
        _write_output(args.output_path, text)


def _emit_report(args, report) -> int:
    """Print the report's key=value lines; --output gets the solved body."""
    sys.stdout.write(serialize.report_text(report))
    if args.output_path is not None:
        _write_output(args.output_path,
                      serialize.dumps_json(serialize.solution_to_dict(report)))
    return EXIT_OK


def _require_input(args, *kinds: str):
    """(kind, object) decoded from --input, whose kind must be one of kinds."""
    if args.input_path is None:
        raise ValueError(f"{args.command} requires --input")
    kind, obj = serialize.load_input(args.input_path)
    if kind not in kinds:
        raise ValueError(f"{args.command} expects a {' or '.join(kinds)} file, "
                         f"got a {kind} file")
    return kind, obj


def _cmd_constants(args) -> int:
    _emit(args, serialize.constants_text(gauss_constants(args.n, args.p)))
    return EXIT_OK


def _cmd_measure(args) -> int:
    _, body = _require_input(args, "body")
    if args.output_path is not None:
        # lp_surface_measure refuses a body whose edge masses all underflow
        # to 0: fail before anything is printed
        _write_output(args.output_path, serialize.dumps_json(
            serialize.measure_to_dict(lp_surface_measure(body, args.p), args.p)))
    sys.stdout.write(serialize.edge_measure_text(
        lp_gauss_surface_polygon(body, args.p), args.p))
    return EXIT_OK


def _cmd_solve_discrete(args) -> int:
    _, (mu, file_p) = _require_input(args, "measure")
    prob = VariationalProblem(mu, file_p if args.p is None else args.p,
                              stationarity_tol=args.tol)
    return _emit_report(args, solve_constrained(prob))


def _cmd_solve_smooth(args) -> int:
    # --input reads no grid flag (the grid is the file's), --family constant
    # only --resolution
    grid = _typed_grid(args)
    reads = {None: (), "constant": ("resolution",)}.get(args.family, _GRID)
    unread = [f"--{name}" for name in grid if name not in reads]
    if unread:
        source = "--input" if args.family is None else f"--family {args.family}"
        raise ValueError(f"solve-smooth {source} does not read {', '.join(unread)}")
    if args.family is None:
        _, values = _require_input(args, "density")
    elif args.family == "cos":
        values = cos_density(**grid)
    else:  # the constant density is the cos one at amplitude 0
        values = cos_density(**grid, amplitude=0.0)
    tol = {} if args.tol is None else {"newton_tol": args.tol}
    return _emit_report(args, solve_homotopy(values, args.p, **tol))


def _cmd_verify(args) -> int:
    results = run_suite(seed=args.seed, instances=args.n)
    _emit(args, format_table(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFICATION_FAILURE


def _cmd_plot(args) -> int:
    kind, obj = _require_input(args, "body", "density")
    # theta-implicit values are read back as a support field
    _emit(args, serialize.boundary_svg(SupportField(obj) if kind == "density" else obj))
    return EXIT_OK


def _cmd_generate(args) -> int:
    obj = args.build(args)
    if isinstance(obj, np.ndarray):
        payload = serialize.density_to_dict(obj)
    else:
        payload = serialize.measure_to_dict(obj, args.p)
    path = args.output_path or f"{args.family}.json"
    _write_output(path, serialize.dumps_json(payload))
    sys.stdout.write(f"wrote {path}\n")
    return EXIT_OK


def _trace_summary(trace) -> str | None:
    """One line on how far a failed solve got, or None without a trace."""
    if not trace:
        return None
    if isinstance(trace[0], HomotopyStep):  # t = 0 start, then accepted steps
        return (f"trace: {len(trace) - 1} accepted continuation steps, "
                f"last accepted t = {serialize.echo_float(trace[-1].t)}")
    # discrete: phi at the start body, then after each Newton step; an
    # overflowed phi prints as inf, since the summary must not raise
    phi = trace[-1]
    phi_text = serialize.echo_float(phi) if math.isfinite(phi) else f"{phi:g}"
    return f"trace: {len(trace) - 1} Newton steps, last phi = {phi_text}"


def _command(sub, name: str, help_text: str, *flags, **defaults):
    """Register a subcommand that reads exactly `flags`; `defaults` (its
    handler, a generate family's builder) go to set_defaults."""
    cmd = sub.add_parser(name, help=help_text)
    for flag, kwargs in flags:
        cmd.add_argument(flag, **kwargs)
    cmd.set_defaults(**defaults)
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussmink",
        description="Gaussian surface area measures of planar convex bodies "
                    "and solvers for the associated Minkowski problems.")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "constants", "print the dimensional constants as key=value lines",
             _OUTPUT, _P, ("--n", {"type": int, "default": 2, "help": "ambient dimension"}),
             handler=_cmd_constants)
    _command(sub, "measure", "surface area measure of a body file",
             _INPUT, _OUTPUT, _P, handler=_cmd_measure)
    _command(sub, "solve-discrete", "solve the Minkowski problem for a discrete measure",
             _INPUT, _OUTPUT,
             ("--p", {**_P[1], "default": None,
                      "help": "measure exponent p (default: the file's)"}),
             ("--tol", {"type": _tolerance, "default": 1e-4,
                        "help": "stationarity tolerance"}),
             handler=_cmd_solve_discrete)
    smooth = _command(
        sub, "solve-smooth", "solve the smooth Minkowski problem on the circle",
        _OUTPUT, _P,
        ("--tol", {"type": _tolerance, "help": "Newton tolerance (default: the solver's)"}),
        *_COS, handler=_cmd_solve_smooth)
    source = smooth.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", dest="input_path", help="density JSON file")
    source.add_argument("--family", choices=("constant", "cos"),
                        help="built-in density family")
    _command(sub, "verify", "run the property-check suite", _OUTPUT, _SEED,
             ("--n", {"type": int, "default": 100, "help": "number of random instances"}),
             handler=_cmd_verify)
    _command(sub, "plot", "render a body or field boundary as SVG",
             _INPUT, _OUTPUT, handler=_cmd_plot)
    generate = _command(sub, "generate", "write a named deterministic test input", _OUTPUT)
    families = generate.add_subparsers(dest="family", required=True, metavar="family")
    # the family's own --output keeps a value given before the family name
    output = ("--output", {**_OUTPUT[1], "default": argparse.SUPPRESS})
    for name, help_text, build, *flags in (
            ("uniform-mgon", "total mass 0.3 in equal atoms on the n-th roots of unity",
             lambda a: uniform_mgon_measure(a.n, 0.3),
             ("--n", {"type": int, "default": 8, "help": "atom count"}), _P),
            ("square-measure", "Gaussian surface area measure of the half-volume square",
             lambda a: square_surface_measure(), _P),
            ("cos-density", "even density level (1 + amplitude cos(frequency theta))",
             lambda a: cos_density(**_typed_grid(a)), *_COS),
            ("random-even", "random measure on antipodal pairs of directions",
             lambda a: random_even_measure(np.random.default_rng(a.seed)), _SEED, _P),
            ("hemisphere-bad", "five atoms in an open halfplane (no solution)",
             lambda a: hemisphere_bad_measure(a.seed), _SEED, _P)):
        _command(families, name, help_text, output, *flags,
                 handler=_cmd_generate, build=build)
    return parser


def main(argv=None) -> int:
    """Parse argv, run the subcommand and map failures to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SolverStallError as exc:  # RoundingFloorError included
        print(f"error: {exc}", file=sys.stderr)
        summary = _trace_summary(exc.trace)
        if summary is not None:
            print(summary, file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
