"""Command-line interface: batch analyses over JSON files.

Subcommands: check, synthesize, convert, spectrum, factor, example.
Exit codes: 0 success / realizable, 1 not realizable, 2 input or usage error,
3 inconclusive (sample placement or a numerical linear-algebra step failed).
check, check --theta and synthesize hold a system to one contract, that of
``StateSpace.require_square_channels``: a file it refuses exits 2 with its
one message, whichever of them reads it.
Reports are JSON with sorted keys, written to --output or to stdout;
human-readable diagnostics go to stderr.

``main(argv)`` can be called any number of times in one process: the parser
is built on the first call and reused by every later one.
"""

import argparse
import contextlib
import functools
import sys

import numpy as np

from . import jsonio
from .errors import (
    DimensionError,
    NotRealizableError,
    SchemaError,
    SingularMatrixError,
    StructureError,
)
from .forms import ac_to_pm, pm_to_ac
from .realizability import (
    VERDICT_TOLERANCE,
    check_pr_frequency,
    check_pr_time_domain,
    synthesize,
)
from .skewfactor import cholesky_like
from .statespace import spectrum_report
from .structured import j_matrix
from .worked_example import EXAMPLE_POLES, run_worked_example

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_NOT_PR = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {"PR": EXIT_OK, "not-PR": EXIT_NOT_PR, "inconclusive": EXIT_INCONCLUSIVE}


def _argument(parse, accept, wanted: str):
    """argparse type: ``parse`` of a text that ``accept`` takes; others are usage errors."""
    def convert(text):
        with contextlib.suppress(ValueError):
            if accept(value := parse(text)):
                return value
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
    return convert


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqho",
        description=(
            "Decide physical realizability of linear systems as open quantum "
            "harmonic oscillators, synthesize and convert their parameters, "
            "factor commutation matrices, and report pole/zero diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_input=True, theta=False, sampling=False,
            direction=False, tol=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--input", required=True, metavar="PATH",
                           help="input JSON file")
        p.add_argument("--output", metavar="PATH",
                       help="output JSON file (default: stdout)")
        if theta:
            p.add_argument("--theta", metavar="{J|PATH}", default=None,
                           help="commutation matrix: the literal J or a "
                                "real-matrix JSON file")
        if tol:
            p.add_argument("--tol", default=VERDICT_TOLERANCE, type=_argument(
                               float, lambda t: 0 < t < np.inf, "a finite number above 0"),
                           help="residual tolerance (default 1e-8)")
        if sampling:
            p.add_argument("--samples", type=int, default=20,
                           help="number of frequency sample points (default 20)")
            p.add_argument("--seed", default=42, type=_argument(
                               int, lambda s: s >= 0, "an integer of at least 0"),
                           help="sample placement seed (default 42)")
        if direction:
            p.add_argument("--direction", required=True,
                           choices=("pm2ac", "ac2pm"),
                           help="conversion direction")
        return p

    add("check", "decide realizability of a system", theta=True, sampling=True)
    add("synthesize", "recover oscillator parameters of a realizable system",
        theta=True, sampling=True)
    add("convert", "convert between the two parameterizations", direction=True,
        tol=False)
    add("spectrum", "poles, zeros, mirror and genericity report", tol=False)
    add("factor", "factor a skew-symmetric commutation matrix", tol=False)
    add("example", "run the embedded reference model end to end",
        needs_input=False, sampling=True)
    return parser


def _emit(text: str, output_path) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_USAGE


def _read(path: str, kinds: tuple, decode):
    """``decode`` of the input file at ``path``, which must hold one of
    ``kinds``; every error about the file's content names it once."""
    payload = jsonio.load_path(path, kinds)  # its own errors name the file
    try:
        return decode(payload)
    except (SchemaError, DimensionError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


_read_system = functools.partial(_read, kinds=("state_space", "rational_entries"),
                                 decode=jsonio.system_from_payload)
_read_theta = functools.partial(
    _read, kinds=("real_matrix",),
    decode=functools.partial(jsonio.decode_real_matrix, field="theta"))


def _check_sample_budget(num_samples: int, state_dim: int) -> None:
    if num_samples < state_dim + 1:
        raise SchemaError(
            f"--samples {num_samples} is too small: certification of a system "
            f"with {state_dim} states needs at least {state_dim + 1} points"
        )


def _cmd_check(args) -> int:
    ss = _read_system(args.input)
    if args.theta is None:
        _check_sample_budget(args.samples, ss.state_dim)
        report = check_pr_frequency(ss, tol=args.tol, num_samples=args.samples,
                                    seed=args.seed)
    else:
        ss.require_square_channels()  # the contract of every check, before J is built
        theta = j_matrix(ss.state_dim) if args.theta == "J" else _read_theta(args.theta)
        report = check_pr_time_domain(ss, theta, tol=args.tol)
    _emit(jsonio.dumps(jsonio.encode_pr_report(report)), args.output)
    if report.failure_reason:
        sys.stderr.write(f"{report.verdict}: {report.failure_reason}\n")
    return _VERDICT_EXIT[report.verdict]


def _cmd_synthesize(args) -> int:
    ss = _read_system(args.input)
    _check_sample_budget(args.samples, ss.state_dim)
    # None selects the J of the minimal state's size
    theta = None if args.theta in (None, "J") else _read_theta(args.theta)
    try:
        result = synthesize(ss, theta_target=theta, tol=args.tol,
                            num_samples=args.samples, seed=args.seed)
    except NotRealizableError as exc:
        if exc.report is not None:  # the report of the check that refused
            _emit(jsonio.dumps(jsonio.encode_pr_report(exc.report)), args.output)
        raise
    _emit(jsonio.dumps(jsonio.encode_synthesis_result(result)), args.output)
    if result.reduced_from is not None:
        sys.stderr.write(
            f"note: input reduced from {result.reduced_from} to "
            f"{result.params.R.shape[0]} states before synthesis\n"
        )
    return EXIT_OK


# direction -> (input payload kind, its decoder, conversion to the output payload)
_CONVERSIONS = {
    "pm2ac": ("pm_params", jsonio.decode_pm_params,
              lambda params: jsonio.encode_ac_params(pm_to_ac(params))),
    "ac2pm": ("ac_params", jsonio.decode_ac_params,
              lambda params: jsonio.encode_pm_params(ac_to_pm(params))),
}


def _cmd_convert(args) -> int:
    kind, decode, convert = _CONVERSIONS[args.direction]
    _emit(jsonio.dumps(convert(_read(args.input, (kind,), decode))), args.output)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    report = spectrum_report(_read_system(args.input))
    _emit(jsonio.dumps(jsonio.encode_spectrum_report(report)), args.output)
    return EXIT_OK


def _cmd_factor(args) -> int:
    theta = _read(args.input, ("real_matrix",), jsonio.decode_real_matrix)
    fact = cholesky_like(theta)
    _emit(jsonio.dumps(jsonio.encode_skew_factorization(fact)), args.output)
    sys.stderr.write(
        f"reconstruction residual: {fact.reconstruction_residual(theta):.3e}\n"
    )
    return EXIT_OK


def _cmd_example(args) -> int:
    _check_sample_budget(args.samples, len(EXAMPLE_POLES))  # its state dimension
    lines, payload = run_worked_example(tol=args.tol, num_samples=args.samples,
                                        seed=args.seed)
    sys.stdout.write("\n".join(lines) + "\n")
    if args.output:
        _emit(jsonio.dumps(payload), args.output)
    return EXIT_OK


_DISPATCH = {
    "check": _cmd_check,
    "synthesize": _cmd_synthesize,
    "convert": _cmd_convert,
    "spectrum": _cmd_spectrum,
    "factor": _cmd_factor,
    "example": _cmd_example,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except np.linalg.LinAlgError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_INCONCLUSIVE
    except NotRealizableError as exc:  # synthesize or example refused
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NOT_PR if exc.report is None else _VERDICT_EXIT[exc.report.verdict]
    except (SchemaError, DimensionError, StructureError, SingularMatrixError,
            ValueError, OSError) as exc:
        return _fail(str(exc))


def entrypoint() -> None:
    raise SystemExit(main())
