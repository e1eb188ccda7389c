"""Batch command-line front end.

Subcommands: gens, decompose, act, period, orbit, verify.  All output is
JSON (or CSV for orbits) with exact rationals encoded as strings; given the
same seed and flags the output is byte-identical.  Exit codes: 0 success,
1 input error (malformed arguments, a flag the subcommand does not read,
more than MAX_STEPS orbit steps or MAX_TRIALS trials, a --bound above
MAX_BOUND, or a verification whose samples were almost all degenerate at
the given --bound), 2 domain error (element outside the group, norm
mismatch, or a failed verification), 3 indeterminate evaluation.  Every
nonzero exit but a failed verification writes one JSON error line to
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import __version__
from .birational import (
    SAMPLE_BOUND, Indeterminate, ProjectiveCoord, TooManyDegenerateSamples, eval_word, generator_step, param_rows
)
from .decompose import NotInGroup, decompose
from .models import (
    CONJUGATOR_WORD,
    OrbitTrace,
    PHI_PIC_ACTION,
    PSI_PIC_ACTION,
    SchlesingerParams,
    _indices,
    phi_orbit,
    psi_orbit,
)
from .periodmap import root_variables
from .serialize import coord_decimal, decimal_str, parse_fraction_list, parse_params, parse_point, parse_schlesinger
from .verify import MAX_WORD_LENGTH, SCHLESINGER_BOUND, SUITES, TRIALS, run_suite
from .weylgroup import NormMismatch, PicMap, SYMBOLS, parse_word, word_to_picmap

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DOMAIN = 2
EXIT_INDETERMINATE = 3

MAX_STEPS = 10_000  # step 28 of the README phi orbit already holds about 46,000 bits
MAX_TRIALS = 100_000
MAX_BOUND = 10**18  # a draw's cost grows with the bound's digits: verify all --trials 1 takes 1 s at 10**1000

NAMED_ELEMENTS = {
    "phi": lambda: PHI_PIC_ACTION,
    "psi": lambda: PSI_PIC_ACTION,
    "conjugator": lambda: word_to_picmap(CONJUGATOR_WORD),
}


class InputError(ValueError):
    """Malformed command-line input or input file."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InputError instead of exiting."""

    def error(self, message: str):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parse_args leaves it unchanged)."""
    parser = _Parser(
        prog="e6painleve",
        description="Exact Weyl-group machinery for the additive discrete "
        "Painleve family with E6 affine symmetry.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gens", help="dump the generator tables")

    p_dec = sub.add_parser("decompose", help="write a lattice map as a word")
    p_dec.add_argument("--element", choices=sorted(NAMED_ELEMENTS))
    p_dec.add_argument("--picmap", metavar="FILE", help="JSON file with a 10x10 integer matrix")
    p_dec.add_argument("--trace", action="store_true", help="include the reduction steps")

    p_act = sub.add_parser("act", help="apply a word to (b; f, g)")
    p_act.add_argument("--word", required=True, help="comma-separated generator symbols")
    p_act.add_argument("--b", required=True, help="eight comma-separated rationals")
    p_act.add_argument("--point", required=True, help="f,g as rationals or inf")

    p_per = sub.add_parser("period", help="root variables of a parameter vector")
    p_per.add_argument("--b", required=True, help="eight comma-separated rationals")

    p_orb = sub.add_parser("orbit", help="iterate one of the built-in dynamics")
    p_orb.add_argument("--map", required=True, choices=("phi", "psi"))
    p_orb.add_argument("--steps", required=True, type=int)
    p_orb.add_argument("--b", help="phi: eight comma-separated rationals")
    p_orb.add_argument("--theta", help="psi: theta01,theta02,theta11,theta12,kappa1,kappa2,kappa3")
    p_orb.add_argument(
        "--point", required=True, help="initial point (phi: f,g as rationals or inf; psi: x,y as rationals)"
    )
    p_orb.add_argument("--format", choices=("json", "csv"), default="json")

    p_ver = sub.add_parser("verify", help="run an invariant suite")
    p_ver.add_argument("suite", choices=SUITES)
    p_ver.add_argument("--seed", type=int, default=0, help="seed for all randomized behavior")
    p_ver.add_argument("--trials", type=int, default=TRIALS, help="draws per randomized check")
    p_ver.add_argument(
        "--max-word-length", type=int, default=MAX_WORD_LENGTH, dest="max_word_length",
        help="search depth bound for conjugator search",
    )
    p_ver.add_argument(
        "--bound", type=int, default=SAMPLE_BOUND,
        help="numerator/denominator bound for random samples (the period suite draws nothing; "
        f"the Schlesinger samples of the psi-word and transport checks keep bound {SCHLESINGER_BOUND})",
    )

    return parser


def _print(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


@contextlib.contextmanager
def _exact_output():
    """Lift CPython's 4300-digit int-to-str limit (3.11+) while a handler writes its output."""
    old_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if old_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


def cmd_gens(args: argparse.Namespace) -> int:
    generators = []
    for symbol in SYMBOLS:
        step = generator_step(symbol)
        generators.append(
            {
                "symbol": symbol,
                "picmap": step.picmap.to_json(),
                "param_matrix": [[str(dict(row).get(j, 0)) for j in range(8)] for row in param_rows(symbol)],
                # The induced parameter action is linear.
                "param_shift": ["0"] * 8,
                "coord_f": str(step.coord_f),
                "coord_g": str(step.coord_g),
            }
        )
    _print({"symbols": list(SYMBOLS), "generators": generators})
    return EXIT_OK


def _load_picmap(args: argparse.Namespace) -> PicMap:
    if (args.element is None) == (args.picmap is None):
        raise InputError("provide exactly one of --element or --picmap")
    if args.element is not None:
        return NAMED_ELEMENTS[args.element]()
    try:
        with open(args.picmap, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        rows = tuple(tuple(row) for row in data)
        if not all(type(x) is int for row in rows for x in row):
            raise ValueError("matrix entries must be integers")
        return PicMap(rows)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read picmap file: {exc}") from exc


def cmd_decompose(args: argparse.Namespace) -> int:
    m = _load_picmap(args)
    if args.trace:
        word, steps = decompose(m, trace=True)
    else:
        word, steps = decompose(m), ()
    # decompose raises NotInGroup unless its word reproduces m.
    out = {"word": list(word), "length": len(word), "verified": True}
    if args.trace:
        out["trace"] = [
            {"index": s.index, "images": [list(img.coeffs) for img in s.images]}
            for s in steps
        ]
    _print(out)
    return EXIT_OK


def cmd_act(args: argparse.Namespace) -> int:
    try:
        word = parse_word(s.strip() for s in args.word.split(","))
        b = parse_params(args.b)
        point = parse_point(args.point)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    new_b, new_p = eval_word(word, b, point)
    with _exact_output():
        _print({"b": new_b.to_json(), "point": new_p.to_json()})
    return EXIT_OK


def cmd_period(args: argparse.Namespace) -> int:
    try:
        b = parse_params(args.b)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    a = root_variables(b)
    with _exact_output():
        _print({"a": a.to_json(), "chi_delta": str(a.chi_delta())})
    return EXIT_OK


def _emit_orbit(trace: OrbitTrace, fmt: str) -> None:
    """Write an orbit as JSON lines or CSV, with its map's parameter and point columns."""
    if trace.kind == "phi":
        key, columns, values = "b", [f"b{i}" for i in range(1, 9)], lambda b: b.b
        point, point_json, point_decimal = ("f", "g"), ProjectiveCoord.to_json, coord_decimal
    else:
        key, columns, values = "theta", list(SchlesingerParams._fields), _indices
        point, point_json, point_decimal = ("x", "y"), str, decimal_str
    with _exact_output():
        if fmt == "csv":
            sys.stdout.write(",".join(["step", *columns, *point]) + "\n")
        for entry in trace.entries:
            if fmt == "csv":
                cells = [str(entry.step), *map(decimal_str, values(entry.params)), *map(point_decimal, entry.point)]
                sys.stdout.write(",".join(cells) + "\n")
            else:
                _print({"step": entry.step, key: entry.params.to_json(), **dict(zip(point, map(point_json, entry.point)))})


def cmd_orbit(args: argparse.Namespace) -> int:
    if args.steps < 0:
        raise InputError("--steps must be nonnegative")
    if args.steps > MAX_STEPS:
        raise InputError(f"--steps must be at most {MAX_STEPS}")
    own, other = ("b", "theta") if args.map == "phi" else ("theta", "b")
    if getattr(args, own) is None:
        raise InputError(f"--map {args.map} requires --{own}")
    if getattr(args, other) is not None:
        raise InputError(f"--map {args.map} does not take --{other}")
    try:
        if args.map == "phi":
            b = parse_params(args.b)
            point = parse_point(args.point)
        else:
            t = parse_schlesinger(args.theta)
            x, y = parse_fraction_list(args.point, 2)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        if args.map == "phi":
            trace = phi_orbit(b, point, args.steps)
        else:
            trace = psi_orbit(t, x, y, args.steps)
    except Indeterminate as exc:
        partial = getattr(exc, "partial_trace", None)
        if partial is not None:
            _emit_orbit(partial, args.format)
        raise
    _emit_orbit(trace, args.format)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, cap in (("trials", MAX_TRIALS), ("bound", MAX_BOUND)):
        if getattr(args, flag) <= 0:
            raise InputError(f"--{flag} must be positive")
        if getattr(args, flag) > cap:
            raise InputError(f"--{flag} must be at most {cap}")
    if args.max_word_length < 0:
        raise InputError("--max-word-length must be nonnegative")
    checks = run_suite(
        args.suite,
        trials=args.trials,
        seed=args.seed,
        max_word_length=args.max_word_length,
        bound=args.bound,
    )
    passed = all(c.passed for c in checks)
    _print({"suite": args.suite, "passed": passed, "checks": [c.to_json() for c in checks]})
    return EXIT_OK if passed else EXIT_DOMAIN


def _error(code: int, kind: str, message: str, **details) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message, **details}) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "gens": cmd_gens,
        "decompose": cmd_decompose,
        "act": cmd_act,
        "period": cmd_period,
        "orbit": cmd_orbit,
        "verify": cmd_verify,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit:  # --help and --version print and exit 0
        return EXIT_OK
    except InputError as exc:
        return _error(EXIT_INPUT, "input", str(exc))
    except TooManyDegenerateSamples as exc:
        return _error(EXIT_INPUT, "input", f"{exc}; raise --bound to draw from more values")
    except (NotInGroup, NormMismatch) as exc:
        return _error(EXIT_DOMAIN, "domain", str(exc))
    except Indeterminate as exc:
        details = {"step_index": exc.step_index, "symbol": exc.symbol}
        return _error(
            EXIT_INDETERMINATE, "indeterminate", str(exc),
            **{key: value for key, value in details.items() if value is not None},
        )


if __name__ == "__main__":
    raise SystemExit(main())
