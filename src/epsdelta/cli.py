"""Command-line interface.

One subcommand per operation; every command takes ``--output json|csv``
and prints a single deterministic document to stdout.  Exit codes:
0 success, 1 analysis errors (empty level set, precondition failures,
escapes from the domain, a result JSON cannot hold), 2 usage and parse
errors.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys

# library names go through the package: the first lookup of a name
# imports its module, so a process loads only its own command's modules
import epsdelta as ed

from .functions import _NUMBER, _Parser
from .serialize import csv_text, json_text

# rows of an envelope the CLI prints: its values as Python floats, the
# row template and the text take about 210 bytes a row of JSON at peak
# (0.9 GB at 2^22 + 1 rows), so the 2^24 + 1 point budget would need 3.5 GB
MAX_ENVELOPE_ROWS: int = 2 ** 22 + 1

# argparse's own pattern has no exponent and no inf, so it would read
# -1e3 or -inf as an option
_NEGATIVE_NUMBER = re.compile(rf"^-(?:{_NUMBER}|inf)$")


def _real(text: str, many: bool = False, read=lambda parser: parser.number(inf=True)):
    """A number as in function specs or a signed inf, or what ``read`` takes;
    with ``many`` set, a list of one or more of them, comma-separated."""
    try:
        parser = _Parser(text)
        values = [read(parser)]
        while many and parser.peek()[1] == ",":
            parser.take()
            values.append(read(parser))
        parser.end()
    except ed.ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return values if many else values[0]


def _count(text: str) -> int:
    return _real(text, read=_Parser.count)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsdelta",
        description="Optimal uniform-continuity tolerances, certified extrema, bisection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--fn", required=True, help="function spec, e.g. 'power(alpha=2,b=1)'")
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--lo", type=_real, default=None, help="domain low end (poly only)")
        p.add_argument("--hi", type=_real, default=None, help="domain high end (poly only)")
        return p

    p = add("delta-profile", "tolerance profile over a batch of epsilons")
    p.add_argument("--eps", type=lambda text: _real(text, many=True), required=True,
                   help="comma-separated epsilons")
    p.add_argument("--resolution", type=_count, default=4096)
    p.add_argument("--refine", type=_count, default=2)

    p = add("delta", "optimal tolerance for one epsilon")
    p.add_argument("--eps", type=_real, required=True)
    p.add_argument("--resolution", type=_count, default=4096)
    p.add_argument("--refine", type=_count, default=2)
    p.add_argument("--closed-form", action="store_true", help="use the exact formula")

    p = add("modulus", "largest value gap over pairs at most delta apart")
    p.add_argument("--delta", type=_real, required=True)
    p.add_argument("--resolution", type=_count, default=4096)

    p = add("verify-delta", "check a claimed tolerance for validity and maximality")
    p.add_argument("--eps", type=_real, required=True)
    p.add_argument("--delta", type=_real, required=True)
    p.add_argument("--resolution", type=_count, default=4096)

    p = add("maximize", "dyadic extremum refinement with a certified bound")
    p.add_argument("--level", type=_count, required=True, help="deepest net level")
    p.add_argument("--resolution", type=_count, default=4096, help="modulus grid resolution")

    p = add("envelope", "running maximum of f along the domain")
    p.add_argument("--resolution", type=_count, default=4096)

    p = add("bisect", "bracket a boundary crossing of a target set")
    p.add_argument("--target", required=True, help="target set, e.g. '(-inf,0)' or '(0,1)u(2,3)'")
    p.add_argument("--steps", type=_count, required=True)

    p = add("ivt", "classical intermediate-value bisection for f(x) = c")
    p.add_argument("--c", type=_real, required=True)
    p.add_argument("--steps", type=_count, required=True)

    p = add("fixpoint", "bracket a fixed point of a self-map")
    p.add_argument("--steps", type=_count, required=True)
    return parser


def _resolve_function(args: argparse.Namespace) -> ed.RealFunction:
    f = ed.parse_function(args.fn)
    if args.lo is None and args.hi is None:
        return f
    if not isinstance(f, ed.Polynomial):
        raise argparse.ArgumentTypeError(
            "--lo/--hi only apply to poly functions; other families fix their own domain"
        )
    lo = args.lo if args.lo is not None else f.domain.lo
    hi = args.hi if args.hi is not None else f.domain.hi
    return ed.Polynomial(f.coefficients, ed.Interval(lo, hi))


def _dispatch(args: argparse.Namespace) -> str:
    """The document one command prints; each command is one branch."""
    f = _resolve_function(args)
    result = None
    if args.command == "delta" and args.closed_form:
        result = ed.optimal_delta_closed_form(f, args.eps)
    elif args.command in ("delta-profile", "delta"):
        cfg = ed.GridConfig(resolution=args.resolution, refine_rounds=args.refine)
        search = ed.build_profile if args.command == "delta-profile" else ed.optimal_delta_grid
        result = search(f, args.eps, cfg)
    elif args.command == "verify-delta":
        result = ed.verify_largest_delta(f, args.eps, args.delta, args.resolution)
    elif args.command == "modulus":
        columns = ("delta", "modulus")
        rows = [(args.delta, ed.modulus_of_continuity(f, args.delta, args.resolution))]
        doc = dict(zip(columns, rows[0]))
    elif args.command == "envelope":
        if args.resolution > MAX_ENVELOPE_ROWS:
            raise ed.LevelTooLarge(f"resolution {args.resolution} exceeds the maximum "
                                   f"{MAX_ENVELOPE_ROWS} rows of a printed envelope")
        # the emitters print a float array through one row template
        columns, rows = ("x", "g"), ed.envelope(f, args.resolution)
        doc = {"points": rows}
    elif args.command == "maximize":
        from .extremum import _certified_bound

        trace = ed.refine_extrema(f, args.level)
        # one grid of --resolution points gives the modulus and the maximizer
        bound, first = _certified_bound(f, trace, trace.levels[-1], args.resolution)
        # both read the trace after the bound fills its last certified_gap
        columns, rows = trace.table()
        doc = trace.to_json_dict()
        doc["certified_bound"] = bound
        if args.output == "json":
            doc["first_maximizer"] = first
    elif args.command == "bisect":
        result = ed.bisect_boundary(f, ed.parse_target_set(args.target), args.steps)
    elif args.command == "ivt":
        result = ed.classical_ivt(f, args.c, args.steps)
    else:
        result = ed.fixed_point(f, args.steps)
    if result is not None:
        doc, (columns, rows) = result.to_json_dict(), result.table()
    return json_text(doc) if args.output == "json" else csv_text(columns, rows)


def run(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        text = _dispatch(args)
    except (ed.ParseError, argparse.ArgumentTypeError, ValueError) as exc:
        # ahead of EpsDeltaError: a ParseError is one, and it is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ed.EpsDeltaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def main() -> None:
    # what is loaded by now lives until exit: no later collection, the
    # final ones at exit included, walks it again
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
