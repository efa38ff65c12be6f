"""Command-line interface.

Commands:
  pushforward  compute one push-forward (residue, closed form, oracle or all)
  schur        print a Schur polynomial
  verify       sweep all three methods over a partition range
  table        tabulate push-forwards as CSV or JSON

Exit codes: 0 ok, 1 verification mismatch, 2 invalid usage or input,
3 internal inconsistency between methods, 141 output pipe closed by its
reader (as for a filter killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from fractions import Fraction

from .errors import ExplicitSizeLimit, GysinError, InternalInconsistency
from .localization import GenericPoint, default_point, schur_localization_sum, seeded_points
from .partitions import Partition
from .pushforward import PushforwardResult, closed_form, pushforward_schur
from .schur import schur_bialternant, schur_tableaux
from .spaces import Space, SpaceKind
from .verification import ALL_KINDS, evaluate_case, run_verification, table_rows

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_CLOSED_PIPE = 141

_SCHUR_BUILDERS = {
    "bialternant": schur_bialternant,
    "tableaux": schur_tableaux,
}


# Python prints no integer of more digits, so no --t coordinate may be
# longer.  Fraction builds 10**e for an exponent e, but the digits before
# and after the point each number at most this many, so past twice as
# many the value cannot fit: such an exponent is refused before the power.
MAX_COORDINATE_DIGITS = 4300
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*$", re.IGNORECASE)


def _coordinate(token: str) -> Fraction:
    exponent = _EXPONENT.search(token)
    if not exponent or abs(int(exponent[1])) <= 2 * MAX_COORDINATE_DIGITS:
        value = Fraction(token.strip())
        if max(abs(value.numerator), value.denominator) < 10 ** MAX_COORDINATE_DIGITS:
            return value
    raise ExplicitSizeLimit(f"--t coordinates are limited to {MAX_COORDINATE_DIGITS} digits")


# a bad --t coordinate is quoted up to this many characters
_SHOWN_CHARS = 20


def _parse_point(text: str, n: int) -> GenericPoint:
    values = []
    for token in text.split(","):
        try:
            values.append(_coordinate(token))
        except (ValueError, ZeroDivisionError):
            shown = repr(token[:_SHOWN_CHARS])
            if len(token) > _SHOWN_CHARS:
                shown += f"... ({len(token)} characters)"
            raise GysinError(f"cannot parse --t coordinate {shown}") from None
    if len(values) != n:
        raise GysinError(f"expected {n} coordinates in --t, got {len(values)}")
    return GenericPoint(values)


# A value that starts with "-" and is not a plain number is read by argparse
# as an option name, so "--t -1/2,3" is glued into "--t=-1/2,3".
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _glue_negative_point(argv: list) -> list:
    if not argv or argv[0] != "pushforward":
        return argv
    out = []
    for token in argv:
        if out and out[-1] == "--t" and _NEGATIVE_VALUE.match(token):
            out[-1] = f"--t={token}"
        else:
            out.append(token)
    return out


def _emit(args, out, payload, lines) -> None:
    """Write only the requested format: ``payload()`` as JSON, or the text
    ``lines()``."""
    if args.format == "json":
        write_json(payload(), out)
    else:
        print("\n".join(lines()), file=out)


# json.dumps writes this string as "\u0000"
_HOLE = "\0"
_HOLE_JSON = json.dumps(_HOLE)
_quote = json.encoder.encode_basestring_ascii  # json.dumps's own string encoder


def write_json(payload, out) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline to ``out``.

    Every "terms" list, the {"coeff", "exp"} records of
    ``SparsePoly.to_records``, is cut out before json.dumps runs and
    streamed in its place one record at a time, from a template for its
    depth and exponent count.  The records are the bulk of a large output,
    and json.dumps encodes in pure Python when it indents.
    """
    cut = []
    pieces = json.dumps(_cut_terms(payload, cut), indent=2).split(_HOLE_JSON)
    if len(pieces) != len(cut) + 1:  # a payload string ends like a hole
        pieces, cut = [json.dumps(payload, indent=2)], []
    for piece, records in zip(pieces, cut):
        out.write(piece)
        line = piece[piece.rfind("\n") + 1:]
        _write_records(records, line[:len(line) - len(line.lstrip(" "))], out)
    print(pieces[-1], file=out)


def _cut_terms(value, cut: list):
    """A copy of ``value`` with each "terms" list moved to ``cut``, in
    document order, and a hole in its place."""
    if isinstance(value, dict):
        copy = {}
        for key, item in value.items():
            if key == "terms":
                cut.append(item)
                copy[key] = _HOLE
            else:
                copy[key] = _cut_terms(item, cut)
        return copy
    if isinstance(value, list):
        return [_cut_terms(item, cut) for item in value]
    return value


def _write_records(records: list, indent: str, out) -> None:
    """The records of one polynomial, whose exponent vectors have one
    length, as json.dumps indents them on a line indented by ``indent``."""
    if not records:
        out.write("[]")
        return
    inner, nvars = indent + "  ", len(records[0]["exp"])
    exp = "[\n" + ",\n".join([f"{inner}    %d"] * nvars) + f"\n{inner}  ]" if nvars else "[]"
    template = f'{inner}{{\n{inner}  "coeff": %s,\n{inner}  "exp": {exp}\n{inner}}}'
    out.write("[\n")
    separator = ""
    for record in records:
        out.write(separator + template % (_quote(record["coeff"]), *record["exp"]))
        separator = ",\n"
    out.write(f"\n{indent}]")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call in a process."""
    parser = argparse.ArgumentParser(
        prog="gysin",
        description=(
            "Exact push-forwards of Schur and symmetric-polynomial classes "
            "over Lagrangian and orthogonal Grassmannians."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    spaces = [k.value for k in SpaceKind]

    p_push = sub.add_parser("pushforward", help="push one Schur class forward")
    p_push.add_argument("--space", required=True, choices=spaces)
    p_push.add_argument("--n", required=True, type=int)
    p_push.add_argument("--lambda", dest="lam", required=True, metavar="LAMBDA",
                        help='partition, e.g. "4,3,1" ("0" for empty)')
    p_push.add_argument("--method", choices=("residue", "closed", "abbv", "all"),
                        default="residue")
    p_push.add_argument("--t", help="rational evaluation point for the abbv and all methods, "
                        "e.g. \"1,2\" or \"1/2,3\"; every method validates it")

    p_schur = sub.add_parser("schur", help="print a Schur polynomial")
    p_schur.add_argument("--lambda", dest="lam", required=True, metavar="LAMBDA")
    p_schur.add_argument("--n", required=True, type=int)
    p_schur.add_argument("--via", choices=sorted(_SCHUR_BUILDERS), default="bialternant",
                         help="construction to use (debugging aid)")

    p_verify = sub.add_parser("verify", help="cross-validate all three methods")
    p_verify.add_argument("--space", choices=spaces,
                          help="restrict to one space kind (default: all)")
    p_verify.add_argument("--n-max", type=int, default=3)
    p_verify.add_argument("--weight-max", type=int, default=9)
    p_verify.add_argument("--points", type=int, default=2,
                          help="seeded oracle points per case (plus the default point)")

    p_table = sub.add_parser("table", help="tabulate push-forwards")
    p_table.add_argument("--space", required=True, choices=spaces)
    p_table.add_argument("--n", required=True, type=int)
    p_table.add_argument("--weight-max", type=int, default=6)

    for p in (p_push, p_schur, p_verify, p_table):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0, help="seed for generic points")
    return parser


def _cmd_pushforward(args, out) -> int:
    space = Space(SpaceKind(args.space), args.n)
    lam = Partition.from_text(args.lam)
    point = _parse_point(args.t, space.n) if args.t else default_point(space.n)
    head = {"command": "pushforward", "space": args.space, "n": args.n,
            "lambda": list(lam.parts), "method": args.method}
    head_lines = [f"space: {space.label()}", f"lambda: {lam.to_text()}",
                  f"method: {args.method}"]
    if args.method == "abbv":
        oracle = str(schur_localization_sum(lam, space, point))
        t = [str(v) for v in point.values]
        _emit(args, out, lambda: {**head, "t": t, "oracle": oracle},
              lambda: head_lines + [f"t: {','.join(t)}", f"oracle: {oracle}"])
        return EXIT_OK
    ok, checks, check_lines = True, {}, []
    if args.method == "all":
        case = evaluate_case(space, lam, [point] + seeded_points(space.n, 2, args.seed))
        ok = case.ok
        result = PushforwardResult(case.residue, case.closed.mu, case.closed.constant)
        text = case.residue.render("t")
        closed = text if case.closed_match else case.closed.value.render("t")
        checks = {"methods": {"residue": text, "closed": closed,
                              "oracle_points": case.oracle_points,
                              "closed_match": case.closed_match,
                              "oracle_match": case.oracle_match},
                  "agreement": ok}
        check_lines = [f"residue: {text}", f"closed: {closed}",
                       f"oracle-points: {case.oracle_points}",
                       f"agreement: {'ok' if ok else 'MISMATCH'}"]
    else:
        result = closed_form(lam, space) if args.method == "closed" else pushforward_schur(lam, space)
        text = result.value.render("t")
    _emit(args, out,
          lambda: {**head, "value": result.value.to_payload("t"), "text": text,
                   **result.decomposition(), **checks},
          lambda: head_lines + [f"value: {text}"] + [
              f"{key}: {field}" for key, field in result.decomposition_text().items()
          ] + check_lines)
    return EXIT_OK if ok else EXIT_INCONSISTENT


def _cmd_schur(args, out) -> int:
    lam = Partition.from_text(args.lam)
    value = _SCHUR_BUILDERS[args.via](lam, args.n)
    text = value.render("z")
    _emit(args, out,
          lambda: {"command": "schur", "lambda": list(lam.parts), "n": args.n, "via": args.via,
                   "value": value.to_payload("z"), "text": text},
          lambda: [text])
    return EXIT_OK


def _verify_lines(args, kinds, report) -> list:
    lines = [
        f"verify: spaces={','.join(k.value for k in kinds)} n-max={args.n_max} "
        f"weight-max={args.weight_max} seed={args.seed} points={args.points + 1}"
    ]
    for case in report.cases:
        decomposition = case.closed.decomposition_text().items()
        extras = "".join(f" {key}={text}" for key, text in decomposition)
        lines.append(
            f"{'ok  ' if case.ok else 'FAIL'} {case.space.label()} lambda={case.lam.to_text()} "
            f"value={case.residue.render('t')}{extras} oracle={case.oracle_match}"
        )
    for n, constant in sorted(report.og_even_constants().items()):
        lines.append(f"og-even constant n={n}: {constant} (= 2^(n-1), not 2^n)")
    lines.append(f"result: {'PASS' if report.all_ok else 'FAIL'} ({len(report.cases)} cases)")
    return lines


def _cmd_verify(args, out) -> int:
    kinds = (SpaceKind(args.space),) if args.space else ALL_KINDS
    report = run_verification(n_max=args.n_max, weight_max=args.weight_max, kinds=kinds,
                              seed=args.seed, oracle_points=args.points)
    _emit(args, out, report.to_dict, lambda: _verify_lines(args, kinds, report))
    return EXIT_OK if report.all_ok else EXIT_MISMATCH


def _cmd_table(args, out) -> int:
    rows = table_rows(Space(SpaceKind(args.space), args.n), args.weight_max)
    _emit(args, out, lambda: {"command": "table", "rows": rows}, lambda: [_csv(rows)])
    return EXIT_OK


def _csv(rows: list) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=["space", "n", "lambda", "mu", "constant", "value"],
                            lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


_DISPATCH = {
    "pushforward": _cmd_pushforward,
    "schur": _cmd_schur,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_glue_negative_point(argv))
    try:
        code = _DISPATCH[args.command](args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone, as after `| head`; the last flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (GysinError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
