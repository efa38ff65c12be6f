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


def _parse_point(text: str, n: int) -> GenericPoint:
    try:
        values = [_coordinate(token) for token in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise GysinError(f"cannot parse rational vector {text!r}") from None
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


def _emit(args, out, payload: dict, lines: list) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        print("\n".join(lines), file=out)


def build_parser() -> argparse.ArgumentParser:
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
    payload = {"command": "pushforward", "space": args.space, "n": args.n,
               "lambda": list(lam.parts), "method": args.method}
    lines = [f"space: {space.label()}", f"lambda: {lam.to_text()}", f"method: {args.method}"]
    ok = True
    if args.method == "abbv":
        oracle = schur_localization_sum(lam, space, point)
        payload.update(t=[str(v) for v in point.values], oracle=str(oracle))
        lines += [f"t: {','.join(payload['t'])}", f"oracle: {oracle}"]
    elif args.method == "all":
        case = evaluate_case(space, lam, [point] + seeded_points(space.n, 2, args.seed))
        ok = case.ok
        result = PushforwardResult(case.residue, case.closed.mu, case.closed.constant)
        residue, closed = case.residue.render("t"), case.closed.value.render("t")
        methods = {"residue": residue, "closed": closed, "oracle_points": case.oracle_points,
                   "closed_match": case.closed_match, "oracle_match": case.oracle_match}
        payload.update(result.to_dict(), methods=methods, agreement=ok)
        lines += result.text_lines() + [
            f"residue: {residue}", f"closed: {closed}", f"oracle-points: {case.oracle_points}",
            f"agreement: {'ok' if ok else 'MISMATCH'}"]
    else:
        result = closed_form(lam, space) if args.method == "closed" else pushforward_schur(lam, space)
        payload.update(result.to_dict())
        lines += result.text_lines()
    _emit(args, out, payload, lines)
    return EXIT_OK if ok else EXIT_INCONSISTENT


def _cmd_schur(args, out) -> int:
    lam = Partition.from_text(args.lam)
    value = _SCHUR_BUILDERS[args.via](lam, args.n)
    text = value.render("z")
    payload = {"command": "schur", "lambda": list(lam.parts), "n": args.n, "via": args.via,
               "value": value.to_payload("z"), "text": text}
    _emit(args, out, payload, [text])
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    kinds = (SpaceKind(args.space),) if args.space else ALL_KINDS
    report = run_verification(n_max=args.n_max, weight_max=args.weight_max, kinds=kinds,
                              seed=args.seed, oracle_points=args.points)
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
    _emit(args, out, report.to_dict(), lines)
    return EXIT_OK if report.all_ok else EXIT_MISMATCH


def _cmd_table(args, out) -> int:
    rows = table_rows(Space(SpaceKind(args.space), args.n), args.weight_max)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=["space", "n", "lambda", "mu", "constant", "value"],
                            lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    _emit(args, out, {"command": "table", "rows": rows}, [buffer.getvalue().rstrip("\n")])
    return EXIT_OK


_DISPATCH = {
    "pushforward": _cmd_pushforward,
    "schur": _cmd_schur,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_glue_negative_point(argv))
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
