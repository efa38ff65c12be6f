import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gysin.cli import build_parser, main, write_json
from gysin.partitions import Partition
from gysin.poly import SparsePoly
from schur_reference import schur_jacobi_trudi

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- schur ----------------------------------------------------------------

def test_schur_command(capsys):
    code, out, _ = run_cli(capsys, "schur", "--lambda", "2,1", "--n", "2")
    assert code == 0
    assert out == "z1^2*z2 + z1*z2^2\n"


def test_schur_one_part(capsys):
    code, out, _ = run_cli(capsys, "schur", "--lambda", "1", "--n", "3")
    assert code == 0
    assert out == "z1 + z2 + z3\n"


def test_schur_empty_partition(capsys):
    code, out, _ = run_cli(capsys, "schur", "--lambda", "0", "--n", "2")
    assert code == 0
    assert out == "1\n"


@pytest.mark.parametrize("via", ["bialternant", "tableaux"])
def test_schur_constructions_agree(capsys, via):
    code, out, _ = run_cli(capsys, "schur", "--lambda", "3,1", "--n", "3", "--via", via)
    assert code == 0
    assert out == "z1^3*z2 + z1^3*z3 + z1^2*z2^2 + 2*z1^2*z2*z3 + z1^2*z3^2 + " \
        "z1*z2^3 + 2*z1*z2^2*z3 + 2*z1*z2*z3^2 + z1*z3^3 + z2^3*z3 + " \
        "z2^2*z3^2 + z2*z3^3\n"


def test_schur_invalid_partition_exits_2(capsys):
    code, _, err = run_cli(capsys, "schur", "--lambda", "1,3", "--n", "2")
    assert code == 2
    assert "error" in err


def test_schur_too_many_parts_exits_2(capsys):
    code, _, _ = run_cli(capsys, "schur", "--lambda", "1,1,1", "--n", "2")
    assert code == 2


def test_schur_tableaux_take_any_number_of_boxes(capsys):
    # the tableau sum adds one variable at a time, so its depth is the
    # number of variables and a 2000-box row is no deeper than one box
    assert run_cli(capsys, "schur", "--via", "tableaux", "--n", "1", "--lambda", "2000") == (
        0, "z1^2000\n", "")


@pytest.mark.parametrize("via", ["tableaux"])
@pytest.mark.parametrize("n, lam, message", [
    ("1000", "1,1", "got at least 499500000"),
    ("1000000000", "1", "got at least 1000000000000000000"),
], ids=["count", "lower-bound"])
def test_schur_many_variables_exits_2(capsys, via, n, lam, message):
    # every term holds n exponents, and s_lambda has at least as many terms
    # as lambda padded to n parts has distinct permutations: 499,500 at
    # n = 1000 and 10^9 at n = 10^9, counted without padding lambda
    start = time.perf_counter()
    assert run_cli(capsys, "schur", "--via", via, "--n", n, "--lambda", lam) == (
        2, "", f"error: Schur terms times variables limited to 67108864, {message}\n")
    assert time.perf_counter() - start < 1


def test_schur_tableaux_one_term_in_many_variables(capsys):
    # s_() has one term however many variables; its n levels of one shape
    # each are not walked, so a million variables take no per-level work
    start = time.perf_counter()
    assert run_cli(capsys, "schur", "--via", "tableaux", "--n", "1000000", "--lambda", "0") == (
        0, "1\n", "")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("via", ["bialternant", "tableaux"])
def test_schur_long_first_row_exits_2(capsys, via):
    # s_(1000) in 8 variables has C(1007, 7) terms: the monomials of degree
    # 1000 are all dominated by (1000), and both constructions count them
    # before any work
    start = time.perf_counter()
    assert run_cli(capsys, "schur", "--via", via, "--n", "8", "--lambda", "1000") == (
        2, "", "error: Schur terms times variables limited to 67108864, "
               "got at least 1632260264733563608\n")
    assert time.perf_counter() - start < 1


# -- pushforward -------------------------------------------------------------

def test_pushforward_value_with_decomposition(capsys):
    code, out, _ = run_cli(
        capsys, "pushforward", "--space", "og-odd", "--n", "1", "--lambda", "3"
    )
    assert code == 0
    assert "value: 2*t1^2" in out
    assert "mu: 1" in out
    assert "constant: 2" in out


def test_pushforward_zero(capsys):
    code, out, _ = run_cli(
        capsys, "pushforward", "--space", "lg", "--n", "2", "--lambda", "3,1"
    )
    assert code == 0
    assert "value: 0" in out
    assert "mu:" not in out


def test_pushforward_method_all_agrees(capsys):
    code, out, _ = run_cli(
        capsys, "pushforward", "--space", "lg", "--n", "2", "--lambda", "2,1",
        "--method", "all",
    )
    assert code == 0
    assert "value: 1" in out
    assert "agreement: ok" in out


def test_pushforward_method_closed(capsys):
    code, out, _ = run_cli(
        capsys, "pushforward", "--space", "lg", "--n", "2", "--lambda", "4,1",
        "--method", "closed",
    )
    assert code == 0
    assert "value: t1^2 + t2^2" in out


def test_pushforward_method_abbv(capsys):
    code, out, _ = run_cli(
        capsys, "pushforward", "--space", "lg", "--n", "1", "--lambda", "3",
        "--method", "abbv", "--t", "5",
    )
    assert code == 0
    assert "oracle: 25" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pushforward_negative_point_either_spelling(capsys, fmt):
    # a --t value that starts with "-" works after a space as after "="
    argv = ["pushforward", "--space", "lg", "--n", "2", "--lambda", "4,1",
            "--method", "abbv", "--format", fmt]
    spaced = run_cli(capsys, *argv, "--t", "-1/2,3")
    glued = run_cli(capsys, *argv, "--t=-1/2,3")
    assert spaced == glued
    code, out, err = spaced
    assert (code, err) == (0, "")
    if fmt == "json":
        payload = json.loads(out)
        assert payload["t"] == ["-1/2", "3"]
        assert payload["oracle"] == "37/4"  # t1^2 + t2^2
    else:
        assert "t: -1/2,3\noracle: 37/4\n" in out


@pytest.mark.parametrize("t", ["1e50000000,2", "1e5000,2", "2,1e-5000", "1e4300,2",
                               "0.0001e8601,2", "3/1e5000,2", "1e99999999999999999999,2"])
@pytest.mark.parametrize("method", ["residue", "abbv"])
def test_oversized_point_coordinate_exits_2_at_once(capsys, method, t):
    # refused before Fraction builds the power of ten, which for 1e50000000
    # took more than 20 s, and before a coordinate too long to print is used
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pushforward", "--space", "lg", "--n", "2",
                             "--lambda", "2,1", "--method", method, "--t", t)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err in ("error: --t coordinates are limited to 4300 digits\n",
                   f"error: cannot parse --t coordinate {t.split(',')[0]!r}\n")


@pytest.mark.parametrize("t, shown", [
    ("0.5e3,2", "500,2"), ("1_0e1_0,2", "100000000000,2"), ("-25e-1,2", "-5/2,2"),
    ("1e4299,2", "1" + "0" * 4299 + ",2"), ("0.0001e4302,2", "1" + "0" * 4298 + ",2"),
])
def test_point_coordinates_in_exponent_form_keep_their_value(capsys, t, shown):
    code, out, err = run_cli(capsys, "pushforward", "--space", "lg", "--n", "2",
                             "--lambda", "2,1", "--method", "abbv", "--t", t)
    assert (code, err) == (0, "")
    assert f"t: {shown}\noracle: 1\n" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("method", ["residue", "closed", "abbv", "all"])
def test_pushforward_golden_stdout(capsys, method, fmt):
    code, out, err = run_cli(
        capsys, "pushforward", "--space", "lg", "--n", "2", "--lambda", "2,1",
        "--method", method, "--format", fmt,
    )
    expected = GOLDEN / f"pushforward_lg_2_2-1_{method}.{'txt' if fmt == 'text' else 'json'}"
    assert (code, out, err) == (0, expected.read_text(), "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pushforward_method_all_checks_og_even_oracle_like_verify(capsys, fmt):
    # lambda = 2,1 is not 2*mu + rho(1); the og-even oracle is still
    # compared at --t plus two seeded points, as in verify
    code, out, _ = run_cli(
        capsys, "pushforward", "--space", "og-even", "--n", "2", "--lambda", "2,1",
        "--method", "all", "--format", fmt,
    )
    assert code == 0
    if fmt == "json":
        payload = json.loads(out)
        assert payload["methods"]["oracle_points"] == 3
        assert payload["methods"]["oracle_match"] is True
        assert payload["agreement"] is True
    else:
        assert out.endswith("oracle-points: 3\nagreement: ok\n")


@pytest.mark.parametrize("t", ["2,-2", "0,1"])
@pytest.mark.parametrize("method", ["residue", "closed", "abbv", "all"])
def test_degenerate_point_message_shows_plain_rationals(capsys, method, t):
    code, out, err = run_cli(
        capsys, "pushforward", "--space", "lg", "--n", "2", "--lambda", "2,1",
        "--method", method, "--t", t,
    )
    assert (code, out) == (2, "")
    assert f"({t.replace(',', ', ')})" in err
    assert "Fraction(" not in err


@pytest.mark.parametrize("argv, message", [
    (["--n", "9", "--lambda", "2,1"], "error: rank limited to 8, got 9\n"),
    (["--n", "2", "--lambda", "1,1,1"], "error: partition 1,1,1 has more than 2 parts\n"),
], ids=["rank", "parts"])
@pytest.mark.parametrize("method", ["residue", "closed", "abbv", "all"])
def test_size_guard_message_is_the_same_for_every_method(capsys, method, argv, message):
    code, out, err = run_cli(capsys, "pushforward", "--space", "lg", *argv, "--method", method)
    assert (code, out, err) == (2, "", message)


def test_pushforward_rank_7_gives_s21_at_squares(capsys):
    # lambda = 2*(2,1) + rho(7): the residue divides one alternant, never
    # written out, in the monomial basis, and the quotient has 77 terms
    code, out, err = run_cli(capsys, "pushforward", "--space", "lg", "--n", "7",
                             "--lambda", "11,8,5,4,3,2,1")
    value = schur_jacobi_trudi(Partition([2, 1]), 7).square_variables()
    assert (code, err) == (0, "")
    assert out == (f"space: lg(7)\nlambda: 11,8,5,4,3,2,1\nmethod: residue\n"
                   f"value: {value.render('t')}\nmu: 2,1\nconstant: 1\n")


@pytest.mark.parametrize("space, constant", [("lg", "1"), ("og-odd", "256")])
def test_pushforward_rank_8_all_methods_agree(capsys, space, constant):
    # lambda = 2*(2,1) + rho(8): the residue peels the 2 partitions of the
    # quotient off one alternant, never written out, and the oracle expands
    # its determinant by minors over 256 sign masks at three points
    code, out, err = run_cli(capsys, "pushforward", "--space", space, "--n", "8",
                             "--lambda", "12,9,6,5,4,3,2,1", "--method", "all")
    assert (code, err) == (0, "")
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["residue"] == lines["closed"] == lines["value"]
    assert (lines["mu"], lines["constant"]) == ("2,1", constant)
    assert (lines["oracle-points"], lines["agreement"]) == ("3", "ok")


def test_pushforward_closed_form_builds_a_shape_of_four_million_tableaux(capsys):
    # mu = (12,6,2) has 4,284,000 tableaux in 6 variables but takes only
    # 2,492,263 counted tableau-sum steps; the digest of the value's records was
    # taken from a --method all run in which all three methods agreed
    code, out, err = run_cli(capsys, "pushforward", "--space", "lg", "--n", "6", "--lambda",
                             "30,17,8,3,2,1", "--method", "closed", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["mu"], payload["constant"]) == ([12, 6, 2], "1")
    records = json.dumps(payload["value"]["terms"], separators=(",", ":"))
    assert hashlib.sha256(records.encode()).hexdigest() == (
        "0b336071a18b4ee277c60c1f240b4ee9181ab21d3224a45e9bb05bd4afc92336")


HUGE = ["pushforward", "--space", "lg", "--n", "1", "--lambda", "99999999999999999999"]


@pytest.mark.parametrize("method", ["residue", "closed"])
def test_pushforward_huge_exponent_residue_and_closed(capsys, method):
    # neither method takes a power: the exponents are only added
    assert run_cli(capsys, *HUGE, "--method", method) == (0, (
        "space: lg(1)\nlambda: 99999999999999999999\n"
        f"method: {method}\nvalue: t1^99999999999999999998\n"
        "mu: 49999999999999999999\nconstant: 1\n"), "")


@pytest.mark.parametrize("method", ["abbv", "all"])
def test_pushforward_huge_exponent_oracle_exits_2(capsys, method):
    # the fixed-point sum would raise the point to the 10^20th power; the
    # guard refuses it before any power is taken
    assert run_cli(capsys, *HUGE, "--method", method) == (
        2, "", "error: fixed-point powers limited to 1048576 bits, got 99999999999999999999\n")


@pytest.mark.parametrize("method", ["residue", "closed", "all"])
def test_pushforward_huge_first_part_exits_2(capsys, method):
    # mu = (5*10^19, 0): s_mu(t^2) has 5*10^19 + 1 terms; the closed form,
    # which each of these methods builds first, counts them before any work
    start = time.perf_counter()
    assert run_cli(capsys, "pushforward", "--space", "lg", "--n", "2", "--lambda",
                   "100000000000000000002,1", "--method", method) == (
        2, "", "error: Schur terms times variables limited to 67108864, "
               "got at least 100000000000000000002\n")
    assert time.perf_counter() - start < 1


def test_pushforward_huge_first_part_abbv_exits_2(capsys):
    # the fixed-point sum never expands s_lambda: the power guard counts the
    # determinant's degree |lambda| + 1 at t = (1, 2), two bits a power
    assert run_cli(capsys, "pushforward", "--space", "lg", "--n", "2", "--lambda",
                   "100000000000000000002,1", "--method", "abbv") == (
        2, "", "error: fixed-point powers limited to 1048576 bits, got 200000000000000000008\n")


def test_pushforward_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "pushforward", "--space", "lg", "--n", "2", "--lambda", "4,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    poly = SparsePoly.from_records(payload["value"]["nvars"], payload["value"]["terms"])
    assert poly == SparsePoly(2, {(2, 0): 1, (0, 2): 1})
    assert payload["mu"] == [1]
    assert payload["constant"] == "1"
    assert payload["text"] == "t1^2 + t2^2"


def test_pushforward_degenerate_point_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "pushforward", "--space", "lg", "--n", "2", "--lambda", "2,1",
        "--method", "abbv", "--t", "2,-2",
    )
    assert code == 2
    assert "error" in err


def test_pushforward_bad_rank_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "pushforward", "--space", "lg", "--n", "9", "--lambda", "1"
    )
    assert code == 2


# -- verify ---------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--weight-max", "5")
    assert code == 0
    assert "result: PASS" in out


def test_verify_includes_rank1_cube_case(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "1", "--weight-max", "3")
    assert code == 0
    assert "lg(1) lambda=3 value=t1^2" in out


def test_verify_json_reports_og_even_constant(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n-max", "2", "--weight-max", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert payload["og_even_constants"]["2"] == "2"
    assert all(case["ok"] for case in payload["cases"])


def test_verify_fault_injection_exits_1(capsys, corrupt_lg1_residue):
    argv = ("verify", "--n-max", "1", "--weight-max", "2", "--space", "lg")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert "FAIL lg(1) lambda=1 " in out
    assert out.count("FAIL") == 2  # the case line and the result line
    assert out.rstrip().endswith("result: FAIL (3 cases)")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_ok"] is False
    assert [case["ok"] for case in payload["cases"]] == [True, False, True]


def test_verify_single_space(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--space", "og-odd", "--n-max", "2", "--weight-max", "4"
    )
    assert code == 0
    assert "lg(" not in out


def test_verify_negative_points_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-max", "1", "--points", "-1")
    assert code == 2
    assert out == ""
    assert "oracle_points" in err


def test_verify_too_many_points_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--points", "1000000000")
    assert code == 2
    assert out == ""
    assert err == "error: seeded points limited to 1024, got 1000000000\n"


def test_verify_negative_weight_max_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-max", "1", "--weight-max", "-3")
    assert code == 2
    assert out == ""
    assert "weight_max" in err


def test_verify_rank_guard(capsys):
    code, _, _ = run_cli(capsys, "verify", "--n-max", "9")
    assert code == 2


# -- table ------------------------------------------------------------------------

def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--space", "lg", "--n", "2", "--weight-max", "5"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "space,n,lambda,mu,constant,value"
    assert 'lg,2,"2,1",0,1,1' in lines
    assert 'lg,2,"4,1",1,1,t1^2 + t2^2' in lines
    # non-decomposable partitions appear as zero rows
    assert 'lg,2,"3,1",-,-,0' in lines


def test_table_empty_range_is_header_only(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--space", "lg", "--n", "2", "--weight-max", "-1"
    )
    assert code == 0
    assert out == "space,n,lambda,mu,constant,value\n"


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--space", "og-odd", "--n", "1", "--weight-max", "3",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {"space": "og-odd", "n": 1, "lambda": "3", "mu": "1", "constant": "2",
            "value": "2*t1^2", "terms": [{"coeff": "2", "exp": [2]}]} in rows
    # every row's value round-trips through the records serialization
    for row in rows:
        poly = SparsePoly.from_records(1, row["terms"])
        assert poly.render("t") == row["value"]


# -- determinism and process-level behavior ------------------------------------------

@pytest.mark.parametrize("argv, digest", [
    ("verify --n-max 4 --weight-max 10",
     "07046e391bb58e22ba6235cf39c508361f3fc0613104cf258d8989664e026b33"),
    ("table --space lg --n 4 --weight-max 14",
     "6540e7990fb8a7855f96b4c1a001ca8f0417fcff8b0e806fc15372cedf470de9"),
    ("table --space og-even --n 4 --weight-max 14",
     "b14a514f69b0e62fbc6dca44cbfba023359ff3bbf76afee23a9ca10bffaa82cc"),
    ("table --space og-odd --n 4 --weight-max 14",
     "6d1548cf8f0b5254eae2b3ac2ec3bf6f35603bd5e20bb398ebb51d36f2cd7c40"),
])
def test_sweep_json_is_pinned(capsys, argv, digest):
    # sha256 of the whole JSON stdout, pinned when the residue engine was
    # rewritten; any change to a value, key or layout shows here
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_identical_requests_are_byte_identical(capsys):
    args = ["verify", "--n-max", "2", "--weight-max", "4", "--seed", "7",
            "--format", "json"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    from gysin import cli
    from gysin.errors import InternalInconsistency

    def broken(lam, space):
        raise InternalInconsistency("forced for the exit-code contract")

    monkeypatch.setattr(cli, "pushforward_schur", broken)
    code, _, err = run_cli(
        capsys, "pushforward", "--space", "lg", "--n", "2", "--lambda", "2,1"
    )
    assert code == 3
    assert "internal inconsistency" in err


def test_usage_error_exits_2():
    process = subprocess.run(
        [sys.executable, "-m", "gysin", "pushforward", "--space", "nowhere",
         "--n", "2", "--lambda", "1"],
        capture_output=True,
    )
    assert process.returncode == 2


def test_module_entry_point():
    process = subprocess.run(
        [sys.executable, "-m", "gysin", "schur", "--lambda", "2,1", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert process.returncode == 0
    assert process.stdout == "z1^2*z2 + z1*z2^2\n"


def test_closed_pipe_exits_quietly():
    # the reader of a 187 KB report goes away after 50 bytes, as with
    # `| head -c 50`: no traceback, and 141 as for a filter killed by SIGPIPE
    process = subprocess.Popen(
        [sys.executable, "-m", "gysin", "verify", "--n-max", "4", "--weight-max", "10",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert process.stdout.read(50).startswith(b"{")
    process.stdout.close()
    err = process.stderr.read()
    assert (process.wait(timeout=30), err) == (141, b"")


# -- input properties ----------------------------------------------------------

def run_in_process(*argv):
    """(exit code, stdout, stderr) of one call, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_exit(result):
    code, out, err = result
    assert code in (0, 2), err
    assert "Traceback" not in out + err
    assert bool(out) == (code == 0) and bool(err) == (code == 2)


junk = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
numbers = st.from_regex(r"\A-?[0-9]{1,4}(\.[0-9]{0,3})?([eE][-+]?[0-9]{1,12})?(/[0-9]{1,3})?\Z")


@settings(deadline=1000, max_examples=40)
@given(st.one_of(junk, st.lists(numbers, min_size=1, max_size=3).map(",".join)))
def test_any_lambda_text_exits_0_or_2(text):
    check_exit(run_in_process("pushforward", "--space", "lg", "--n", "2", "--lambda", text,
                              "--method", "abbv"))


@settings(deadline=1000, max_examples=40)
@given(st.one_of(junk, st.lists(numbers, min_size=1, max_size=3).map(",".join)))
def test_any_point_text_exits_0_or_2(text):
    check_exit(run_in_process("pushforward", "--space", "lg", "--n", "2", "--lambda", "2,1",
                              "--method", "abbv", "--t", text))


@pytest.mark.parametrize("t", ["1" * 5000 + ",2", "2," + "x" * 5000, "1/" + "0" * 5000 + ",1",
                               "\u00e9" * 3000 + ",2"])
def test_unparsable_point_is_quoted_by_a_short_prefix(capsys, t):
    # the message names the bad coordinate, not the whole --t text
    code, out, err = run_cli(capsys, "pushforward", "--space", "lg", "--n", "2",
                             "--lambda", "2,1", "--method", "abbv", "--t", t)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse --t coordinate ")
    assert f"({max(map(len, t.split(',')))} characters)" in err
    assert len(err) < 100


@settings(deadline=1000, max_examples=40)
@given(st.one_of(junk, numbers, st.integers(-3, 1100).map(str)))
def test_any_points_count_exits_0_or_2(text):
    check_exit(run_in_process("verify", "--n-max", "1", "--weight-max", "0", "--points", text))


# -- the JSON writer and the parser ----------------------------------------------

def sparse_polys(var_counts=st.integers(1, 8)):
    coeffs = st.fractions(min_value=-10**30, max_value=10**30, max_denominator=10**6)
    return var_counts.flatmap(lambda n: st.dictionaries(
        st.tuples(*[st.integers(0, 300)] * n), coeffs, max_size=6,
    ).map(lambda terms: SparsePoly(n, terms)))


decompositions = st.one_of(
    st.just({"mu": None, "constant": None}),
    st.builds(lambda mu, c: {"mu": mu, "constant": str(c)},
              st.lists(st.integers(0, 9), max_size=3), st.fractions()),
)


@st.composite
def pushforward_payloads(draw):
    value = draw(sparse_polys())
    payload = {"command": "pushforward", "space": draw(st.sampled_from(["lg", "og-odd"])),
               "n": value.nvars, "lambda": draw(st.lists(st.integers(0, 20), max_size=8)),
               "method": draw(st.sampled_from(["residue", "closed", "all"])),
               "value": value.to_payload("t"), "text": value.render("t"), **draw(decompositions)}
    if payload["method"] == "all":
        payload["methods"] = {"residue": payload["text"], "closed": draw(st.text()),
                              "oracle_points": 3, "closed_match": draw(st.booleans()),
                              "oracle_match": draw(st.booleans())}
        payload["agreement"] = draw(st.booleans())
    return payload


@st.composite
def schur_payloads(draw):
    value = draw(sparse_polys())
    return {"command": "schur", "lambda": draw(st.lists(st.integers(0, 20), max_size=8)),
            "n": value.nvars, "via": "bialternant", "value": value.to_payload("z"),
            "text": value.render("z")}


@st.composite
def verify_payloads(draw):
    cases = [{"space": "lg", "n": value.nvars, "lambda": [3], "value": value.render("t"),
              **draw(decompositions), "closed_match": True, "oracle_points": 3,
              "oracle_match": True, "measured_constant": None, "ok": True}
             for value in draw(st.lists(sparse_polys(), max_size=3))]
    return {"n_max": 3, "weight_max": 9, "seed": 0, "oracle_points": 2,
            "fault_injected": False, "all_ok": draw(st.booleans()),
            "og_even_constants": draw(st.dictionaries(st.sampled_from("123"),
                                                      st.none() | st.just("2"))),
            "cases": cases}


@st.composite
def table_payloads(draw):
    n = draw(st.integers(1, 8))
    rows = [{"space": "og-odd", "n": n, "lambda": "3", "mu": "-", "constant": "-",
             "value": value.render("t"), "terms": value.to_records()}
            for value in draw(st.lists(sparse_polys(st.just(n)), max_size=4))]
    return {"command": "table", "rows": rows}


@given(st.one_of(pushforward_payloads(), schur_payloads(), verify_payloads(), table_payloads()))
@example({"text": "\0", "value": {"terms": [{"coeff": "1", "exp": [2]}]}, "t": ['"\0']})
def test_json_writer_matches_json_dumps(payload):
    out = io.StringIO()
    write_json(payload, out)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("command", ["schur", "table"])
def test_json_writer_streams_the_term_records(command):
    # no write holds more than one record, so no second copy of a large
    # output is built
    value = SparsePoly(3, {(i, j, 7): (-1) ** i * Fraction(i + 1, j + 1)
                           for i in range(40) for j in range(40)})
    payload = {"command": command, "value": value.to_payload("z"), "text": value.render("z")}
    if command == "table":
        payload = {"command": command, "rows": [{"value": "0", "terms": []}, payload["value"]]}

    writes = []

    class Recorder:
        write = staticmethod(writes.append)

    write_json(payload, Recorder())
    assert "".join(writes) == json.dumps(payload, indent=2) + "\n"
    assert len(writes) > len(value.to_records())
    assert max(map(len, writes[3:-2])) < 200


# every command in both formats, argparse usage errors (SystemExit 2),
# GysinErrors (exit 2) and a negative --t glued to its option
PARSER_SEQUENCE = [
    "pushforward --space lg --n 3 --lambda 5,3,1 --format json",
    "pushforward --space og-even --n 2 --lambda 3,1 --method all",
    "pushforward --space nowhere --n 2 --lambda 1",
    "schur --lambda 3,1 --n 3 --format json",
    "pushforward --space lg --n 2 --lambda 2,1 --method abbv --t 2,-2",
    "verify --n-max 2 --weight-max 4 --format json",
    "table --space og-odd --n 2 --weight-max 5",
    "pushforward --space lg --n 2 --lambda 4,1 --method abbv --t -1/2,3 --format json",
    "table --space lg --n 2 --weight-max 6 --format json",
    "verify --n-max 1 --weight-max 2 --points -1",
    "schur --lambda 2,1 --n 2 --via nowhere",
]


def test_one_parser_serves_every_call_in_a_process():
    build_parser.cache_clear()
    shared = [run_in_process(*argv.split()) for argv in PARSER_SEQUENCE]
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 0, 0, 0, 2, 2]
    assert "invalid choice" in shared[2][2] and shared[4][2].startswith("error: ")
    for argv, result in zip(PARSER_SEQUENCE, shared):
        build_parser.cache_clear()
        assert run_in_process(*argv.split()) == result, argv


def test_importing_the_cli_builds_no_parser():
    process = subprocess.run(
        [sys.executable, "-c",
         "from gysin import cli; print(cli.build_parser.cache_info().currsize)"],
        capture_output=True, text=True,
    )
    assert (process.returncode, process.stdout) == (0, "0\n")
