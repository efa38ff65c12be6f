import json
from fractions import Fraction

import pytest

from gysin import localization
from gysin.errors import ExplicitSizeLimit
from gysin.localization import MAX_POINTS
from gysin.poly import SparsePoly
from gysin.spaces import SpaceKind, lg, og_odd
from gysin.verification import run_verification, table_rows


def test_default_sweep_passes():
    # lg, og-even and og-odd over all partitions with n <= 3, weight <= 9
    report = run_verification()
    assert report.all_ok
    assert len(report.cases) == 3 * (10 + 30 + 53)


def test_og_even_constants_are_2_to_n_minus_1():
    report = run_verification(n_max=3, weight_max=7)
    constants = report.og_even_constants()
    assert constants[2] == Fraction(2)
    assert constants[3] == Fraction(4)


def test_every_case_compares_every_oracle_point():
    # og-even classes that are not 2*mu + rho(n-1) included
    report = run_verification(n_max=2, weight_max=5, oracle_points=2)
    for case in report.cases:
        assert case.oracle_points == 2 + 1
        assert case.oracle_match is True


def test_fault_injection_fails_exactly_one_case(corrupt_lg1_residue):
    report = run_verification(n_max=1, weight_max=3)
    assert not report.all_ok
    failed = [case for case in report.cases if not case.ok]
    assert len(failed) == 1
    # both independent checks see the corrupted value
    assert not failed[0].closed_match and not failed[0].oracle_match


def test_rank_guard():
    with pytest.raises(ExplicitSizeLimit):
        run_verification(n_max=9)


def test_negative_oracle_points_rejected():
    with pytest.raises(ValueError):
        run_verification(n_max=1, weight_max=2, oracle_points=-1)


def test_oracle_points_guard_comes_before_the_points(monkeypatch):
    # a sweep asking for more than MAX_POINTS seeded points is refused before
    # they are built; without the guard the counting stand-in stops it
    built = []

    def counted(values):
        built.append(values)
        if len(built) > 10:
            raise AssertionError("points were built")
        return honest(values)

    honest = localization.GenericPoint
    monkeypatch.setattr(localization, "GenericPoint", counted)
    for count in (MAX_POINTS + 1, 10 ** 9):
        with pytest.raises(ExplicitSizeLimit, match=f"^seeded points limited to {MAX_POINTS}, "):
            run_verification(n_max=1, weight_max=0, oracle_points=count)
    assert len(built) <= 2  # the default point of each attempt


def test_negative_weight_max_rejected():
    # a sweep over no partitions would otherwise report all_ok
    with pytest.raises(ValueError):
        run_verification(n_max=1, weight_max=-3)


def test_report_dict_is_json_serializable():
    report = run_verification(n_max=1, weight_max=2, kinds=(SpaceKind.LAGRANGIAN,))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["all_ok"] is True
    assert payload["cases"][0]["space"] == "lg"


def test_table_rows_roundtrip_values():
    rows = table_rows(lg(2), 5)
    by_lambda = {row["lambda"]: row for row in rows}
    hook = by_lambda["4,1"]
    assert hook["mu"] == "1" and hook["constant"] == "1"
    value = SparsePoly.from_records(2, hook["terms"])
    assert value == SparsePoly(2, {(2, 0): 1, (0, 2): 1})
    assert by_lambda["3,1"]["mu"] == "-"
    assert by_lambda["3,1"]["value"] == "0"


def test_table_rows_og_odd():
    rows = table_rows(og_odd(1), 3)
    assert {"space": "og-odd", "n": 1, "lambda": "3", "mu": "1", "constant": "2",
            "value": "2*t1^2", "terms": [{"coeff": "2", "exp": [2]}]} in rows
