"""The benchmark's workloads: inputs made from the seed, one timed call per
operation, and the check of that call's result.

* ``rank-ladder``: single ``gysin pushforward --method residue --format
  json`` calls through ``cli.main``; rank 5 on every space, decomposable
  (lambda = 2*(2,1) + staircase) and not, then rank 6 ``lg`` with
  mu = (2,1).  A few huge computations: ``schur`` and ``poly`` do
  n!-sized work and ``localization`` does none.  The seed sets the call
  order.
* ``verify-sweep``: ``verification.evaluate_case`` over the cases of
  ``gysin verify --n-max 4 --weight-max 10 --points 16`` with the seed as
  the point seed.  Many small cases, all three methods per case.
* ``general-classes``: combinations of three ``monomial_symmetric``
  classes with non-integer coefficients drawn from the seed, pushed
  forward with ``pushforward_symmetric`` and summed over fixed points at
  17 points.  The general (non-Schur) path, where ``SparsePoly``
  multiplication dominates and ``schur`` does no work.  The partitions
  are fixed so that every seed asks for the same amount of work; the
  degree is at least the dimension of ``lg(n)`` so that most values are
  nonzero.

Values of the fixed Schur inputs are compared with digests of their
canonical records (``SparsePoly.to_records``) in ``pins.json``, which were
taken from a run in which all three methods agreed.  Every check also
compares the methods again.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

from gysin import cli, localization, pushforward, verification
from gysin.localization import FixedPoint, default_point, euler_factor, seeded_points
from gysin.partitions import Partition, partitions_up_to_weight
from gysin.poly import SparsePoly
from gysin.schur import monomial_symmetric, schur_bialternant
from gysin.spaces import Space, SpaceKind

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())

KINDS = (SpaceKind.LAGRANGIAN, SpaceKind.ORTHOGONAL_EVEN, SpaceKind.ORTHOGONAL_ODD)

# (space, rank, lambda): per space one decomposable and one non-decomposable
# lambda, the latter one box larger so that all six calls cost about the
# same; a gap in the middle of the costs would make the median jump.
LADDER = [
    ("lg", 5, "9,6,3,2,1"), ("lg", 5, "9,6,4,2,1"),
    ("og-even", 5, "8,5,2,1"), ("og-even", 5, "8,5,3,1"),
    ("og-odd", 5, "9,6,3,2,1"), ("og-odd", 5, "9,6,4,2,1"),
]
LADDER_TOP = ("lg", 6, "10,7,4,3,2,1")
LADDER_TINY = [
    ("lg", 3, "5,2,1"), ("lg", 3, "4,2,1"),
    ("og-even", 3, "4,1"), ("og-even", 3, "3,1"),
    ("og-odd", 3, "5,2,1"), ("og-odd", 3, "4,2,1"),
]
LADDER_TINY_TOP = ("lg", 4, "8,5,2,1")
# Each rank-5 call appears this often per pass, so that a pass has more
# than ten operations and a tail percentile exists.
LADDER_REPEAT = 3

VERIFY_N_MAX, VERIFY_N_MAX_TINY = 4, 2
VERIFY_WEIGHT_MAX = 10
ORACLE_POINTS = 16

# Per space kind: (rank, three partitions of one weight).  Most classes
# are rank 5, so that the median operation sits inside that group and not
# on the step between two ranks.
GENERAL = [
    (4, ((10,), (6, 4), (4, 3, 3))),
    (4, ((12,), (7, 5), (5, 4, 3))),
    (5, ((15,), (8, 7), (5, 5, 5))),
    (5, ((16,), (9, 7), (6, 5, 5))),
    (5, ((17,), (9, 8), (6, 6, 5))),
    (6, ((21,), (11, 10), (7, 7, 7))),
]
# Denominators of the three coefficients; the seed draws the numerators.
# Fixed denominators keep the cost of the rational arithmetic the same
# for every seed.
DENOMINATORS = (2, 3, 5)


class CheckFailed(Exception):
    """A result disagrees with another method or with its pinned value."""


@dataclass
class Op:
    label: str
    rank: int
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    ops: list
    shuffle: random.Random | None = None
    # counts made while checking, reset before each pass is checked
    counts: Counter = field(default_factory=Counter)
    # seconds of the one-point fixed-point sum per ladder input, from its check
    oracle_1pt_s: dict = field(default_factory=dict)

    def pass_ops(self) -> list:
        ops = list(self.ops)
        if self.shuffle is not None:
            self.shuffle.shuffle(ops)
        return ops


def records_digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _expect_pin(key: str, records):
    if records_digest(records) != PINS[key]:
        raise CheckFailed(f"{key}: value differs from the pinned value")


def full_sign_sum(V: SparsePoly, space: Space, at) -> Fraction:
    """Half the sum of V(eps*t) / Euler class over all 2^n sign vectors.

    The og-even push-forward equals this for every class, while
    ``localization_sum`` sums over one component of fixed points and
    agrees only on decomposable Schur classes.
    """
    total = Fraction(0)
    for signs in product((1, -1), repeat=space.n):
        point = [s * v for s, v in zip(signs, at.values)]
        total += V.evaluate(point) / euler_factor(space, FixedPoint(signs), at)
    return total / 2


def _cli_pushforward(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _ladder_op(workload: Workload, verified: set, kind: str, n: int, lam_text: str) -> Op:
    key = f"{kind}:{n}:{lam_text}"
    argv = ["pushforward", "--space", kind, "--n", str(n), "--lambda", lam_text,
            "--method", "residue", "--format", "json"]

    def check(result):
        code, text = result
        if code != 0:
            raise CheckFailed(f"{key}: exit code {code}")
        records = json.loads(text)["value"]["terms"]
        _expect_pin(key, records)
        if key in verified:
            return
        space, lam = Space(SpaceKind(kind), n), Partition.from_text(lam_text)
        value = SparsePoly.from_records(n, records)
        closed = pushforward.closed_form(lam, space)
        if value != closed.value:
            raise CheckFailed(f"{key}: residue and closed form disagree")
        V, at = schur_bialternant(lam, n), default_point(n)
        start = time.perf_counter()
        if space.kind is SpaceKind.ORTHOGONAL_EVEN and closed.mu is None:
            oracle = full_sign_sum(V, space, at)
        else:
            oracle = localization.localization_sum(V, space, at)
        workload.oracle_1pt_s[key] = time.perf_counter() - start
        if oracle != value.evaluate(at.values):
            raise CheckFailed(f"{key}: residue and fixed-point sum disagree")
        verified.add(key)

    return Op(key, n, lambda: _cli_pushforward(argv), check)


def rank_ladder(seed: int, tiny: bool) -> Workload:
    inputs, top = (LADDER_TINY, LADDER_TINY_TOP) if tiny else (LADDER, LADDER_TOP)
    workload = Workload([], random.Random(seed))
    verified: set = set()
    for kind, n, lam in inputs * LADDER_REPEAT + [top]:
        workload.ops.append(_ladder_op(workload, verified, kind, n, lam))
    return workload


def _verify_op(space: Space, lam: Partition, points) -> Op:
    key = f"{space.kind.value}:{space.n}:{lam.to_text()}"

    def check(case):
        if not case.closed_match:
            raise CheckFailed(f"{key}: residue and closed form disagree")
        if case.oracle_match is None:
            # The program skips the oracle only on og-even classes that are
            # not decomposable; counted as verification.oracle_skipped.
            if space.kind is not SpaceKind.ORTHOGONAL_EVEN or case.closed.mu is not None:
                raise CheckFailed(f"{key}: fixed-point comparison skipped")
        elif not case.oracle_match:
            raise CheckFailed(f"{key}: residue and fixed-point sum disagree")
        _expect_pin(key, case.residue.to_records())

    return Op(key, space.n, lambda: verification.evaluate_case(space, lam, points), check)


def verify_sweep(seed: int, tiny: bool) -> Workload:
    n_max = VERIFY_N_MAX_TINY if tiny else VERIFY_N_MAX
    workload = Workload([])
    for kind in KINDS:
        for n in range(1, n_max + 1):
            space = Space(kind, n)
            points = [default_point(n)] + seeded_points(n, ORACLE_POINTS, seed)
            for lam in partitions_up_to_weight(n, VERIFY_WEIGHT_MAX):
                workload.ops.append(_verify_op(space, lam, points))
    return workload


def _coefficient(rng: random.Random, denominator: int) -> Fraction:
    while True:
        numerator = rng.randrange(1, 50)
        if numerator % denominator:
            return Fraction(numerator * rng.choice((1, -1)), denominator)


def _general_op(workload: Workload, space: Space, V: SparsePoly, points, key: str) -> Op:
    def call():
        value = pushforward.pushforward_symmetric(V, space)
        return value, [localization.localization_sum(V, space, pt) for pt in points]

    def check(result):
        value, oracle = result
        expected = [value.evaluate(pt.values) for pt in points]
        if space.kind is not SpaceKind.ORTHOGONAL_EVEN:
            if oracle != expected:
                raise CheckFailed(f"{key}: residue and fixed-point sum disagree")
            return
        disagree = sum(a != b for a, b in zip(oracle, expected))
        workload.counts["localization.og_even_disagree"] += disagree
        for pt, want in zip(points[:2], expected):
            if full_sign_sum(V, space, pt) != want:
                raise CheckFailed(f"{key}: residue and full fixed-point sum disagree")

    return Op(key, space.n, call, check)


def general_classes(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    workload = Workload([])
    for kind in KINDS:
        for n, parts in GENERAL[:2] if tiny else GENERAL:
            V = SparsePoly.zero(n)
            for p, q in zip(parts, DENOMINATORS):
                V = V + _coefficient(rng, q) * monomial_symmetric(Partition(p), n)
            # Points of its own per class, so that the size of one seed's
            # points does not move every operation of a rank together.
            points = [default_point(n)] + seeded_points(n, ORACLE_POINTS, rng.randrange(2**32))
            key = f"{kind.value}:{n}:" + "+".join(Partition(p).to_text() for p in parts)
            workload.ops.append(_general_op(workload, Space(kind, n), V, points, key))
    return workload


BY_NAME = {
    "rank-ladder": rank_ladder,
    "verify-sweep": verify_sweep,
    "general-classes": general_classes,
}
