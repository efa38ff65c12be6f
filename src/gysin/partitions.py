"""Partition combinatorics: staircases, conjugation, the lambda = 2*mu + rho
decomposition and semistandard Young tableau enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidPartition


class Partition:
    """Weakly decreasing tuple of non-negative integers.

    Trailing zeros are accepted on input and stripped, so
    ``Partition([3, 2, 0]) == Partition([3, 2])``.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        seq = [int(x) for x in parts]
        for i, k in enumerate(seq):
            if k < 0:
                raise InvalidPartition(f"negative part {k} in {seq}")
            if i and k > seq[i - 1]:
                raise InvalidPartition(f"parts must be weakly decreasing: {seq}")
        while seq and seq[-1] == 0:
            seq.pop()
        self.parts = tuple(seq)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the CLI form: comma-separated non-increasing integers.

        ``"4,3,1"`` is (4,3,1); ``"0"`` is the empty partition.
        """
        s = text.strip()
        if not s:
            raise InvalidPartition("empty partition text")
        try:
            values = [int(token) for token in s.split(",")]
        except ValueError:
            raise InvalidPartition(f"cannot parse partition {text!r}") from None
        return cls(values)

    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (0-based), zero beyond the length."""
        return self.parts[i] if i < len(self.parts) else 0

    def padded(self, n: int) -> tuple:
        if n < len(self.parts):
            raise ValueError(f"cannot pad {self} to length {n}")
        return self.parts + (0,) * (n - len(self.parts))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for c in range(p):
                cols[c] += 1
        return Partition(cols)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __bool__(self):
        return bool(self.parts)

    def __repr__(self):
        return f"Partition({', '.join(str(p) for p in self.parts)})"

    def __str__(self):
        return self.to_text()


def rho(n: int) -> Partition:
    """The staircase (n, n-1, ..., 1); rho(0) is the empty partition."""
    if n < 0:
        raise InvalidPartition(f"staircase size must be non-negative, got {n}")
    return Partition(range(n, 0, -1))


def decompose(lam: Partition, n: int, staircase: Partition):
    """Return mu with lam == 2*mu + staircase componentwise, or None.

    Both partitions are padded with zeros to length n before comparing.
    """
    if lam.length > n:
        raise InvalidPartition(f"partition {lam} has more than {n} parts")
    mu = []
    for l, s in zip(lam.padded(n), staircase.padded(n)):
        d = l - s
        if d < 0 or d % 2:
            return None
        mu.append(d // 2)
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        return None
    return Partition(mu)


@dataclass(frozen=True)
class Tableau:
    """Filling of a Young diagram: rows weakly increase, columns strictly."""

    shape: Partition
    rows: tuple

    def content(self, max_entry: int) -> tuple:
        """How many times each of 1..max_entry appears."""
        counts = [0] * max_entry
        for row in self.rows:
            for v in row:
                counts[v - 1] += 1
        return tuple(counts)

    def is_semistandard(self, max_entry: int) -> bool:
        if tuple(len(r) for r in self.rows) != self.shape.parts:
            return False
        for row in self.rows:
            if any(not 1 <= v <= max_entry for v in row):
                return False
            if any(row[c] > row[c + 1] for c in range(len(row) - 1)):
                return False
        for r in range(1, len(self.rows)):
            for c in range(len(self.rows[r])):
                if self.rows[r][c] <= self.rows[r - 1][c]:
                    return False
        return True


def enumerate_ssyt(shape: Partition, max_entry: int) -> list:
    """All semistandard tableaux of the shape with entries in 1..max_entry.

    Exhaustive backtracking in a fixed order (row-major cells, increasing
    entries): an enumeration oracle, intended for small shapes only.
    """
    if max_entry < 1:
        raise ValueError("max_entry must be at least 1")
    lengths = shape.parts
    if not lengths:
        return [Tableau(shape, ())]
    cells = [(r, c) for r, width in enumerate(lengths) for c in range(width)]
    grid = [[0] * width for width in lengths]
    found = []

    def fill(idx: int):
        if idx == len(cells):
            found.append(Tableau(shape, tuple(tuple(row) for row in grid)))
            return
        r, c = cells[idx]
        lo = 1
        if c:
            lo = grid[r][c - 1]
        if r:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, max_entry + 1):
            grid[r][c] = v
            fill(idx + 1)
        grid[r][c] = 0

    fill(0)
    return found


def partitions_of_weight(weight: int, max_length: int, max_part=None) -> Iterator[Partition]:
    """Partitions of the exact weight, at most max_length parts, parts
    bounded by max_part; descending-lex generation order."""
    cap = weight if max_part is None else min(weight, max_part)

    def gen(remaining, bound, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(bound, remaining), 0, -1):
            for rest in gen(remaining - first, first, slots - 1):
                yield (first,) + rest

    for parts in gen(weight, cap, max_length):
        yield Partition(parts)


def partitions_up_to_weight(max_length: int, max_weight: int, max_part=None) -> Iterator[Partition]:
    """All partitions with at most max_length parts and weight <= max_weight,
    ordered by weight then descending lex."""
    for w in range(max_weight + 1):
        yield from partitions_of_weight(w, max_length, max_part)

