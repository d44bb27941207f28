"""Partitions, strict partitions, BG-rank, conjugation, shifted diagrams.

Conventions used throughout the package:

* parts are stored largest first; indices in formulas are 1-based;
* the empty partition has size 0, length 0 and largest part 0;
* values are immutable, construction validates and never normalizes
  (handing in an unsorted part list is a bug in the caller, not data
  to be repaired).
"""

from itertools import accumulate
from typing import Iterable, NamedTuple

from .errors import ParseError


class Partition:
    """A non-increasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
        for i in range(len(parts) - 1):
            if parts[i] < parts[i + 1]:
                raise ValueError(f"parts must be non-increasing, got {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @property
    def largest(self) -> int:
        """Largest part, 0 for the empty partition."""
        return self.parts[0] if self.parts else 0

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"{type(self).__name__}({self.parts!r})"

    def __str__(self):
        return format_partition(self)


class StrictPartition(Partition):
    """A partition with strictly decreasing parts."""

    def __init__(self, parts: Iterable[int] = ()):
        super().__init__(parts)
        for i in range(len(self.parts) - 1):
            if self.parts[i] == self.parts[i + 1]:
                raise ValueError(f"parts must be strictly decreasing, got {self.parts}")


class ResidueCount(NamedTuple):
    """Cell counts of the 2-residue filling: r0 zeros, r1 ones."""

    r0: int
    r1: int


def parse_partition(text: str, strict: bool = False) -> Partition:
    """Parse comma-separated parts, largest first; '' is the empty partition."""
    text = text.strip()
    if not text:
        return StrictPartition() if strict else Partition()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"cannot parse partition from {text!r}") from exc
    try:
        return StrictPartition(parts) if strict else Partition(parts)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_partition(p: Partition) -> str:
    """Inverse of parse_partition: '9,7,5,4,1', '' for the empty partition."""
    return ",".join(str(x) for x in p.parts)


def bg_rank(p: Partition) -> int:
    """BG-rank: (# odd parts at odd index) - (# odd parts at even index)."""
    rank = 0
    for i, part in enumerate(p.parts, start=1):
        if part % 2 == 1:
            rank += 1 if i % 2 == 1 else -1
    return rank


def bg_rank_residue(p: Partition) -> tuple[ResidueCount, int]:
    """BG-rank via the 2-residue filling of the Ferrers diagram.

    Row j (1-based) is filled alternately starting with 0 when j is odd
    and 1 when j is even.  Returns the fill counts and r0 - r1, which
    always equals bg_rank(p).
    """
    r0 = r1 = 0
    for j, part in enumerate(p.parts, start=1):
        for i in range(1, part + 1):
            if (i + j) % 2 == 0:
                r0 += 1
            else:
                r1 += 1
    return ResidueCount(r0, r1), r0 - r1


def characteristic(p: Partition) -> int:
    """The negated BG-rank."""
    return -bg_rank(p)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: column i has one cell per part >= i.

    Parts are non-increasing, so the parts >= i form a prefix whose end
    only moves left as i grows; one pointer walks it, O(parts + largest).
    """
    parts = p.parts
    cols = []
    j = len(parts)
    for i in range(1, p.largest + 1):
        while parts[j - 1] < i:
            j -= 1
        cols.append(j)
    return Partition(cols)


def shifted_column_profile(d: StrictPartition) -> tuple[int, ...]:
    """Column lengths of the shifted Young diagram of a strict partition.

    Row j occupies columns j .. j + d_j - 1, so the profile rises
    1, 2, ..., r over the first r columns and is non-increasing after
    that; it sums to |d|.  Each row adds +1 at its first column and -1
    past its last in a difference array, and a prefix sum reads the
    heights off: O(parts + largest).
    """
    diff = [0] * (d.largest + 1)
    for j, part in enumerate(d.parts, start=1):
        diff[j - 1] += 1
        diff[j + part - 1] -= 1
    diff.pop()
    return tuple(accumulate(diff))
