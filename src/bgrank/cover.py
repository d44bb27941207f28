"""The weight-halving double-cover map between (a,b)-sequences and partitions.

The target shape is a fixed arrangement of blocks indexed 1, 2, 3, ...
for a given non-negative integer a:

* block 2r-1 (odd) is a horizontal strip of capacity a + r lying in
  row r, columns 1 .. a + r;
* block 2m (even) is a vertical strip of capacity m lying in column
  a + m + 1, rows 1 .. m.

Entry d_1 = a + 1 fills block 1 once; each later entry d_i first covers
the once-covered cells of block i-1 a second time and drops the remainder
into block i.  The twice-covered cells form the Young diagram of a
partition of half the sequence weight.  The cell arithmetic reduces to
the recurrence b_i = d_i - b_{i-1}, which is what the code runs; every
step, its validation included, reads per-block counts in O(blocks), and
the cells themselves are laid out only for rendering.
"""

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    CoverOverflow,
    CoverUnderflow,
    DomainError,
    IncompleteCover,
    NotABSequence,
    NotAPartitionShape,
    NotInImage,
)
from .partitions import Partition
from .sequences import EPSILON, ABSequence, validate_ab


def block_capacity(a: int, i: int) -> int:
    """Cell capacity of block i: a + (i+1)/2 for odd i, i/2 for even i."""
    if i < 1:
        raise ValueError(f"block index must be >= 1, got {i}")
    return a + (i + 1) // 2 if i % 2 == 1 else i // 2


def _capacities(a: int, n: int) -> list[int]:
    """block_capacity(a, i) for i = 1 .. n, built without a call per block."""
    caps = [0] * n
    caps[0::2] = range(a + 1, a + 1 + (n + 1) // 2)
    caps[1::2] = range(1, n // 2 + 1)
    return caps


@dataclass(frozen=True)
class BlockCover:
    """Doubly-covered cell counts per block, trimmed at the last busy block.

    Beyond capacity and non-negativity, a cover must satisfy the row-fill
    rule: a cell of even block 2m in row r can only exist once row r is
    full through column a + r, i.e. b_{2m} >= r forces b_{2r-1} to hit
    its capacity.
    """

    a: int
    covered: tuple[int, ...]

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"a must be non-negative, got {self.a}")
        covered = self.covered
        if covered and covered[-1] == 0:
            raise ValueError("covered must be trimmed to the last non-zero block")
        for i, (b, cap) in enumerate(zip(covered, _capacities(self.a, len(covered))), start=1):
            if b < 0:
                raise CoverUnderflow(f"block {i} covered {b} times")
            if b > cap:
                raise CoverOverflow(f"block {i} holds {b} cells, capacity {cap}")
        # Rows 1 .. full are full; an even block reaching row full + 1 is
        # the first to break the rule, and it breaks it at that row.
        full = 0
        while 2 * full < len(covered) and covered[2 * full] == self.a + full + 1:
            full += 1
        for idx in range(2, len(covered) + 1, 2):
            if covered[idx - 1] > full:
                r = full + 1
                have = covered[2 * full] if 2 * full < len(covered) else 0
                raise NotAPartitionShape(
                    f"block {idx} reaches row {r} but row {r} is not full "
                    f"({have} of {self.a + r} cells)"
                )

    @property
    def last_index(self) -> int:
        """Index of the last non-empty block, 0 when nothing is covered."""
        return len(self.covered)

    @property
    def total(self) -> int:
        return sum(self.covered)

    def sequence(self) -> tuple[int, ...]:
        """Reconstruct the source entries via d_i = b_{i-1} + b_i."""
        if not self.covered:
            return ()
        b = (0,) + self.covered + (0,)
        return tuple(b[i - 1] + b[i] for i in range(1, len(self.covered) + 2))

    def cells(self) -> dict[tuple[int, int], int]:
        """Map (row, col) of every covered cell to its block index."""
        out = {}
        for i, b in enumerate(self.covered, start=1):
            if i % 2 == 1:
                r = (i + 1) // 2
                for col in range(1, b + 1):
                    out[(r, col)] = i
            else:
                m = i // 2
                for r in range(1, b + 1):
                    out[(r, self.a + m + 1)] = i
        return out


def double_cover(a: int, entries: Iterable[int]) -> BlockCover:
    """Run the cover recurrence over raw entries, validating every step."""
    entries = tuple(entries)
    if not entries:
        return BlockCover(a, ())
    if any(not isinstance(d, int) or d < 1 for d in entries):
        raise NotABSequence(f"entries must be positive integers, got {entries}")
    if entries[0] != a + 1:
        raise NotABSequence(f"first entry must be a+1 = {a + 1}, got {entries[0]}")
    covered = []
    prev = 0
    for i, (d, cap) in enumerate(zip(entries, _capacities(a, len(entries))), start=1):
        b = d - prev
        if b < 0:
            raise CoverUnderflow(f"entry {i} ({d}) cannot re-cover {prev} cells")
        if b > cap:
            raise CoverOverflow(f"entry {i} overfills block {i}: {b} > capacity {cap}")
        covered.append(b)
        prev = b
    if covered[-1] != 0:
        raise IncompleteCover(
            f"last entry leaves {covered[-1]} singly covered cells in block {len(entries)}"
        )
    while covered and covered[-1] == 0:
        covered.pop()
    return BlockCover(a, tuple(covered))


def assemble(cover: BlockCover) -> Partition:
    """Read the covered cells row by row into a partition.

    Row r collects b_{2r-1} cells from its horizontal block plus one cell
    per even block 2m with b_{2m} >= r (such a block has m >= r, since
    b_{2m} <= m); a suffix sum over the even-block heights counts those
    for every row at once.  The covered cells must form exactly the
    Young diagram of the rows.  Given the row-fill rule, that holds iff
    the even blocks reaching row r are 2r, 2r+2, ... with no gap, i.e.
    b_{2m} >= min(m, max_{m' > m} b_{2m'}) for every m: one reverse scan.
    Cost O(blocks).
    """
    b = cover.covered
    odd, even = b[0::2], b[1::2]
    reach = [0] * (len(odd) + 1)
    for height in even:
        reach[height] += 1
    for r in range(len(odd) - 1, 0, -1):
        reach[r] += reach[r + 1]
    rows = [cells + reach[r] for r, cells in enumerate(odd, start=1)]
    while rows and rows[-1] == 0:
        rows.pop()
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)) or 0 in rows:
        raise NotAPartitionShape(f"assembled rows {rows} are not non-increasing")
    tallest_right = 0
    for m in range(len(even), 0, -1):
        if even[m - 1] < min(m, tallest_right):
            raise NotAPartitionShape("covered cells are not the Young diagram of the assembled rows")
        tallest_right = max(tallest_right, even[m - 1])
    return Partition(rows)


def cover_image(a: int, delta) -> Partition:
    """Image of an (a,b)-sequence under the double-cover map.

    Accepts an ABSequence, raw entries, or None/empty for the empty
    sequence; the image of the empty sequence is the empty partition.
    The image weight is exactly half the sequence weight.
    """
    if delta is None:
        entries = ()
    elif isinstance(delta, ABSequence):
        if delta and delta.a != a:
            raise NotABSequence(f"sequence has a = {delta.a}, expected {a}")
        entries = delta.entries
    else:
        entries = tuple(delta)
    if not entries:
        return Partition()
    return assemble(double_cover(a, entries))


def read_cover(a: int, p: Partition) -> BlockCover:
    """Decompose the Young diagram of p into the block layout for a.

    Row r contributes min(p_r, a + r) cells to block 2r-1; column
    a + m + 1 contributes one cell to block 2m for each of the top m rows
    long enough to reach it.  Those rows are a prefix that only shrinks
    as m grows, so one pointer counts them: O(parts + largest).  Every
    partition decomposes; whether the result is the cover of a valid
    sequence is a separate question.
    """
    if a < 0:
        raise ValueError(f"a must be non-negative, got {a}")
    if not p:
        return BlockCover(a, ())
    parts = p.parts
    n_rows = p.length
    n_cols = max(0, p.largest - a - 1)
    b = [0] * max(2 * n_rows - 1, 2 * n_cols)
    for r in range(1, n_rows + 1):
        b[2 * r - 2] = min(parts[r - 1], a + r)
    reaching = n_rows  # rows with p_r >= a + m + 1: a prefix that shrinks as m grows
    for m in range(1, n_cols + 1):
        while parts[reaching - 1] < a + m + 1:
            reaching -= 1
        b[2 * m - 1] = min(m, reaching)
    while b and b[-1] == 0:
        b.pop()
    return BlockCover(a, tuple(b))


def cover_preimage(a: int, p: Partition) -> ABSequence:
    """Inverse of cover_image: recover the unique (a,b)-sequence for p.

    Raises NotInImage when p is not the image of any valid sequence with
    this a.  The reconstruction is validated and round-tripped before it
    is returned.
    """
    if not p:
        return EPSILON
    entries = read_cover(a, p).sequence()
    try:
        seq = validate_ab(entries)
    except NotABSequence as exc:
        raise NotInImage(f"reconstructed entries {entries} are invalid: {exc}") from exc
    if seq.a != a:
        raise NotInImage(f"reconstructed sequence has a = {seq.a}, expected {a}")
    try:
        image = cover_image(a, seq)
    except DomainError as exc:
        raise NotInImage(f"reconstructed sequence {entries} does not cover: {exc}") from exc
    if image != p:
        raise NotInImage(f"round trip gives {image}, expected {p}")
    return seq


@dataclass(frozen=True)
class BoxPartitionClass:
    """Partitions whose a-Durfee rectangle has ceil(b/2) rows, with the
    boundary row strictly long (b even) or exactly full (b odd)."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 1:
            raise ValueError(f"need a >= 0 and b >= 1, got a={self.a}, b={self.b}")


def _durfee_depth(p: Partition, a: int) -> int:
    """Largest i such that an i x (i + a) rectangle fits in p's diagram."""
    i = 0
    while i < p.length and p.parts[i] >= (i + 1) + a:
        i += 1
    return i


def in_class(p: Partition, cls: BoxPartitionClass) -> bool:
    """Membership test for the double-cover image classes."""
    half = (cls.b + 1) // 2
    if _durfee_depth(p, cls.a) != half:
        return False
    if cls.b % 2 == 0:
        return p.parts[half - 1] > cls.a + half
    return p.parts[half - 1] == cls.a + half
