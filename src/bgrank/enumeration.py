"""Brute-force partition enumeration used as an oracle by everything else.

Streams are plain generators in decreasing lexicographic order of the part
sequence, so fixture output is stable; each call builds a fresh iterator
and nothing is materialized.
"""

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidArgument
from .partitions import Partition, StrictPartition, bg_rank


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: partitions of n, optionally bounded and filtered.

    max_part / max_len of None mean unbounded; the rank filter is applied
    after generation.
    """

    n: int
    max_part: int | None = None
    max_len: int | None = None
    strict: bool = False
    rank: int | None = None

    def __post_init__(self):
        if self.n < 0:
            raise InvalidArgument(f"n must be non-negative, got {self.n}")
        if self.max_part is not None and self.max_part < 0:
            raise InvalidArgument(f"max_part must be non-negative, got {self.max_part}")
        if self.max_len is not None and self.max_len < 0:
            raise InvalidArgument(f"max_len must be non-negative, got {self.max_len}")


def _descend(remaining: int, cap: int, slots: int | None, strict: bool, prefix: list[int]):
    if remaining == 0:
        yield tuple(prefix)
        return
    if slots is not None and slots == 0:
        return
    top = min(cap, remaining)
    for part in range(top, 0, -1):
        prefix.append(part)
        next_cap = part - 1 if strict else part
        next_slots = None if slots is None else slots - 1
        yield from _descend(remaining - part, next_cap, next_slots, strict, prefix)
        prefix.pop()


def enumerate_partitions(spec: EnumSpec) -> Iterator[Partition]:
    """Yield each matching partition exactly once, decreasing-lex order."""
    cap = spec.n if spec.max_part is None else min(spec.max_part, spec.n)
    make = StrictPartition if spec.strict else Partition
    for parts in _descend(spec.n, cap, spec.max_len, spec.strict, []):
        p = make(parts)
        if spec.rank is not None and bg_rank(p) != spec.rank:
            continue
        yield p


def count_partitions(spec: EnumSpec) -> int:
    """Cardinality of enumerate_partitions(spec)."""
    return sum(1 for _ in enumerate_partitions(spec))
