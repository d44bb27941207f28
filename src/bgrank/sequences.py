"""(a,b)-sequences and the split point of a shifted-diagram column profile.

An (a,b)-sequence of length l is a sequence of positive integers d_1..d_l
with a staircase prefix d_i = a + i for i <= b, non-increasing entries from
index b on, and alternating sum sum((-1)^i * d_i) = 0.  The empty sequence
EPSILON is the distinguished length-0 value.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import AmbiguousSplitPoint, NoSplitPoint, NotABSequence, ParseError


@dataclass(frozen=True)
class ABSequence:
    """A validated (a,b)-sequence; build via validate_ab, or use EPSILON."""

    entries: tuple[int, ...]
    a: int
    b: int

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def size(self) -> int:
        return sum(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __str__(self):
        return ",".join(str(x) for x in self.entries)


#: The empty sequence; a and b are conventionally 0.
EPSILON = ABSequence((), 0, 0)


@dataclass(frozen=True)
class SplitResult:
    """Outcome of splitting a column profile at its unique prefix length m."""

    m: int
    staircase_weight: int  # m*(m+1)/2
    tail: ABSequence  # EPSILON when the profile is a pure staircase


def parse_entries(text: str) -> tuple[int, ...]:
    """Parse a comma-separated positive-integer sequence; '' is empty."""
    text = text.strip()
    if not text:
        return ()
    try:
        entries = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"cannot parse sequence from {text!r}") from exc
    if any(e < 1 for e in entries):
        raise ParseError(f"sequence entries must be positive, got {entries}")
    return entries


def alt_sum(entries: Sequence[int]) -> int:
    """Alternating sum sum((-1)^i * d_i) with 1-based i, so d_1 is negated."""
    return sum(entries[1::2]) - sum(entries[0::2])


def validate_ab(entries: Iterable[int]) -> ABSequence:
    """Check the three (a,b)-sequence conditions and return the value.

    a is forced to d_1 - 1 and b is the largest index for which both the
    staircase and non-increasing conditions hold.  (Whenever any b works
    it is in fact unique: the staircase rises while the tail may not, so
    their admissible ranges meet in a single point.)
    """
    entries = tuple(entries)
    if not entries:
        raise NotABSequence("the empty sequence is not an (a,b)-sequence; use EPSILON")
    if any(not isinstance(d, int) or d < 1 for d in entries):
        raise NotABSequence(f"entries must be positive integers, got {entries}")
    if alt_sum(entries) != 0:
        raise NotABSequence(f"alternating sum is {alt_sum(entries)}, not 0: {entries}")
    a = entries[0] - 1
    b = 1
    while b < len(entries) and entries[b] == a + b + 1:
        b += 1
    for i in range(b - 1, len(entries) - 1):
        if entries[i] < entries[i + 1]:
            raise NotABSequence(
                f"no valid b: entries rise at index {i + 1} past the staircase: {entries}"
            )
    return ABSequence(entries, a, b)


def split_point(profile: Sequence[int], r: int) -> SplitResult:
    """Locate the unique m in [0, r] where the prefix alternating sum
    equals the full alternating sum, and validate the remaining tail.

    For the column profile of a genuine strict partition with r parts the
    match is unique; zero or multiple matches signal a malformed input.
    The scan checks every m rather than trusting uniqueness.
    """
    profile = tuple(profile)
    total = alt_sum(profile)
    matches = []
    prefix = 0
    for m in range(0, r + 1):
        if prefix == total:
            matches.append(m)
        if m < len(profile):
            prefix += -profile[m] if (m + 1) % 2 == 1 else profile[m]
    if not matches:
        raise NoSplitPoint(f"no prefix of {profile} reaches alternating sum {total}")
    if len(matches) > 1:
        raise AmbiguousSplitPoint(
            f"prefix lengths {matches} of {profile} all reach alternating sum {total}"
        )
    m = matches[0]
    tail_entries = profile[m:]
    tail = validate_ab(tail_entries) if tail_entries else EPSILON
    return SplitResult(m=m, staircase_weight=m * (m + 1) // 2, tail=tail)
