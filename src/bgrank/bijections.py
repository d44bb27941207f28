"""Strict partitions with fixed BG-rank mapped to box-bounded partitions.

The forward map peels the staircase prefix off the shifted-diagram column
profile of a strict partition (weight t = m(m+1)/2, with m determined by
the BG-rank k through t = 2k^2 - k), then pushes the remaining sequence
through the double-cover map.  For k > 0 the image is conjugated by
default so that every rank lands in the same box orientation:
largest part <= N + nu - k and number of parts <= N + k.
"""

import math
from dataclasses import dataclass

from .cover import cover_image, cover_preimage, double_cover
from .errors import (
    InconsistentParameters,
    LargestPartExceedsBound,
    NotInImage,
    NotInStaircaseImage,
    NotRepresentable,
    NotTriangular,
    ParameterMismatch,
    RankMismatch,
)
from .partitions import Partition, StrictPartition, bg_rank, conjugate, shifted_column_profile
from .sequences import EPSILON, ABSequence, split_point, validate_ab


def staircase_length(k: int) -> int:
    """Staircase prefix length carried by BG-rank k: -2k if k <= 0, else 2k-1."""
    return -2 * k if k <= 0 else 2 * k - 1


def rank_from_triangular(t: int) -> int:
    """The unique integer k with 2*k**2 - k = t; 0 for t = 0.

    At most one root of the quadratic is an integer, and every staircase
    weight m(m+1)/2 has one.
    """
    if t < 0:
        raise NotRepresentable(f"t must be non-negative, got {t}")
    disc = 1 + 8 * t
    s = math.isqrt(disc)
    if s * s != disc:
        raise NotRepresentable(f"2k^2 - k = {t} has no integer solution")
    for num in (1 - s, 1 + s):
        if num % 4 == 0:
            return num // 4
    raise NotRepresentable(f"2k^2 - k = {t} has no integer solution")


def _staircase_of(t: int) -> int:
    """The m with m*(m+1)/2 = t, or NotTriangular."""
    if t < 0:
        raise NotTriangular(f"t must be non-negative, got {t}")
    s = math.isqrt(8 * t + 1)
    if s * s != 8 * t + 1:
        raise NotTriangular(f"{t} is not a triangular number")
    return (s - 1) // 2


def _as_strict(d) -> StrictPartition:
    return d if isinstance(d, StrictPartition) else StrictPartition(tuple(d))


def staircase_split(d: StrictPartition) -> tuple[int, ABSequence]:
    """Split the column profile of d into staircase weight and tail.

    Returns (t, delta) with |d| = t + |delta|; the pair always satisfies
    exactly one of: a(delta) equals the staircase length m, or
    a(delta) <= m - 1 with b(delta) = 1, or delta is empty.
    """
    d = _as_strict(d)
    result = split_point(shifted_column_profile(d), d.length)
    return result.staircase_weight, result.tail


def staircase_join(t: int, delta) -> StrictPartition:
    """Inverse of staircase_split: prepend columns 1, 2, ..., m to delta.

    The joined column profile is read back into rows of a shifted diagram,
    row j running to the last column of height >= j: O(profile length +
    rows).  The result is split again and must give back (t, delta).
    Raises NotTriangular when t is not a staircase weight and
    NotInStaircaseImage when (t, delta) fails the image conditions.
    """
    m = _staircase_of(t)
    if delta is None:
        delta = EPSILON
    elif not isinstance(delta, ABSequence):
        entries = tuple(delta)
        delta = validate_ab(entries) if entries else EPSILON
    if delta:
        case1 = delta.a == m
        case2 = delta.a <= m - 1 and delta.b == 1
        if not (case1 or case2):
            raise NotInStaircaseImage(
                f"(t={t}, delta={delta.entries}) has a={delta.a}, b={delta.b}, "
                f"incompatible with staircase length {m}"
            )
    profile = tuple(range(1, m + 1)) + delta.entries
    if not profile:
        return StrictPartition()
    rows = []
    last = len(profile)  # last column of height >= j only moves left as j grows
    for j in range(1, max(profile) + 1):
        while profile[last - 1] < j:
            last -= 1
        rows.append(last - j + 1)
    try:
        joined = StrictPartition(rows)
    except ValueError as exc:
        raise NotInStaircaseImage(f"profile {profile} is not a shifted diagram: {exc}") from exc
    back_t, back_delta = staircase_split(joined)
    if back_t != t or back_delta.entries != delta.entries:
        raise NotInStaircaseImage(
            f"(t={t}, delta={delta.entries}) does not round-trip through {joined}"
        )
    return joined


@dataclass(frozen=True)
class ParameterBox:
    """The (N, nu, k) parameter triple: strict partitions are capped at
    largest part 2N + nu, images live in an (N+nu-k) x (N+k) box."""

    N: int
    nu: int
    k: int

    def __post_init__(self):
        if self.N < 0:
            raise ValueError(f"N must be non-negative, got {self.N}")
        if self.nu not in (0, 1):
            raise ValueError(f"nu must be 0 or 1, got {self.nu}")

    @property
    def strict_largest_bound(self) -> int:
        return 2 * self.N + self.nu

    @property
    def admissible(self) -> bool:
        """Whether the rank class can be non-empty: -N <= k <= N + nu."""
        return -self.N <= self.k <= self.N + self.nu

    def bounds(self, conjugated: bool = True) -> tuple[int, int]:
        """(largest-part bound, part-count bound) for the image partition.

        Images of rank k <= 0, and conjugated images of rank k > 0, lie in
        the uniform orientation (N+nu-k, N+k); un-conjugated images of
        rank k > 0 lie in the transpose (N+k, N+nu-k).
        """
        if self.k <= 0 or conjugated:
            return self.N + self.nu - self.k, self.N + self.k
        return self.N + self.k, self.N + self.nu - self.k


@dataclass(frozen=True)
class MappedPair:
    """Forward-map output: triangular weight plus image partition.

    m is the staircase length actually split off; a_seq is the a-value of
    the tail sequence, which drops below m exactly when the tail is
    non-increasing from the start (and is None for an empty tail).
    """

    triangular: int
    image: Partition
    k: int
    m: int
    a_seq: int | None
    conjugated: bool


def minimal_box(k: int, largest: int) -> ParameterBox:
    """Smallest box (by 2N + nu) admitting rank k and the given largest part.

    Rank k is admissible exactly when 2N + nu >= staircase_length(k).
    """
    v = max(largest, 0, staircase_length(k))
    return ParameterBox(v // 2, v % 2, k)


def minimal_box_for_image(k: int, image: Partition) -> ParameterBox:
    """Smallest box whose rank-k image orientation contains the
    (un-conjugated) image partition.

    With v = 2N + nu, N = floor(v/2) and N + nu = ceil(v/2), so each
    bound N + c >= x needs v >= 2(x - c) and each bound N + nu + c >= x
    needs v >= 2(x - c) - 1.  The part-count bound alone already forces
    admissibility.
    """
    if k <= 0:
        v = max(2 * (image.length - k), 2 * (image.largest + k) - 1)
    else:
        v = max(2 * (image.largest - k), 2 * (image.length + k) - 1)
    return ParameterBox(v // 2, v % 2, k)


def map_strict(d, box: ParameterBox | None = None, conjugate_positive: bool = True) -> MappedPair:
    """Map a strict partition to (triangular weight, box partition).

    With conjugate_positive (the default) images of positive rank are
    conjugated into the uniform box orientation; pass False to keep the
    raw double-cover image.  The image satisfies
    |d| = 2k^2 - k + 2*|image| and the box bounds of the orientation.
    """
    d = _as_strict(d)
    k = bg_rank(d)
    if box is None:
        box = minimal_box(k, d.largest)
    if box.k != k:
        raise RankMismatch(f"partition has BG-rank {k}, box requires {box.k}")
    if d.largest > box.strict_largest_bound:
        raise LargestPartExceedsBound(
            f"largest part {d.largest} exceeds 2N+nu = {box.strict_largest_bound}"
        )
    result = split_point(shifted_column_profile(d), d.length)
    if result.m != staircase_length(k):
        raise ParameterMismatch(
            f"staircase of length {result.m} split off, BG-rank {k} needs {staircase_length(k)}"
        )
    tail = result.tail
    image = cover_image(tail.a, tail) if tail else Partition()
    conjugated = k > 0 and conjugate_positive
    if conjugated:
        image = conjugate(image)
    return MappedPair(
        triangular=result.staircase_weight,
        image=image,
        k=k,
        m=result.m,
        a_seq=tail.a if tail else None,
        conjugated=conjugated,
    )


def unmap_strict(
    t: int,
    image,
    box: ParameterBox | None = None,
    conjugated: bool = True,
) -> StrictPartition:
    """Inverse of map_strict.

    The rank is forced by t through 2k^2 - k = t; `conjugated` states how
    a positive-rank image is oriented and must match the forward call.
    The tail's a-value is m when the image is wide enough (largest part
    > m) and largest - 1 otherwise, the two cases being disjoint.
    """
    image = image if isinstance(image, Partition) else Partition(tuple(image))
    try:
        k = rank_from_triangular(t)
    except NotRepresentable as exc:
        raise ParameterMismatch(str(exc)) from exc
    working = conjugate(image) if (k > 0 and conjugated) else image
    if box is None:
        box = minimal_box_for_image(k, working)
    if box.k != k:
        raise ParameterMismatch(f"t = {t} forces rank {k}, box requires {box.k}")
    bound_l, bound_m = box.bounds(conjugated=False)
    if working.largest > bound_l or working.length > bound_m:
        raise ParameterMismatch(
            f"image {working} exceeds the ({bound_l}, {bound_m}) box for rank {k}"
        )
    m = staircase_length(k)
    if not working:
        delta = EPSILON
    else:
        try:
            delta = cover_preimage(m, working)
        except NotInImage:
            a2 = working.largest - 1
            if a2 > m - 1:
                raise NotInImage(
                    f"image {working} is in no cover class compatible with rank {k}"
                )
            delta = cover_preimage(a2, working)
    try:
        return staircase_join(t, delta)
    except NotInStaircaseImage as exc:
        raise NotInImage(str(exc)) from exc


@dataclass(frozen=True)
class RecoveredParameters:
    k: int
    N: int
    nu: int
    orientation: str  # "minus" for k <= 0, "plus" for k > 0


def recover_parameters(t: int, bound_l: int, bound_m: int) -> RecoveredParameters:
    """Solve for (k, N, nu) from the triangular weight and the image box.

    bound_l caps the largest part, bound_m the number of parts, in the
    orientation dictated by the sign of the recovered rank.
    """
    k = rank_from_triangular(t)
    if k <= 0:
        n_val = bound_m - k
        nu = bound_l - n_val + k
        orientation = "minus"
    else:
        n_val = bound_l - k
        nu = bound_m - n_val + k
        orientation = "plus"
    if n_val < 0 or nu not in (0, 1):
        raise InconsistentParameters(
            f"no N >= 0, nu in {{0,1}} give bounds ({bound_l}, {bound_m}) for rank {k}"
        )
    return RecoveredParameters(k=k, N=n_val, nu=nu, orientation=orientation)


def last_block_within_bound(d) -> bool:
    """Whether the last busy block index stays within largest(d) - m - 1.

    The tail sequence has length largest(d) - m, so its cover can reach
    at most that many blocks minus one; an empty tail covers nothing and
    passes vacuously.
    """
    d = _as_strict(d)
    result = split_point(shifted_column_profile(d), d.length)
    if not result.tail:
        return True
    cover = double_cover(result.tail.a, result.tail.entries)
    return cover.last_index <= d.largest - result.m - 1
