"""End-to-end checks runnable from the CLI and mirrored by the test suite.

Each criterion is a function returning a CriterionResult; run_all executes
all of them, at full scale by default or reduced scale with quick=True.
Nothing here trusts the maps being checked: counts come from independent
enumeration and generating-function identities are compared coefficient
by coefficient.
"""

import time
from dataclasses import dataclass

from .bijections import (
    ParameterBox,
    last_block_within_bound,
    map_strict,
    minimal_box,
    staircase_length,
    unmap_strict,
)
from .cover import double_cover
from .enumeration import EnumSpec, count_partitions, enumerate_partitions
from .errors import DomainError
from .partitions import Partition, StrictPartition, bg_rank, conjugate, shifted_column_profile
from .sequences import split_point
from .qseries import (
    QPolynomial,
    gaussian_binomial,
    neg_q_pochhammer,
    strict_bgrank_gf,
    verify_eq1,
    verify_eq2,
    verify_eq3,
    verify_eq51,
    verify_eq52,
    verify_eq53,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.detail})"


GOLDEN_CASES = [
    {
        "source": (9, 7, 5, 4, 1),
        "N": 4,
        "nu": 1,
        "k": 2,
        "t": 6,
        "image": (6, 3, 1),
        "b": (4, 1, 3, 1, 1),
        "d": (4, 5, 4, 4, 2, 1),
    },
    {
        "source": (12, 11, 6, 4, 2),
        "N": 6,
        "nu": 0,
        "k": -1,
        "t": 3,
        "image": (5, 4, 3, 2, 2),
        "b": (3, 1, 4, 1, 3, 0, 2, 0, 2),
        "d": (3, 4, 5, 5, 4, 3, 2, 2, 2, 2),
    },
    {
        "source": (11, 8, 6, 5, 4, 3, 2, 1),
        "N": 5,
        "nu": 1,
        "k": -2,
        "t": 10,
        "image": (8, 7),
        "b": (5, 1, 6, 2, 0, 1),
        "d": (5, 6, 7, 8, 2, 1, 1),
    },
    {
        "source": (11, 8, 7, 4, 3, 1),
        "N": 6,
        "nu": 1,
        "k": 2,
        "t": 6,
        "image": (5, 5, 3, 1),
        "b": (4, 1, 5, 0, 3, 0, 1),
        "d": (4, 5, 6, 5, 3, 3, 1, 1),
    },
]


def _strict_partitions_up_to(n_max):
    for n in range(n_max + 1):
        yield from enumerate_partitions(EnumSpec(n, strict=True))


def criterion_1(quick: bool = False) -> CriterionResult:
    """Showcase partitions map both ways with the exact intermediates."""
    started = time.perf_counter()
    failures = []
    for case in GOLDEN_CASES:
        d = StrictPartition(case["source"])
        box = ParameterBox(case["N"], case["nu"], case["k"])
        pair = map_strict(d, box, conjugate_positive=False)
        result = split_point(shifted_column_profile(d), d.length)
        cover = double_cover(result.tail.a, result.tail.entries)
        checks = [
            pair.k == case["k"],
            pair.triangular == case["t"],
            pair.image == Partition(case["image"]),
            result.tail.entries == case["d"],
            cover.covered == case["b"],
            cover.sequence() == case["d"],
            unmap_strict(case["t"], Partition(case["image"]), box, conjugated=False) == d,
        ]
        if not all(checks):
            failures.append(str(case["source"]))
    return CriterionResult(
        1,
        "golden fixtures, both directions",
        not failures,
        f"{len(GOLDEN_CASES)} cases" + (f"; failed: {failures}" if failures else ""),
        time.perf_counter() - started,
    )


def criterion_2(quick: bool = False) -> CriterionResult:
    """Bounded strict rank generating function equals the shifted q^2 binomial."""
    started = time.perf_counter()
    n_top = 3 if quick else 12
    bad = []
    total = 0
    for n_cap in range(n_top + 1):
        for nu in (0, 1):
            for k in range(-n_cap - 1, n_cap + nu + 2):
                total += 1
                report = verify_eq1(n_cap, nu, k)
                if not report.equal:
                    bad.append(report.describe())
    return CriterionResult(
        2,
        "eq1 exact over the parameter grid",
        not bad,
        f"{total} tuples" + (f"; first failure: {bad[0]}" if bad else ""),
        time.perf_counter() - started,
    )


def criterion_3(quick: bool = False) -> CriterionResult:
    """Rank-summed binomials equal the finite distinct-parts product."""
    started = time.perf_counter()
    n_top = 3 if quick else 20
    bad = []
    total = 0
    for n_cap in range(n_top + 1):
        for nu in (0, 1):
            total += 1
            report = verify_eq52(n_cap, nu)
            if not report.equal:
                bad.append(report.describe())
    return CriterionResult(
        3,
        "eq52 exact over the parameter grid",
        not bad,
        f"{total} tuples" + (f"; first failure: {bad[0]}" if bad else ""),
        time.perf_counter() - started,
    )


def criterion_4(quick: bool = False) -> CriterionResult:
    """Truncated identities eq2 / eq3 / eq51 / eq53 agree up to the cutoff."""
    started = time.perf_counter()
    degree = 16 if quick else 200
    k_top = 2 if quick else 3
    n_top = 2 if quick else 5
    bad = []
    total = 0
    for k in range(-k_top, k_top + 1):
        total += 1
        report = verify_eq2(k, degree)
        if not report.equal:
            bad.append(report.describe())
    total += 1
    report = verify_eq3(degree)
    if not report.equal:
        bad.append(report.describe())
    for n_cap in range(n_top + 1):
        for nu in (0, 1):
            for k in range(-k_top, k_top + 1):
                total += 1
                report = verify_eq51(n_cap, nu, k, degree)
                if not report.equal:
                    bad.append(report.describe())
            total += 1
            report = verify_eq53(n_cap, nu, degree)
            if not report.equal:
                bad.append(report.describe())
    return CriterionResult(
        4,
        f"eq2/eq3/eq51/eq53 truncated at degree {degree}",
        not bad,
        f"{total} tuples" + (f"; first failure: {bad[0]}" if bad else ""),
        time.perf_counter() - started,
    )


def criterion_5(quick: bool = False) -> CriterionResult:
    """Strict rank classes and box classes have equal cardinality,
    counted by enumeration on both sides."""
    started = time.perf_counter()
    n_max = 16 if quick else 28
    n_top = 4 if quick else 6
    k_top = 3 if quick else 4
    bad = []
    total = 0
    for n in range(n_max + 1):
        for n_cap in range(n_top + 1):
            for nu in (0, 1):
                for k in range(-k_top, k_top + 1):
                    total += 1
                    strict_count = count_partitions(
                        EnumSpec(n, max_part=2 * n_cap + nu, strict=True, rank=k)
                    )
                    doubled = n - 2 * k * k + k
                    bound_l = n_cap + nu - k
                    bound_m = n_cap + k
                    if doubled < 0 or doubled % 2 == 1 or bound_l < 0 or bound_m < 0:
                        box_count = 0
                    else:
                        box_count = count_partitions(
                            EnumSpec(doubled // 2, max_part=bound_l, max_len=bound_m)
                        )
                    if strict_count != box_count:
                        bad.append(f"n={n} N={n_cap} nu={nu} k={k}: {strict_count} != {box_count}")
    return CriterionResult(
        5,
        f"cardinality law up to n = {n_max}",
        not bad,
        f"{total} tuples" + (f"; first failure: {bad[0]}" if bad else ""),
        time.perf_counter() - started,
    )


def criterion_6(quick: bool = False) -> CriterionResult:
    """Forward/backward round trips, weight, staircase and bound laws."""
    started = time.perf_counter()
    n_max = 16 if quick else 28
    bad = []
    total = 0
    for d in _strict_partitions_up_to(n_max):
        total += 1
        k = bg_rank(d)
        box = minimal_box(k, d.largest)
        try:
            for conj in (True, False):
                pair = map_strict(d, box, conjugate_positive=conj)
                if d.size != 2 * k * k - k + 2 * pair.image.size:
                    raise AssertionError(f"size law fails for {d}")
                if pair.m != staircase_length(k):
                    raise AssertionError(f"staircase law fails for {d}")
                bound_l, bound_m = box.bounds(pair.conjugated)
                if pair.image.largest > bound_l or pair.image.length > bound_m:
                    raise AssertionError(f"box bound fails for {d}")
                back = unmap_strict(pair.triangular, pair.image, box, conjugated=pair.conjugated)
                if back != d:
                    raise AssertionError(f"round trip fails for {d}: got {back}")
                if back.largest > box.strict_largest_bound:
                    raise AssertionError(f"inverse bound fails for {d}")
                again = map_strict(back, box, conjugate_positive=conj)
                if again != pair:
                    raise AssertionError(f"image round trip fails for {d}")
            if not last_block_within_bound(d):
                raise AssertionError(f"last block bound fails for {d}")
        except (AssertionError, DomainError) as exc:
            bad.append(str(exc))
    return CriterionResult(
        6,
        f"bijection laws over all strict partitions up to n = {n_max}",
        not bad,
        f"{total} partitions" + (f"; first failure: {bad[0]}" if bad else ""),
        time.perf_counter() - started,
    )


def criterion_7(quick: bool = False) -> CriterionResult:
    """Independent oracles agree: binomial coefficients vs box counts,
    rank sums vs the distinct-parts product, conjugation symmetries."""
    started = time.perf_counter()
    m_top = 8 if quick else 10
    part_top = 8 if quick else 12
    n_max = 12 if quick else 20
    bad = []
    for m in range(m_top + 1):
        for n in range(m + 1):
            poly = gaussian_binomial(m, n)
            for j in range(n * (m - n) + 1):
                expected = count_partitions(EnumSpec(j, max_part=m - n, max_len=n))
                if poly.coefficient(j) != expected:
                    bad.append(f"[{m},{n}] coefficient {j}")
    for cap in range(part_top + 1):
        total = QPolynomial.zero()
        for k in range(-cap, cap + 2):
            total = total + strict_bgrank_gf(cap, k)
        if total != neg_q_pochhammer(cap):
            bad.append(f"rank sum at cap {cap}")
    for n in range(n_max + 1):
        for p in enumerate_partitions(EnumSpec(n)):
            if conjugate(conjugate(p)) != p:
                bad.append(f"conjugation not involutive on {p}")
    for n in range(n_max + 1):
        for bound_l in range(7):
            for bound_m in range(7):
                direct = set(enumerate_partitions(EnumSpec(n, max_part=bound_l, max_len=bound_m)))
                flipped = {
                    conjugate(p)
                    for p in enumerate_partitions(EnumSpec(n, max_part=bound_m, max_len=bound_l))
                }
                if direct != flipped:
                    bad.append(f"conjugation bridge fails at n={n} L={bound_l} M={bound_m}")
    return CriterionResult(
        7,
        "oracle equivalences",
        not bad,
        "binomial/box, rank sums, conjugation" + (f"; first failure: {bad[0]}" if bad else ""),
        time.perf_counter() - started,
    )


def criterion_8(quick: bool = False) -> CriterionResult:
    """At least one split tail falls in the low-a case and round-trips."""
    started = time.perf_counter()
    n_max = 16 if quick else 28
    hits = 0
    bad = []
    for d in _strict_partitions_up_to(n_max):
        result = split_point(shifted_column_profile(d), d.length)
        if result.tail and result.tail.a <= result.m - 1:
            if result.tail.b != 1:
                bad.append(f"low-a tail of {d} has b = {result.tail.b}")
                continue
            hits += 1
            pair = map_strict(d)
            back = unmap_strict(pair.triangular, pair.image, conjugated=pair.conjugated)
            if back != d:
                bad.append(f"low-a round trip fails for {d}")
    ok = hits >= 1 and not bad
    return CriterionResult(
        8,
        "low-a split case is exercised and round-trips",
        ok,
        f"{hits} cases" + (f"; first failure: {bad[0]}" if bad else ""),
        time.perf_counter() - started,
    )


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
]


def run_all(quick: bool = False) -> list[CriterionResult]:
    return [fn(quick) for fn in ALL_CRITERIA]
