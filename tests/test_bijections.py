import random

import pytest

from bgrank import bijections
from bgrank import (
    EPSILON,
    InconsistentParameters,
    LargestPartExceedsBound,
    NotInStaircaseImage,
    NotRepresentable,
    NotTriangular,
    ParameterBox,
    ParameterMismatch,
    Partition,
    RankMismatch,
    StrictPartition,
    bg_rank,
    last_block_within_bound,
    map_strict,
    minimal_box,
    minimal_box_for_image,
    rank_from_triangular,
    recover_parameters,
    staircase_join,
    staircase_length,
    staircase_split,
    unmap_strict,
    validate_ab,
)
from oracles import iter_partitions, shifted_profile_cells, shifted_rows


def strict_partitions_up_to(n_max):
    for n in range(n_max + 1):
        for parts in iter_partitions(n, strict=True):
            yield StrictPartition(parts)


def random_strict_partitions(seed, count, largest_top, length_top):
    """Seeded strict partitions with a largest part in 1 .. largest_top
    and at most length_top parts."""
    rng = random.Random(seed)
    for _ in range(count):
        largest = rng.randint(1, largest_top)
        rest = rng.sample(range(1, largest), min(largest - 1, rng.randint(0, length_top - 1)))
        yield StrictPartition(sorted(rest + [largest], reverse=True))


def stepping_minimal_box(k, largest):
    """minimal_box as a search: step 2N + nu up from the largest part."""
    v = max(largest, 0)
    while True:
        box = ParameterBox(v // 2, v % 2, k)
        if box.admissible:
            return box
        v += 1


def stepping_image_boxes(k, size):
    """minimal_box_for_image as a search, for every largest part and
    length in 0 .. size at once: step 2N + nu up from 0 and give each
    (largest, length) the first admissible box that holds it.  For one
    largest part the lengths held so far are always 0 .. next - 1."""
    found = {}
    next_length = [0] * (size + 1)
    v = 0
    while len(found) < (size + 1) ** 2:
        box = ParameterBox(v // 2, v % 2, k)
        bound_l, bound_m = box.bounds(conjugated=False)
        if box.admissible:
            for largest in range(min(bound_l, size) + 1):
                while next_length[largest] <= min(bound_m, size):
                    found[(largest, next_length[largest])] = box
                    next_length[largest] += 1
        v += 1
    return found


class TestRankArithmetic:
    @pytest.mark.parametrize("k,a", [(0, 0), (2, 3), (-2, 4), (1, 1), (-1, 2), (3, 5)])
    def test_staircase_length(self, k, a):
        assert staircase_length(k) == a

    @pytest.mark.parametrize("t,k", [(6, 2), (3, -1), (10, -2), (0, 0), (1, 1), (21, -3), (15, 3)])
    def test_rank_from_triangular(self, t, k):
        assert rank_from_triangular(t) == k
        assert 2 * k * k - k == t
        assert staircase_length(k) * (staircase_length(k) + 1) // 2 == t

    @pytest.mark.parametrize("t", [2, 4, 5, 7, 8, 9, 11])
    def test_not_representable(self, t):
        with pytest.raises(NotRepresentable):
            rank_from_triangular(t)

    def test_inverse_pair(self):
        for k in range(-8, 9):
            assert rank_from_triangular(2 * k * k - k) == k


class TestStaircaseSplit:
    def test_fixtures(self):
        t, delta = staircase_split(StrictPartition((9, 7, 5, 4, 1)))
        assert (t, delta.entries) == (6, (4, 5, 4, 4, 2, 1))
        t, delta = staircase_split(StrictPartition((11, 8, 6, 5, 4, 3, 2, 1)))
        assert (t, delta.entries) == (10, (5, 6, 7, 8, 2, 1, 1))
        assert staircase_split(StrictPartition()) == (0, EPSILON)

    def test_weight_conservation(self):
        for d in strict_partitions_up_to(24):
            t, delta = staircase_split(d)
            assert t + delta.size == d.size


class TestStaircaseJoin:
    def test_fixtures(self):
        assert staircase_join(6, validate_ab((4, 5, 4, 4, 2, 1))) == StrictPartition((9, 7, 5, 4, 1))
        assert staircase_join(3, (1, 1)) == StrictPartition((4, 1))
        assert staircase_join(0, EPSILON) == StrictPartition()
        assert staircase_join(3, None) == StrictPartition((2, 1))

    def test_not_triangular(self):
        with pytest.raises(NotTriangular):
            staircase_join(2, EPSILON)

    def test_conditions_enforced(self):
        # a(delta) = 3 exceeds the staircase length m = 2
        with pytest.raises(NotInStaircaseImage):
            staircase_join(3, (4, 5, 2, 1))
        # a(delta) = 0 <= m - 1 but b(delta) = 2
        with pytest.raises(NotInStaircaseImage):
            staircase_join(6, (1, 2, 2, 1))

    def test_round_trip_over_split(self):
        for d in strict_partitions_up_to(24):
            t, delta = staircase_split(d)
            assert staircase_join(t, delta) == d

    def test_random_against_shifted_rows(self):
        # long, sparse and dense shapes; the oracle reads each row with max()
        shapes = [(400, 5), (300, 40), (150, 150)]
        for seed, (largest_top, length_top) in enumerate(shapes):
            for d in random_strict_partitions(seed, 40, largest_top, length_top):
                t, delta = staircase_split(d)
                rows = shifted_rows(shifted_profile_cells(d.parts))
                assert staircase_join(t, delta).parts == rows == d.parts


class TestParameterBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterBox(-1, 0, 0)
        with pytest.raises(ValueError):
            ParameterBox(2, 2, 0)

    def test_bounds_orientations(self):
        box = ParameterBox(4, 1, 2)
        assert box.strict_largest_bound == 9
        assert box.bounds(conjugated=False) == (6, 3)
        assert box.bounds(conjugated=True) == (3, 6)
        low = ParameterBox(6, 0, -1)
        assert low.bounds(conjugated=False) == (7, 5)
        assert low.bounds(conjugated=True) == (7, 5)

    def test_admissible(self):
        assert ParameterBox(2, 0, -2).admissible
        assert not ParameterBox(2, 0, 3).admissible
        assert ParameterBox(2, 1, 3).admissible

    def test_minimal_box(self):
        assert minimal_box(2, 9) == ParameterBox(4, 1, 2)
        assert minimal_box(0, 0) == ParameterBox(0, 0, 0)
        assert minimal_box(3, 1) == ParameterBox(2, 1, 3)
        assert minimal_box(-2, 1) == ParameterBox(2, 0, -2)

    def test_minimal_box_closed_form(self):
        for k in range(-30, 31):
            for largest in range(61):
                assert minimal_box(k, largest) == stepping_minimal_box(k, largest), (k, largest)

    def test_minimal_box_for_image_closed_form(self):
        # only largest part and length matter, so a rectangle stands for
        # every image of that shape
        images = {(0, 0): Partition()}
        for largest in range(1, 61):
            for length in range(1, 61):
                images[(largest, length)] = Partition((largest,) * length)
        for k in range(-30, 31):
            expected = stepping_image_boxes(k, 60)
            for shape, image in images.items():
                assert minimal_box_for_image(k, image) == expected[shape], (k, shape)


class TestMapStrict:
    def test_showcases_without_conjugation(self):
        cases = [
            ((9, 7, 5, 4, 1), (4, 1), 2, 6, (6, 3, 1)),
            ((12, 11, 6, 4, 2), (6, 0), -1, 3, (5, 4, 3, 2, 2)),
            ((11, 8, 6, 5, 4, 3, 2, 1), (5, 1), -2, 10, (8, 7)),
            ((11, 8, 7, 4, 3, 1), (6, 1), 2, 6, (5, 5, 3, 1)),
        ]
        for source, (n_cap, nu), k, t, image in cases:
            d = StrictPartition(source)
            box = ParameterBox(n_cap, nu, k)
            pair = map_strict(d, box, conjugate_positive=False)
            assert pair.triangular == t
            assert pair.image == Partition(image)
            assert pair.k == k
            assert not pair.conjugated
            bound_l, bound_m = box.bounds(conjugated=False)
            assert pair.image.largest <= bound_l
            assert pair.image.length <= bound_m

    def test_showcase_bound_attainment(self):
        # first showcase hits both bounds exactly
        pair = map_strict(StrictPartition((9, 7, 5, 4, 1)), ParameterBox(4, 1, 2), False)
        assert pair.image.largest == 6 and pair.image.length == 3

    def test_conjugation_default(self):
        pair = map_strict(StrictPartition((9, 7, 5, 4, 1)), ParameterBox(4, 1, 2))
        assert pair.conjugated
        assert pair.image == Partition((3, 2, 2, 1, 1, 1))

    def test_negative_rank_never_conjugates(self):
        pair = map_strict(StrictPartition((12, 11, 6, 4, 2)))
        assert not pair.conjugated

    def test_low_a_case(self):
        pair = map_strict(StrictPartition((4, 1)), ParameterBox(2, 0, -1))
        assert (pair.triangular, pair.image) == (3, Partition((1,)))
        assert pair.m == 2 and pair.a_seq == 0

    def test_empty(self):
        pair = map_strict(StrictPartition())
        assert (pair.triangular, pair.image, pair.k) == (0, Partition(), 0)
        assert pair.a_seq is None

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            map_strict(StrictPartition((9, 7, 5, 4, 1)), ParameterBox(4, 1, 1))

    def test_largest_part_bound(self):
        with pytest.raises(LargestPartExceedsBound):
            map_strict(StrictPartition((9, 7, 5, 4, 1)), ParameterBox(1, 0, 2))

    def test_staircase_check_is_a_real_raise(self, monkeypatch):
        # the split must peel off the staircase the rank requires; break
        # that agreement and map_strict must refuse, also under python -O
        monkeypatch.setattr(bijections, "staircase_length", lambda k: staircase_length(k) + 1)
        with pytest.raises(ParameterMismatch):
            map_strict(StrictPartition((9, 7, 5, 4, 1)))


class TestUnmapStrict:
    def test_showcase_reversals(self):
        assert unmap_strict(6, Partition((6, 3, 1)), ParameterBox(4, 1, 2), conjugated=False) == StrictPartition((9, 7, 5, 4, 1))
        assert unmap_strict(10, Partition((8, 7)), ParameterBox(5, 1, -2), conjugated=False) == StrictPartition((11, 8, 6, 5, 4, 3, 2, 1))
        assert unmap_strict(3, Partition((5, 4, 3, 2, 2)), ParameterBox(6, 0, -1)) == StrictPartition((12, 11, 6, 4, 2))
        assert unmap_strict(6, Partition((5, 5, 3, 1)), ParameterBox(6, 1, 2), conjugated=False) == StrictPartition((11, 8, 7, 4, 3, 1))

    def test_low_a_reversal(self):
        assert unmap_strict(3, Partition((1,)), ParameterBox(2, 0, -1)) == StrictPartition((4, 1))

    def test_empty(self):
        assert unmap_strict(0, Partition()) == StrictPartition()

    def test_parameter_mismatch(self):
        with pytest.raises(ParameterMismatch):
            unmap_strict(2, Partition((1,)))  # 2 is not 2k^2 - k
        with pytest.raises(ParameterMismatch):
            unmap_strict(6, Partition((6, 3, 1)), ParameterBox(4, 1, -1), conjugated=False)
        with pytest.raises(ParameterMismatch):
            # image too wide for the box
            unmap_strict(6, Partition((6, 3, 1)), ParameterBox(2, 1, 2), conjugated=False)

    def test_every_in_box_pair_has_a_preimage(self):
        # the map is onto the whole box: any (t, image) with consistent t
        # and in-bound image unmaps, e.g. t=0 reaches every partition
        assert unmap_strict(0, Partition((2, 2))) == StrictPartition((4, 3, 1))
        for n in range(11):
            for parts in iter_partitions(n):
                back = unmap_strict(0, Partition(parts))
                assert bg_rank(back) == 0
                assert back.size == 2 * n


class TestRecoverParameters:
    def test_fixtures(self):
        got = recover_parameters(6, 6, 3)
        assert (got.k, got.N, got.nu, got.orientation) == (2, 4, 1, "plus")
        got = recover_parameters(3, 7, 5)
        assert (got.k, got.N, got.nu, got.orientation) == (-1, 6, 0, "minus")
        got = recover_parameters(0, 5, 5)
        assert (got.k, got.N, got.nu) == (0, 5, 0)

    def test_inconsistent(self):
        with pytest.raises(InconsistentParameters):
            recover_parameters(6, 3, 9)

    def test_round_trip_through_forward(self):
        for d in strict_partitions_up_to(20):
            if not d:
                continue
            k = bg_rank(d)
            box = minimal_box(k, d.largest)
            pair = map_strict(d, box, conjugate_positive=False)
            bound_l, bound_m = box.bounds(conjugated=False)
            got = recover_parameters(pair.triangular, bound_l, bound_m)
            assert (got.k, got.N, got.nu) == (k, box.N, box.nu)


class TestLastBlockBound:
    def test_fixtures(self):
        assert last_block_within_bound(StrictPartition((9, 7, 5, 4, 1)))
        assert last_block_within_bound(StrictPartition((12, 11, 6, 4, 2)))
        assert last_block_within_bound(StrictPartition((1,)))


class TestExhaustiveSweep:
    N_MAX = 28

    def test_all_laws(self):
        low_a_seen = 0
        for d in strict_partitions_up_to(self.N_MAX):
            k = bg_rank(d)
            box = minimal_box(k, d.largest)
            for conj in (True, False):
                pair = map_strict(d, box, conjugate_positive=conj)
                assert d.size == 2 * k * k - k + 2 * pair.image.size
                assert pair.m == staircase_length(k)
                assert pair.triangular == 2 * k * k - k
                bound_l, bound_m = box.bounds(pair.conjugated)
                assert pair.image.largest <= bound_l
                assert pair.image.length <= bound_m
                back = unmap_strict(pair.triangular, pair.image, box, conjugated=pair.conjugated)
                assert back == d
                assert back.largest <= box.strict_largest_bound
                assert map_strict(back, box, conjugate_positive=conj) == pair
            assert last_block_within_bound(d)
            if pair.a_seq is not None and pair.a_seq < pair.m:
                low_a_seen += 1
        assert low_a_seen > 0

    def test_minimal_box_for_image_contains(self):
        for d in strict_partitions_up_to(18):
            k = bg_rank(d)
            pair = map_strict(d)
            assert unmap_strict(pair.triangular, pair.image, conjugated=pair.conjugated) == d
            working = pair.image
            box = minimal_box_for_image(k, working) if k <= 0 else None
            if box is not None:
                bound_l, bound_m = box.bounds(conjugated=False)
                assert working.largest <= bound_l and working.length <= bound_m


class TestLawsAtScale:
    """Criterion 6's laws on seeded strict partitions far beyond the
    exhaustive sweep: sparse-long shapes (few parts, largest part in the
    thousands) and dense ones (hundreds of parts), n up to about 10^5."""

    @staticmethod
    def shapes():
        rng = random.Random(31)
        yield StrictPartition((6000, 5999, 3))
        for _ in range(12):
            largest = rng.randint(500, 5000)
            rest = rng.sample(range(1, largest), rng.randint(1, 11))
            yield StrictPartition(sorted(rest + [largest], reverse=True))
        for _ in range(17):
            top = rng.randint(100, 500)
            keep = rng.uniform(0.3, 1.0)
            parts = [v for v in range(top - 1, 0, -1) if rng.random() < keep]
            yield StrictPartition([top] + parts)

    def test_all_laws(self):
        seen_sizes = []
        for d in self.shapes():
            seen_sizes.append(d.size)
            k = bg_rank(d)
            box = minimal_box(k, d.largest)
            for conj in (True, False):
                pair = map_strict(d, box, conjugate_positive=conj)
                assert d.size == 2 * k * k - k + 2 * pair.image.size
                assert pair.m == staircase_length(k)
                bound_l, bound_m = box.bounds(pair.conjugated)
                assert pair.image.largest <= bound_l and pair.image.length <= bound_m
                back = unmap_strict(pair.triangular, pair.image, box, conjugated=pair.conjugated)
                assert back == d
                assert back.largest <= box.strict_largest_bound
                assert map_strict(back, box, conjugate_positive=conj) == pair
            assert last_block_within_bound(d)
        assert max(seen_sizes) > 80_000
