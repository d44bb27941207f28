import itertools
import random

import pytest

from bgrank import (
    BlockCover,
    BoxPartitionClass,
    CoverOverflow,
    CoverUnderflow,
    IncompleteCover,
    NotABSequence,
    NotAPartitionShape,
    NotInImage,
    Partition,
    assemble,
    block_capacity,
    cover_image,
    cover_preimage,
    double_cover,
    in_class,
    read_cover,
    validate_ab,
)
from oracles import ab_sequences, cover_layout_cells, iter_partitions, row_sum_cover, young_rows


class TestBlockCapacity:
    def test_fixtures(self):
        assert block_capacity(3, 1) == 4
        assert block_capacity(3, 4) == 2
        assert block_capacity(0, 2) == 1

    def test_pattern(self):
        assert [block_capacity(3, i) for i in range(1, 7)] == [4, 1, 5, 2, 6, 3]

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            block_capacity(3, 0)


class TestForward:
    @pytest.mark.parametrize(
        "a,entries,image,b_vector",
        [
            (3, (4, 5, 2, 1), (5, 1), (4, 1, 1)),
            (3, (4, 5, 4, 4, 2, 1), (6, 3, 1), (4, 1, 3, 1, 1)),
            (4, (5, 6, 7, 8, 2, 1, 1), (8, 7), (5, 1, 6, 2, 0, 1)),
            (2, (3, 4, 5, 5, 4, 3, 2, 2, 2, 2), (5, 4, 3, 2, 2), (3, 1, 4, 1, 3, 0, 2, 0, 2)),
            (3, (4, 5, 6, 5, 3, 3, 1, 1), (5, 5, 3, 1), (4, 1, 5, 0, 3, 0, 1)),
        ],
    )
    def test_fixtures(self, a, entries, image, b_vector):
        cover = double_cover(a, entries)
        assert cover.covered == b_vector
        assert cover.sequence() == entries
        assert cover_image(a, entries) == Partition(image)
        assert cover_image(a, validate_ab(entries)) == Partition(image)

    def test_empty(self):
        assert cover_image(0, None) == Partition()
        assert cover_image(5, ()) == Partition()

    def test_weight_halves(self):
        cover = double_cover(3, (4, 5, 4, 4, 2, 1))
        assert cover.total == sum((4, 5, 4, 4, 2, 1)) // 2

    def test_cells_match_image(self):
        cover = double_cover(3, (4, 5, 4, 4, 2, 1))
        cells = cover.cells()
        assert len(cells) == cover.total
        image = cover_image(3, (4, 5, 4, 4, 2, 1))
        assert set(cells) == {
            (r, c) for r, part in enumerate(image.parts, start=1) for c in range(1, part + 1)
        }

    def test_first_entry_must_match_a(self):
        with pytest.raises(NotABSequence):
            cover_image(2, (4, 5, 2, 1))
        with pytest.raises(NotABSequence):
            cover_image(2, validate_ab((4, 5, 2, 1)))

    def test_overflow(self):
        # second entry would put 2 cells into the 1-cell block 2
        with pytest.raises(CoverOverflow):
            cover_image(0, (1, 3, 2))

    def test_underflow(self):
        with pytest.raises(CoverUnderflow):
            cover_image(0, (1, 1, 2, 1))

    def test_incomplete(self):
        with pytest.raises(IncompleteCover):
            cover_image(0, (1, 1, 1))

    def test_row_gap_is_rejected(self):
        # passes the capacity checks yet leaves row 1 with a hole at column 2
        with pytest.raises(NotAPartitionShape):
            cover_image(0, (1, 1, 2, 3, 1))

    def test_shape_rule_is_rejected(self):
        # block 4 reaches row 2 while row 2 holds one of its two cells
        with pytest.raises(NotAPartitionShape):
            cover_image(0, (1, 2, 2, 3, 2))


class TestBlockCoverType:
    def test_requires_trimmed(self):
        with pytest.raises(ValueError):
            BlockCover(3, (4, 0))

    def test_capacity_enforced(self):
        with pytest.raises(CoverOverflow):
            BlockCover(0, (2,))

    def test_last_index(self):
        assert BlockCover(3, ()).last_index == 0
        assert double_cover(3, (4, 5, 2, 1)).last_index == 3


class TestInverse:
    @pytest.mark.parametrize(
        "a,image,entries",
        [
            (3, (6, 3, 1), (4, 5, 4, 4, 2, 1)),
            (4, (8, 7), (5, 6, 7, 8, 2, 1, 1)),
            (0, (1,), (1, 1)),
            (3, (5, 1), (4, 5, 2, 1)),
            (2, (5, 4, 3, 2, 2), (3, 4, 5, 5, 4, 3, 2, 2, 2, 2)),
            (3, (5, 5, 3, 1), (4, 5, 6, 5, 3, 3, 1, 1)),
        ],
    )
    def test_fixtures(self, a, image, entries):
        assert cover_preimage(a, Partition(image)).entries == entries

    def test_empty(self):
        assert not cover_preimage(4, Partition())

    def test_not_in_image(self):
        # reconstruction yields a sequence whose a-value is 4, not 5
        with pytest.raises(NotInImage):
            cover_preimage(5, Partition((5, 1)))
        with pytest.raises(NotInImage):
            cover_preimage(3, Partition((2, 2)))

    def test_read_cover_matches_forward(self):
        fwd = double_cover(3, (4, 5, 4, 4, 2, 1))
        assert read_cover(3, Partition((6, 3, 1))) == fwd


class TestSplitTailRoundTrip:
    def test_tails_of_strict_partitions(self):
        # split tails reach larger a than the brute-force sweep below
        from bgrank import StrictPartition, shifted_column_profile, split_point

        for n in range(29):
            for parts in iter_partitions(n, strict=True):
                d = StrictPartition(parts)
                tail = split_point(shifted_column_profile(d), d.length).tail
                if not tail:
                    continue
                image = cover_image(tail.a, tail)
                assert 2 * image.size == tail.size
                assert cover_preimage(tail.a, image) == tail


class TestBoxClasses:
    def test_fixtures(self):
        assert in_class(Partition((5, 1)), BoxPartitionClass(3, 2))
        assert not in_class(Partition((5, 1)), BoxPartitionClass(3, 3))
        assert not in_class(Partition(), BoxPartitionClass(3, 1))

    def test_image_lands_in_its_class(self):
        for a, entries in [
            (3, (4, 5, 2, 1)),
            (3, (4, 5, 4, 4, 2, 1)),
            (4, (5, 6, 7, 8, 2, 1, 1)),
            (2, (3, 4, 5, 5, 4, 3, 2, 2, 2, 2)),
            (0, (1, 1)),
        ]:
            seq = validate_ab(entries)
            assert in_class(cover_image(a, seq), BoxPartitionClass(a, seq.b))


class TestExhaustiveBijectivity:
    """Brute-force the map over every valid sequence of weight <= 24."""

    A_MAX = 4
    SIZE_MAX = 24

    def _all_sequences(self, a):
        return ab_sequences(a, self.SIZE_MAX)

    def test_round_trip_weight_and_class(self):
        for a in range(self.A_MAX + 1):
            for entries, b in self._all_sequences(a):
                seq = validate_ab(entries)
                image = cover_image(a, seq)
                assert 2 * image.size == seq.size
                assert cover_preimage(a, image).entries == entries
                assert in_class(image, BoxPartitionClass(a, b))

    def test_injective_and_surjective(self):
        for a in range(self.A_MAX + 1):
            images = {}
            for entries, _ in self._all_sequences(a):
                image = cover_image(a, validate_ab(entries))
                assert image not in images, f"collision at a={a}: {entries}"
                images[image] = entries
            # every partition of weight <= 12 in some class P_{a,b} is hit
            for n in range(self.SIZE_MAX // 2 + 1):
                for parts in iter_partitions(n):
                    p = Partition(parts)
                    for b in range(1, 2 * len(parts) + 3):
                        if in_class(p, BoxPartitionClass(a, b)):
                            assert p in images, f"missed {p} in class ({a},{b})"

    def test_class_membership_agrees_with_inversion(self):
        # in_class says yes exactly when the preimage exists with that b
        for a in range(self.A_MAX + 1):
            for n in range(13):
                for parts in iter_partitions(n):
                    p = Partition(parts)
                    try:
                        seq = cover_preimage(a, p)
                        found_b = seq.b if p else None
                    except NotInImage:
                        found_b = None
                    for b in range(1, 2 * len(parts) + 3):
                        expected = found_b == b
                        assert in_class(p, BoxPartitionClass(a, b)) == expected, (a, b, parts)


class TestAgainstCellOracles:
    """The O(blocks) readings against cell-by-cell definitions."""

    def test_every_small_cover(self):
        # every capacity-respecting cover with a <= 2 and up to 7 blocks:
        # the cells form a Young diagram exactly when BlockCover and
        # assemble accept, and then assemble reads its rows
        checked = rejected = 0
        for a in range(3):
            for n_blocks in range(1, 8):
                caps = [block_capacity(a, i) for i in range(1, n_blocks + 1)]
                for covered in itertools.product(*(range(cap + 1) for cap in caps[:-1])):
                    for last in range(1, caps[-1] + 1):
                        covered_all = covered + (last,)
                        try:
                            got = assemble(BlockCover(a, covered_all)).parts
                        except NotAPartitionShape:
                            got = None
                            rejected += 1
                        assert got == young_rows(cover_layout_cells(a, covered_all)), (a, covered_all)
                        checked += 1
        assert rejected > 0 and checked > rejected

    def test_read_cover_on_random_partitions(self):
        rng = random.Random(2023)
        for _ in range(300):
            parts = tuple(sorted((rng.randint(1, 60) for _ in range(rng.randint(1, 40))), reverse=True))
            a = rng.randint(0, 8)
            assert read_cover(a, Partition(parts)).covered == row_sum_cover(a, parts), (a, parts)
