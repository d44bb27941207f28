import random

import pytest

from bgrank import (
    ParseError,
    Partition,
    StrictPartition,
    bg_rank,
    bg_rank_residue,
    characteristic,
    conjugate,
    format_partition,
    parse_partition,
    shifted_column_profile,
)
from oracles import direct_rank, iter_partitions, residue_fill_rank, shifted_profile_cells, transpose_cells


class TestConstruction:
    def test_valid(self):
        p = Partition((5, 5, 3, 1))
        assert p.size == 14
        assert p.length == 4
        assert p.largest == 5

    def test_empty(self):
        p = Partition()
        assert p.size == 0
        assert p.length == 0
        assert p.largest == 0
        assert not p

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((3, 5))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError):
            Partition((3, -1))

    def test_strict_rejects_repeats(self):
        with pytest.raises(ValueError):
            StrictPartition((4, 4, 1))
        assert StrictPartition((4, 3, 1)).size == 8

    def test_strict_is_a_partition(self):
        assert StrictPartition((4, 1)) == Partition((4, 1))

    def test_immutable(self):
        p = Partition((2, 1))
        with pytest.raises(AttributeError):
            p.parts = (3,)


class TestText:
    def test_round_trip(self):
        for text in ("9,7,5,4,1", "1", ""):
            assert format_partition(parse_partition(text)) == text

    def test_strict_flag(self):
        assert isinstance(parse_partition("4,1", strict=True), StrictPartition)
        with pytest.raises(ParseError):
            parse_partition("4,4", strict=True)

    def test_bad_text(self):
        with pytest.raises(ParseError):
            parse_partition("2,x")
        with pytest.raises(ParseError):
            parse_partition("1,2")


class TestBgRank:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((10, 7, 4, 2), -1),
            ((), 0),
            ((9, 7, 5, 4, 1), 2),
            ((12, 11, 6, 4, 2), -1),
            ((11, 8, 6, 5, 4, 3, 2, 1), -2),
            ((11, 8, 7, 4, 3, 1), 2),
        ],
    )
    def test_fixtures(self, parts, expected):
        assert bg_rank(Partition(parts)) == expected

    def test_residue_fixture(self):
        counts, rank = bg_rank_residue(Partition((10, 7, 4, 2)))
        assert (counts.r0, counts.r1, rank) == (11, 12, -1)

    def test_residue_empty(self):
        counts, rank = bg_rank_residue(Partition())
        assert (counts.r0, counts.r1, rank) == (0, 0, 0)

    def test_formulations_agree_exhaustively(self):
        for n in range(26):
            for parts in iter_partitions(n):
                p = Partition(parts)
                counts, rank = bg_rank_residue(p)
                assert rank == bg_rank(p)
                assert counts.r0 + counts.r1 == p.size
                assert (counts.r0, counts.r1) == residue_fill_rank(parts)
                assert bg_rank(p) == direct_rank(parts)

    def test_characteristic(self):
        assert characteristic(Partition((10, 7, 4, 2))) == 1
        assert characteristic(Partition()) == 0
        assert characteristic(Partition((9, 7, 5, 4, 1))) == -2


class TestConjugate:
    def test_fixtures(self):
        assert conjugate(Partition((6, 3, 1))) == Partition((3, 2, 2, 1, 1, 1))
        assert conjugate(Partition()) == Partition()
        assert conjugate(Partition((1, 1, 1))) == Partition((3,))

    def test_involution_and_oracle(self):
        for n in range(15):
            for parts in iter_partitions(n):
                p = Partition(parts)
                c = conjugate(p)
                assert c.parts == transpose_cells(parts)
                assert conjugate(c) == p
                assert c.size == p.size
                assert (c.largest, c.length) == (p.length, p.largest)

    def test_random_against_cells(self):
        rng = random.Random(7)
        for _ in range(100):
            parts = tuple(sorted((rng.randint(1, 80) for _ in range(rng.randint(1, 60))), reverse=True))
            assert conjugate(Partition(parts)).parts == transpose_cells(parts)


class TestShiftedProfile:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((8, 5, 2, 1), (1, 2, 3, 4, 2, 2, 1, 1)),
            ((9, 7, 5, 4, 1), (1, 2, 3, 4, 5, 4, 4, 2, 1)),
            ((1,), (1,)),
            ((12, 11, 6, 4, 2), (1, 2, 3, 4, 5, 5, 4, 3, 2, 2, 2, 2)),
            ((11, 8, 6, 5, 4, 3, 2, 1), (1, 2, 3, 4, 5, 6, 7, 8, 2, 1, 1)),
            ((11, 8, 7, 4, 3, 1), (1, 2, 3, 4, 5, 6, 5, 3, 3, 1, 1)),
        ],
    )
    def test_fixtures(self, parts, expected):
        assert shifted_column_profile(StrictPartition(parts)) == expected

    def test_properties(self):
        for n in range(1, 31):
            for parts in iter_partitions(n, strict=True):
                d = StrictPartition(parts)
                profile = shifted_column_profile(d)
                assert sum(profile) == d.size
                assert len(profile) == d.largest
                r = d.length
                assert profile[:r] == tuple(range(1, r + 1))
                tail = profile[r - 1 :]
                assert all(tail[i] >= tail[i + 1] for i in range(len(tail) - 1))

    def test_random_against_cells(self):
        rng = random.Random(11)
        for _ in range(200):
            parts = tuple(sorted(rng.sample(range(1, 120), rng.randint(1, 40)), reverse=True))
            assert shifted_column_profile(StrictPartition(parts)) == shifted_profile_cells(parts)
