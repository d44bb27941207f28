import random
from math import comb

import pytest

from bgrank import (
    EnumSpec,
    QPolynomial,
    all_bgrank_gf,
    count_partitions,
    gaussian_binomial,
    inv_pochhammer,
    neg_q_pochhammer,
    qseries,
    strict_bgrank_gf,
    strict_rank_series,
    substitute_power,
    verify_eq1,
    verify_eq2,
    verify_eq3,
    verify_eq51,
    verify_eq52,
    verify_eq53,
)
from oracles import box_count, strict_partitions_by_size, subset_rank_table, walk_rank_table


class TestQPolynomial:
    def test_normalization(self):
        assert QPolynomial((1, 0, 2, 0, 0)).coeffs == (1, 0, 2)
        assert QPolynomial(()).is_zero()
        assert QPolynomial((0, 0)).is_zero()

    def test_truncation_drops_high_terms(self):
        p = QPolynomial((1, 1, 1, 1), truncation=2)
        assert p.coeffs == (1, 1, 1)
        assert p.truncation == 2

    def test_arithmetic(self):
        p = QPolynomial((1, 2))
        q = QPolynomial((0, 1, 3))
        assert (p + q).coeffs == (1, 3, 3)
        assert (p - q).coeffs == (1, 1, -3)
        assert (p * q).coeffs == (0, 1, 5, 6)
        assert (2 * p).coeffs == (2, 4)
        assert (p * QPolynomial.zero()).is_zero()

    def test_mul_commutative_associative(self):
        a = QPolynomial((1, 1))
        b = QPolynomial((1, 0, 2))
        c = QPolynomial((3, 1, 0, 1))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    def test_truncated_comparison(self):
        exact = neg_q_pochhammer(5)
        truncated = exact.truncate(3)
        assert truncated == exact  # compares only up to degree 3
        assert truncated.truncation == 3
        assert QPolynomial((1, 9), truncation=1) != exact

    def test_coefficient_access(self):
        p = QPolynomial((1, 0, 2), truncation=4)
        assert p.coefficient(2) == 2
        assert p.coefficient(4) == 0
        with pytest.raises(ValueError):
            p.coefficient(5)

    def test_monomial(self):
        assert QPolynomial.monomial(3, 2).coeffs == (0, 0, 0, 2)

    def test_text_form(self):
        assert str(QPolynomial((1, 0, 1, 0, 2))) == "1 + q^2 + 2*q^4"
        assert str(QPolynomial(())) == "0"
        assert str(QPolynomial((0, 1))) == "q"
        assert str(QPolynomial((1, -1))) == "1 - q"

    def test_json_form(self):
        assert QPolynomial((1, 0, 2), truncation=5).to_json_dict() == {
            "coeffs": ["1", "0", "2"],
            "truncation": 5,
        }


class TestGaussianBinomial:
    def test_fixtures(self):
        assert gaussian_binomial(2, 1).coeffs == (1, 1)
        assert gaussian_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
        assert gaussian_binomial(3, 5).is_zero()
        assert gaussian_binomial(3, -1).is_zero()
        assert gaussian_binomial(0, 0).coeffs == (1,)

    def test_degree_palindrome_and_value_at_one(self):
        from math import comb

        for m in range(13):
            for n in range(m + 1):
                poly = gaussian_binomial(m, n)
                assert poly.degree == n * (m - n)
                coeffs = poly.coeffs
                assert coeffs == coeffs[::-1]
                assert sum(coeffs) == comb(m, n)

    def test_box_partition_oracle(self):
        for m in range(11):
            for n in range(m + 1):
                poly = gaussian_binomial(m, n)
                for j in range(n * (m - n) + 1):
                    assert poly.coefficient(j) == box_count(j, m - n, n)

    def test_nonnegative(self):
        for m in range(11):
            for n in range(m + 1):
                assert all(c >= 0 for c in gaussian_binomial(m, n).coeffs)

    def test_large_binomial_exact(self):
        coeffs = gaussian_binomial(200, 100).coeffs
        assert len(coeffs) == 100 * 100 + 1
        assert sum(coeffs) == comb(200, 100)
        assert coeffs == coeffs[::-1]


class TestProductKernel:
    def test_passes_match_generic_multiply(self):
        rng = random.Random(7)
        for _ in range(40):
            coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 12))] + [1]
            poly = QPolynomial(coeffs)
            j = rng.randint(1, 15)
            for op, factor in (("+", 1), ("-", -1)):
                c = list(coeffs)
                qseries._factor_pass(c, j, op)
                assert QPolynomial(c) == poly * (QPolynomial.one() + QPolynomial.monomial(j, factor))
                if op == "-":
                    qseries._factor_pass(c, j, "/")
                    assert c == coeffs

    def test_truncated_passes_keep_length(self):
        c = [1, 2, 3]
        qseries._factor_pass(c, 2, "+", degree=3)
        assert c == [1, 2, 4, 2]
        qseries._factor_pass(c, 1, "/", degree=3)
        assert c == [1, 3, 7, 9]

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            qseries._factor_pass([1, 1], 1, "/")


class TestBoundedCaches:
    def test_every_cache_is_bounded(self):
        caches = [value for value in vars(qseries).values() if hasattr(value, "cache_info")]
        assert caches
        for fn in caches:
            assert fn.cache_info().maxsize is not None, fn.__name__


class TestSubstitutePower:
    def test_fixtures(self):
        assert substitute_power(QPolynomial((1, 1)), 2).coeffs == (1, 0, 1)
        assert substitute_power(QPolynomial.zero(), 3).is_zero()
        assert substitute_power(gaussian_binomial(4, 2), 2).coeffs == (1, 0, 1, 0, 2, 0, 1, 0, 1)

    def test_truncation_scales(self):
        p = QPolynomial((1, 1), truncation=5)
        assert substitute_power(p, 3).truncation == 15


class TestPochhammer:
    def test_neg_q_fixtures(self):
        assert neg_q_pochhammer(0).coeffs == (1,)
        assert neg_q_pochhammer(2).coeffs == (1, 1, 1, 1)
        assert neg_q_pochhammer(3).coeffs == (1, 1, 1, 2, 1, 1, 1)

    def test_neg_q_counts_strict_partitions(self):
        buckets = strict_partitions_by_size(16)
        poly = neg_q_pochhammer(16)
        for n in range(17):
            assert poly.coefficient(n) == len(buckets[n])

    def test_inv_fixtures(self):
        assert inv_pochhammer(2, None, 6).coeffs == (1, 0, 1, 0, 2, 0, 3)
        assert inv_pochhammer(1, 0, 9) == QPolynomial.one()
        assert inv_pochhammer(2, 1, 6).coeffs == (1, 0, 1, 0, 1, 0, 1)

    def test_inv_counts_partitions(self):
        poly = inv_pochhammer(1, None, 12)
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        assert list(poly.coeffs) == expected

    def test_prefix_stability(self):
        small = inv_pochhammer(2, 4, 20)
        large = inv_pochhammer(2, 4, 40)
        assert small == large  # equality truncates to the smaller degree
        assert large.coeffs[:21] == small.coeffs + (0,) * (21 - len(small.coeffs))


class TestRankGeneratingFunctions:
    def test_strict_fixtures(self):
        assert strict_bgrank_gf(1, 0).coeffs == (1,)
        assert strict_bgrank_gf(1, 1).coeffs == (0, 1)
        assert strict_bgrank_gf(2, 0).coeffs == (1, 0, 1)

    def test_strict_sum_over_ranks(self):
        for cap in range(13):
            total = QPolynomial.zero()
            for k in range(-cap, cap + 2):
                poly = strict_bgrank_gf(cap, k)
                assert all(c >= 0 for c in poly.coeffs)
                total = total + poly
            assert total == neg_q_pochhammer(cap)

    def test_all_fixtures(self):
        assert all_bgrank_gf(1, 0, 4).coeffs == (1, 0, 1, 0, 1)
        assert all_bgrank_gf(0, 0, 7) == QPolynomial.one()
        assert all_bgrank_gf(2, 1, 3).coeffs == (0, 1, 0, 1)

    def test_all_matches_enumeration(self):
        for cap in (2, 3):
            for k in (-1, 0, 1, 2):
                poly = all_bgrank_gf(cap, k, 12)
                for n in range(13):
                    expected = count_partitions(EnumSpec(n, max_part=cap, rank=k))
                    assert poly.coefficient(n) == expected

    def test_bounded_series_prefix_stable(self):
        short = all_bgrank_gf(3, 0, 10)
        long = all_bgrank_gf(3, 0, 20)
        assert short == long
        for n in range(11):
            assert short.coefficient(n) == long.coefficient(n)

    def test_strict_series_fixture(self):
        poly = strict_rank_series(0, 8)
        # strict partitions with rank 0: (), (2), (3,1), (4), (6), (4,2), (5,2,1), ...
        assert poly.coefficient(0) == 1
        assert poly.coefficient(2) == 1
        assert poly.coefficient(4) == 2


class TestAgainstBruteForce:
    """The rank DPs against the brute-force oracles, on the grids the
    tests above use."""

    def test_strict_gf_matches_subset_loop(self):
        for cap in range(13):
            table = subset_rank_table(cap)
            for k in range(-cap - 1, cap + 3):
                assert strict_bgrank_gf(cap, k).coeffs == table.get(k, ()), (cap, k)

    def test_all_gf_matches_walk(self):
        for degree in (4, 12, 20):
            for cap in range(10):
                table = walk_rank_table(cap, degree, strict=False)
                for k in range(-4, 5):
                    assert all_bgrank_gf(cap, k, degree).coeffs == table.get(k, ()), (cap, k, degree)

    def test_strict_series_matches_walk(self):
        for degree in (8, 16, 30):
            table = walk_rank_table(degree, degree, strict=True)
            for k in range(-5, 6):
                assert strict_rank_series(k, degree).coeffs == table.get(k, ()), (k, degree)


class TestVerifiers:
    def test_eq1_fixtures(self):
        assert verify_eq1(0, 1, 0).equal
        assert verify_eq1(0, 1, 0).lhs == QPolynomial.one()
        report = verify_eq1(1, 0, 0)
        assert report.equal and report.lhs.coeffs == (1, 0, 1)
        report = verify_eq1(4, 1, 2)
        assert report.equal
        assert report.lhs.coefficient(26) == count_partitions(
            EnumSpec(26, max_part=9, strict=True, rank=2)
        )

    def test_eq1_out_of_range_rank(self):
        report = verify_eq1(2, 0, 5)
        assert report.equal
        assert report.lhs.is_zero() and report.rhs.is_zero()

    def test_eq52_fixtures(self):
        report = verify_eq52(0, 1)
        assert report.equal and report.rhs.coeffs == (1, 1)
        assert verify_eq52(0, 0).equal
        assert verify_eq52(2, 0).equal

    def test_eq2_fixtures(self):
        assert verify_eq2(0, 6).equal
        report = verify_eq2(1, 1)
        assert report.equal and report.lhs.coeffs == (0, 1)
        report = verify_eq2(-1, 3)
        assert report.equal and report.lhs.coefficient(3) == 1

    def test_eq3_matches_eq2_at_zero(self):
        a = verify_eq3(12)
        b = verify_eq2(0, 12)
        assert a.identity == "eq3"
        assert a.equal and a.lhs == b.lhs

    def test_eq51_fixtures(self):
        report = verify_eq51(0, 1, 0, 4)
        assert report.equal and report.lhs.coeffs == (1, 0, 1, 0, 1)
        report = verify_eq51(1, 0, -2, 10)  # N + k < 0: both sides zero
        assert report.equal and report.lhs.is_zero() and report.rhs.is_zero()
        assert verify_eq51(2, 1, 1, 16).equal

    def test_eq53_fixtures(self):
        report = verify_eq53(1, 0, 8)
        assert report.equal
        assert report.rhs == inv_pochhammer(1, 2, 8)
        assert verify_eq53(0, 0, 6).equal

    def test_report_catches_mismatch(self):
        # eq2 with the wrong degree-consistency: compare rank 1 against rank 0 series
        lhs = strict_rank_series(1, 8)
        rhs = strict_rank_series(0, 8)
        diff = lhs.first_difference(rhs)
        assert diff == 0  # rank 0 series starts at 1, rank 1 series at q

    def test_report_payload(self):
        report = verify_eq1(1, 1, 0)
        assert report.identity == "eq1"
        assert report.params == {"N": 1, "nu": 1, "k": 0}
        assert report.mismatch_exponent is None
        assert report.ms >= 0.0
        payload = report.to_json_dict()
        assert payload["ok"] is True and payload["mismatch"] is None
