"""The benchmark's checkers accept right outputs and reject wrong ones.

Usage: python3 perfbench/test_checkers.py

Stdlib only and independent of bgrank: the references are tested against
brute force, and every check is fed a correct output (it must pass) and
deliberately wrong ones (each must be rejected), so no check is vacuous.
"""

import itertools
import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checkers  # noqa: E402


def strict_partitions(max_part):
    for r in range(max_part + 1):
        for parts in itertools.combinations(range(max_part, 0, -1), r):
            yield parts


def partitions(n, cap=None):
    cap = n if cap is None else min(cap, n)
    if n == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def perturbed(coeffs, exponent, by=1):
    out = list(coeffs)
    out[exponent] += by
    return out


# A fixture worked by hand: d = 9,7,5,4,1 has rank 2, and in the box
# N=4, nu=1 it maps to t = 6 and image 6,3,1 (3,2,2,1,1,1 conjugated).
D = (9, 7, 5, 4, 1)
IMAGE = (6, 3, 1)
IMAGE_CONJ = (3, 2, 2, 1, 1, 1)


class ReferenceTest(unittest.TestCase):
    def test_bg_rank_by_definition(self):
        self.assertEqual(checkers.bg_rank(D), 2)
        self.assertEqual(checkers.bg_rank((10, 7, 4, 2)), -1)
        self.assertEqual(checkers.bg_rank(()), 0)

    def test_strict_rank_table_matches_subsets(self):
        for m in range(0, 9):
            table = checkers.strict_rank_table(m)
            brute = {}
            for parts in strict_partitions(m):
                row = brute.setdefault(checkers.bg_rank(parts), [0] * (m * (m + 1) // 2 + 1))
                row[sum(parts)] += 1
            self.assertEqual(set(table), set(brute))
            for k in brute:
                self.assertEqual(table[k], brute[k], (m, k))

    def test_all_rank_table_matches_partitions(self):
        degree = 14
        for m in range(0, 6):
            table = checkers.all_rank_table(m, degree)
            brute = {}
            for n in range(degree + 1):
                for parts in partitions(n, m):
                    brute.setdefault(checkers.bg_rank(parts), [0] * (degree + 1))[n] += 1
            for k in set(table) | set(brute):
                self.assertEqual(table.get(k, [0] * (degree + 1)), brute.get(k, [0] * (degree + 1)), (m, k))

    def test_counts_match_partitions(self):
        for n in range(0, 13):
            every = list(partitions(n))
            self.assertEqual(checkers.partition_counts(None, 12)[n], len(every))
            self.assertEqual(checkers.partition_counts(3, 12)[n], sum(1 for p in every if (p[0] if p else 0) <= 3))
            self.assertEqual(checkers.box_count(n, 4, 3), sum(1 for p in every if (p[0] if p else 0) <= 4 and len(p) <= 3))
            self.assertEqual(checkers.distinct_counts(6)[n] if n <= 21 else 0,
                             sum(1 for p in every if len(set(p)) == len(p) and (p[0] if p else 0) <= 6))

    def test_gaussian_closed_forms(self):
        for m in range(0, 11):
            for n in range(0, m + 1):
                coeffs = [checkers.box_count(j, m - n, n) for j in range(n * (m - n) + 1)]
                self.assertEqual(sum(coeffs), math.comb(m, n))
                self.assertEqual(sum(c * (-1) ** j for j, c in enumerate(coeffs)), checkers.gaussian_at_minus_one(m, n))
                self.assertEqual(sum(c * 2**j for j, c in enumerate(coeffs)), checkers.gaussian_at_two(m, n))

    def test_minimal_box(self):
        for k in range(-5, 6):
            for largest in range(0, 12):
                n_cap, nu = checkers.minimal_box(k, largest)
                v = 2 * n_cap + nu
                self.assertTrue(v >= largest and -n_cap <= k <= n_cap + nu)
                smaller = v - 1
                if smaller >= largest:
                    self.assertFalse(-(smaller // 2) <= k <= smaller // 2 + smaller % 2)


class QSeriesCheckTest(unittest.TestCase):
    def test_gaussian(self):
        m, n = 13, 6
        right = [checkers.box_count(j, m - n, n) for j in range(n * (m - n) + 1)]
        self.assertIsNone(checkers.check_gaussian(m, n, 1, right))
        self.assertIsNone(checkers.check_gaussian_exact(m, n, right))
        self.assertIsNotNone(checkers.check_gaussian(m, n, 1, perturbed(right, 9)))
        self.assertIsNotNone(checkers.check_gaussian_exact(m, n, perturbed(right, 9)))
        # Moves weight between neighbours and mirrors it: the total and the
        # palindromy survive, the values at q = -1 and q = 2 do not.
        sneaky = perturbed(perturbed(right, 10, 1), 11, -1)
        top = len(right) - 1
        sneaky = perturbed(perturbed(sneaky, top - 10, 1), top - 11, -1)
        self.assertEqual(sum(sneaky), sum(right))
        self.assertEqual(sneaky, sneaky[::-1])
        self.assertIsNotNone(checkers.check_gaussian(m, n, 1, sneaky))

    def test_gaussian_in_base_two(self):
        m, n = 9, 4
        right = [checkers.box_count(j, m - n, n) for j in range(n * (m - n) + 1)]
        spread = [0] * (2 * len(right) - 1)
        spread[::2] = right
        self.assertIsNone(checkers.check_gaussian(m, n, 2, spread))
        self.assertIsNotNone(checkers.check_gaussian(m, n, 2, perturbed(spread, 3)))
        self.assertIsNotNone(checkers.check_gaussian(m, n, 2, perturbed(spread, 4)))

    def test_neg_pochhammer(self):
        right = checkers.distinct_counts(15)
        self.assertIsNone(checkers.check_neg_pochhammer(15, right))
        self.assertIsNotNone(checkers.check_neg_pochhammer(15, perturbed(right, 40)))
        self.assertIsNotNone(checkers.check_neg_pochhammer(15, perturbed(perturbed(right, 40), 41, -1)))

    def test_inv_pochhammer(self):
        counts = checkers.partition_counts(None, 30)
        right = [0] * 61
        right[::2] = counts
        self.assertIsNone(checkers.check_inv_pochhammer(2, None, 60, right))
        self.assertIsNotNone(checkers.check_inv_pochhammer(2, None, 60, perturbed(right, 20)))
        self.assertIsNotNone(checkers.check_inv_pochhammer(2, None, 60, perturbed(right, 21)))
        self.assertIsNotNone(checkers.check_inv_pochhammer(2, None, 60, right + [1]))
        bounded = checkers.partition_counts(5, 40)
        self.assertIsNone(checkers.check_inv_pochhammer(1, 5, 40, bounded))
        self.assertIsNotNone(checkers.check_inv_pochhammer(1, 6, 40, bounded))

    def test_rank_refined(self):
        strict = checkers.strict_rank_table(10)
        self.assertIsNone(checkers.check_strict_gf(10, 1, strict[1]))
        self.assertIsNotNone(checkers.check_strict_gf(10, 1, perturbed(strict[1], 12)))
        self.assertIsNotNone(checkers.check_strict_gf(10, 2, strict[1]))  # a wrong rank's series
        series = checkers.strict_rank_table(30, 30)
        self.assertIsNone(checkers.check_strict_series(-1, 30, series[-1]))
        self.assertIsNotNone(checkers.check_strict_series(-1, 30, perturbed(series[-1], 29)))
        every = checkers.all_rank_table(6, 25)
        self.assertIsNone(checkers.check_all_gf(6, 0, 25, every[0]))
        self.assertIsNotNone(checkers.check_all_gf(6, 0, 25, perturbed(every[0], 25)))


class BijectionCheckTest(unittest.TestCase):
    def test_forward(self):
        ok = dict(k=2, t=6, image=IMAGE_CONJ, conjugated=True, back=D)
        self.assertIsNone(checkers.check_forward(D, 4, 1, True, **ok))
        self.assertIsNone(checkers.check_forward(D, 4, 1, False, **dict(ok, image=IMAGE, conjugated=False)))
        wrong = {
            "broken round trip": dict(back=(9, 7, 5, 3, 2)),
            "wrong rank": dict(k=1),
            "wrong staircase weight": dict(t=3),
            "size law": dict(image=(3, 2, 2, 1, 1)),
            "not a partition": dict(image=(2, 3, 2, 1, 1, 1)),
            "orientation": dict(conjugated=False),
        }
        for why, change in wrong.items():
            self.assertIsNotNone(checkers.check_forward(D, 4, 1, True, **dict(ok, **change)), why)
        # Un-conjugated image of rank 2 does not fit the uniform 3 x 6 box.
        self.assertIsNotNone(checkers.check_forward(D, 4, 1, True, **dict(ok, image=IMAGE)))

    def test_reverse(self):
        ok = (2, 4, 1, IMAGE_CONJ, D, 6, IMAGE_CONJ, 2)
        self.assertIsNone(checkers.check_reverse(*ok))
        self.assertIsNotNone(checkers.check_reverse(2, 4, 1, IMAGE_CONJ, D, 6, (3, 2, 2, 1, 1), 2))  # broken round trip
        self.assertIsNotNone(checkers.check_reverse(2, 4, 1, IMAGE_CONJ, (9, 7, 6, 3, 1), 6, IMAGE_CONJ, 2))  # wrong rank
        self.assertIsNotNone(checkers.check_reverse(2, 4, 1, IMAGE_CONJ, (9, 7, 5, 4, 1, 1), 6, IMAGE_CONJ, 2))
        self.assertIsNotNone(checkers.check_reverse(2, 3, 1, IMAGE_CONJ, D, 6, IMAGE_CONJ, 2))  # 9 > 2N+nu
        self.assertIsNotNone(checkers.check_reverse(2, 4, 1, IMAGE_CONJ, D, 6, IMAGE_CONJ, 1))


class CliCheckTest(unittest.TestCase):
    MAP = {"k": 2, "t": 6, "image": "3,2,2,1,1,1", "bounds": {"L": 3, "M": 6}, "delta": [4, 4, 3, 3, 2, 2, 1, 1]}

    def test_map_record(self):
        # |d| - t = 20 is the tail weight; any alternating-sum-zero tail of that weight passes.
        self.assertIsNone(checkers.check_map_record(D, 4, 1, self.MAP))
        self.assertIsNotNone(checkers.check_map_record(D, 4, 1, dict(self.MAP, k=1)))
        self.assertIsNotNone(checkers.check_map_record(D, 4, 1, dict(self.MAP, bounds={"L": 6, "M": 3})))
        self.assertIsNotNone(checkers.check_map_record(D, 4, 1, dict(self.MAP, image="3,2,2,1,1")))
        self.assertIsNotNone(checkers.check_map_record(D, 4, 1, dict(self.MAP, delta=[4, 4, 3, 3, 2, 2, 2])))

    def test_unmap_record(self):
        record = {"k": 2, "t": 6, "image": "9,7,5,4,1"}
        self.assertIsNone(checkers.check_unmap_record(6, IMAGE_CONJ, 4, 1, record))
        self.assertIsNotNone(checkers.check_unmap_record(6, IMAGE_CONJ, 4, 1, dict(record, image="9,7,6,3,1")))
        self.assertIsNotNone(checkers.check_unmap_record(6, IMAGE_CONJ, 4, 1, dict(record, k=1)))
        self.assertIsNotNone(checkers.check_unmap_record(6, IMAGE_CONJ, 4, 1, dict(record, image="9,9,4,4,1")))

    def test_rank_record(self):
        self.assertIsNone(checkers.check_rank_record((10, 7, 4, 2), {"k": -1}))
        self.assertIsNotNone(checkers.check_rank_record((10, 7, 4, 2), {"k": 1}))

    def test_usage_error(self):
        traceback = 'Traceback (most recent call last):\n  File "x", line 1\nValueError: nu must be 0 or 1, got 2\n'
        self.assertIsNotNone(checkers.check_usage_error(1, traceback))
        self.assertIsNotNone(checkers.check_usage_error(2, traceback))
        self.assertIsNotNone(checkers.check_usage_error(0, ""))
        self.assertIsNotNone(checkers.check_usage_error(1, "error: nu must be 0 or 1\n"))
        self.assertIsNotNone(checkers.check_usage_error(3, "something went wrong\n"))
        self.assertIsNone(checkers.check_usage_error(3, "error: nu must be 0 or 1, got 2\n"))
        self.assertIsNone(checkers.check_usage_error(2, "usage: bgrank gf ...\nbgrank gf: error: argument --factors: invalid\n"))

    def test_verify_json(self):
        labels = ["eq1 N=0 nu=0 k=0", "eq1 N=0 nu=0 k=1"]
        records = [{"input": label, "ok": True, "mismatch": None} for label in labels]
        text = "\n".join(json.dumps(r) for r in records)
        self.assertIsNone(checkers.check_verify_json(labels, 0, text))
        self.assertIsNotNone(checkers.check_verify_json(labels, 1, text))
        self.assertIsNotNone(checkers.check_verify_json(labels, 0, json.dumps(records[0])))
        self.assertIsNotNone(checkers.check_verify_json(labels[::-1], 0, text))
        bad = dict(records[1], ok=False, mismatch={"exponent": 3, "lhs": "1", "rhs": "2"})
        self.assertIsNotNone(checkers.check_verify_json(labels, 0, json.dumps(records[0]) + "\n" + json.dumps(bad)))

    def test_theorem31_text(self):
        grid = [(n, 1, 0, k) for n in range(0, 5) for k in (-1, 0, 1)]
        lines = []
        for n, n_cap, nu, k in grid:
            strict, box = checkers.theorem31_count(n, n_cap, nu, k)
            self.assertEqual(strict, box)
            lines.append(f"theorem31 n={n} N={n_cap} nu={nu} k={k}: equal ({strict})")
        text = "\n".join(lines)
        self.assertIsNone(checkers.check_theorem31_text(grid, 0, text))
        wrong = text.replace("k=1: equal (1)", "k=1: equal (2)", 1)
        self.assertNotEqual(wrong, text)
        self.assertIsNotNone(checkers.check_theorem31_text(grid, 0, wrong))
        self.assertIsNotNone(checkers.check_theorem31_text(grid, 0, "\n".join(lines[:-1])))


if __name__ == "__main__":
    unittest.main()
