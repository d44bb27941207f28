"""Independent reference computations and output checks for the benchmark.

Nothing here imports bgrank: every expected value is computed from the
definitions (BG-rank by part index, generating functions by dynamic
programming over part values, Gaussian binomials by closed-form values at
q = 1, -1 and 2).  Each check_* function takes plain Python values taken
from the program's output and returns None when they are right, or a
one-line description of the first problem found.
"""

import json
import math
from functools import lru_cache


# ---------------------------------------------------------------- partitions


def bg_rank(parts) -> int:
    """(# odd parts at odd index) - (# odd parts at even index), 1-based."""
    rank = 0
    for i, part in enumerate(parts):
        if part % 2 == 1:
            rank += 1 if i % 2 == 0 else -1
    return rank


def partition_problem(parts, strict=False) -> str | None:
    """Why parts is not a (strict) partition, or None."""
    parts = tuple(parts)
    if any(not isinstance(p, int) or p < 1 for p in parts):
        return f"non-positive part in {parts[:8]}"
    for a, b in zip(parts, parts[1:]):
        if a < b or (strict and a == b):
            return f"parts not {'strictly ' if strict else ''}decreasing: {a}, {b}"
    return None


def parse_parts(text: str) -> tuple[int, ...]:
    text = text.strip()
    return tuple(int(tok) for tok in text.split(",")) if text else ()


def image_bounds(n_cap: int, nu: int, k: int, conjugated: bool) -> tuple[int, int]:
    """(largest-part bound, part-count bound) of a rank-k image.

    Rank k <= 0, and conjugated images of rank k > 0, sit in the
    (N+nu-k) x (N+k) box; un-conjugated images of rank k > 0 sit in its
    transpose.
    """
    if k <= 0 or conjugated:
        return n_cap + nu - k, n_cap + k
    return n_cap + k, n_cap + nu - k


def minimal_box(k: int, largest: int) -> tuple[int, int]:
    """Smallest (N, nu) by 2N+nu with 2N+nu >= largest and -N <= k <= N+nu."""
    v = max(largest, -2 * k, 2 * k - 1, 0)
    return v // 2, v % 2


def staircase_weight(k: int) -> int:
    return 2 * k * k - k


# ---------------------------------------------------------------- q-series


def strict_rank_table(max_part: int, degree: int | None = None) -> dict[int, list[int]]:
    """rank -> coefficients of sum q^|d| over strict partitions with parts
    <= max_part, by a subset-sum DP over part values (largest first) whose
    state is the parity of the part count so far and the running rank."""
    top = max_part * (max_part + 1) // 2
    degree = top if degree is None else min(degree, top)
    states = {(0, 0): [1] + [0] * degree}
    for v in range(max_part, 0, -1):
        nxt = {key: list(c) for key, c in states.items()}
        for (parity, rank), coeffs in states.items():
            step = 0 if v % 2 == 0 else (1 if parity == 0 else -1)
            key = (1 - parity, rank + step)
            row = nxt.setdefault(key, [0] * (degree + 1))
            for e in range(degree - v + 1):
                if coeffs[e]:
                    row[e + v] += coeffs[e]
        states = nxt
    table: dict[int, list[int]] = {}
    for (_, rank), coeffs in states.items():
        row = table.setdefault(rank, [0] * (degree + 1))
        for e, c in enumerate(coeffs):
            row[e] += c
    return table


def all_rank_table(max_part: int, degree: int) -> dict[int, list[int]]:
    """rank -> coefficients up to q^degree of sum q^|p| over all partitions
    with parts <= max_part.  A part value used c times at positions
    s+1..s+c adds +-1 to the rank only when it is odd and c is odd."""
    states = {(0, 0): [1] + [0] * degree}
    for v in range(max_part, 0, -1):
        nxt: dict[tuple[int, int], list[int]] = {}
        for (parity, rank), coeffs in states.items():
            for c in range(degree // v + 1):
                step = 0 if (v % 2 == 0 or c % 2 == 0) else (1 if parity == 0 else -1)
                key = ((parity + c) % 2, rank + step)
                row = nxt.setdefault(key, [0] * (degree + 1))
                shift = c * v
                for e in range(degree - shift + 1):
                    if coeffs[e]:
                        row[e + shift] += coeffs[e]
        states = nxt
    table: dict[int, list[int]] = {}
    for (_, rank), coeffs in states.items():
        row = table.setdefault(rank, [0] * (degree + 1))
        for e, c in enumerate(coeffs):
            row[e] += c
    return table


@lru_cache(maxsize=None)
def box_count(n: int, max_part: int, max_len: int) -> int:
    """Partitions of n with largest part <= max_part and at most max_len
    parts, by splitting on whether the largest part equals max_part."""
    if n == 0:
        return 1
    if n < 0 or max_part <= 0 or max_len <= 0:
        return 0
    return box_count(n, max_part - 1, max_len) + box_count(n - max_part, max_part, max_len - 1)


def partition_counts(max_part: int | None, degree: int) -> list[int]:
    """Partitions of n = 0..degree into parts <= max_part (None: any)."""
    cap = degree if max_part is None else min(max_part, degree)
    # rows[a][n]: partitions of n with largest part <= a
    prev = [1] + [0] * degree
    for a in range(1, cap + 1):
        cur = list(prev)
        for n in range(a, degree + 1):
            cur[n] = prev[n] + cur[n - a]
        prev = cur
    return prev


def distinct_counts(max_part: int) -> list[int]:
    """Partitions of n into distinct parts <= max_part, every n."""
    top = max_part * (max_part + 1) // 2
    coeffs = [1] + [0] * top
    reach = 0
    for v in range(1, max_part + 1):
        reach += v
        for e in range(reach, v - 1, -1):
            coeffs[e] += coeffs[e - v]
    return coeffs


def gaussian_at_minus_one(m: int, n: int) -> int:
    if m % 2 == 0 and n % 2 == 1:
        return 0
    return math.comb(m // 2, n // 2)


def gaussian_at_two(m: int, n: int) -> int:
    num = den = 1
    for i in range(n):
        num *= 2 ** (m - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def _evaluate(coeffs, q: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * q + c
    return value


def compare_coeffs(name: str, got, want) -> str | None:
    got, want = list(got), list(want)
    while got and got[-1] == 0:
        got.pop()
    while want and want[-1] == 0:
        want.pop()
    for e in range(max(len(got), len(want))):
        a = got[e] if e < len(got) else 0
        b = want[e] if e < len(want) else 0
        if a != b:
            return f"{name}: coefficient of q^{e} is {a}, expected {b}"
    return None


def _unsubstitute(coeffs, base: int) -> tuple[list[int], str | None]:
    coeffs = list(coeffs)
    for e, c in enumerate(coeffs):
        if e % base and c:
            return [], f"coefficient of q^{e} is {c}, expected 0 in base q^{base}"
    return coeffs[::base], None


def check_gaussian(m: int, n: int, base: int, coeffs) -> str | None:
    """[m, n]_q in base q^base: degree n(m-n), palindromic, and equal to
    C(m, n), its closed form at q = -1 and its product form at q = 2."""
    name = f"gaussian [{m},{n}]"
    coeffs, problem = _unsubstitute(coeffs, base)
    if problem:
        return f"{name}: {problem}"
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not 0 <= n <= m:
        return None if not coeffs else f"{name}: expected the zero polynomial"
    if len(coeffs) - 1 != n * (m - n):
        return f"{name}: degree {len(coeffs) - 1}, expected {n * (m - n)}"
    if coeffs != coeffs[::-1]:
        return f"{name}: coefficients are not palindromic"
    if any(c < 0 for c in coeffs):
        return f"{name}: negative coefficient"
    for q, want in ((1, math.comb(m, n)), (-1, gaussian_at_minus_one(m, n)), (2, gaussian_at_two(m, n))):
        if _evaluate(coeffs, q) != want:
            return f"{name}: value at q={q} is {_evaluate(coeffs, q)}, expected {want}"
    return None


def check_gaussian_exact(m: int, n: int, coeffs) -> str | None:
    """[m, n]_q coefficient by coefficient against box counts (small m)."""
    want = [box_count(j, m - n, n) for j in range(n * (m - n) + 1)] if 0 <= n <= m else []
    return compare_coeffs(f"gaussian [{m},{n}]", coeffs, want)


def check_neg_pochhammer(count: int, coeffs) -> str | None:
    """(-q; q)_count: 2^count in total and, coefficient by coefficient,
    the number of partitions into distinct parts <= count."""
    name = f"negpoch {count}"
    if sum(coeffs) != 2**count:
        return f"{name}: coefficients sum to {sum(coeffs)}, expected 2^{count}"
    return compare_coeffs(name, coeffs, distinct_counts(count))


def check_inv_pochhammer(base: int, factors: int | None, degree: int, coeffs) -> str | None:
    """1/(q^base; q^base)_factors up to q^degree: partition counts in base q^base."""
    name = f"invpoch base={base} factors={factors} D={degree}"
    if len(coeffs) > degree + 1:
        return f"{name}: {len(coeffs)} coefficients past truncation {degree}"
    coeffs, problem = _unsubstitute(list(coeffs) + [0] * (degree + 1 - len(coeffs)), base)
    if problem:
        return f"{name}: {problem}"
    return compare_coeffs(name, coeffs, partition_counts(factors, degree // base))


def check_strict_gf(max_part: int, k: int, coeffs) -> str | None:
    table = strict_rank_table(max_part)
    return compare_coeffs(f"strict gf M={max_part} k={k}", coeffs, table.get(k, []))


def check_strict_series(k: int, degree: int, coeffs) -> str | None:
    table = strict_rank_table(degree, degree)
    return compare_coeffs(f"strict series k={k} D={degree}", coeffs, table.get(k, []))


def check_all_gf(max_part: int, k: int, degree: int, coeffs) -> str | None:
    table = all_rank_table(max_part, degree)
    return compare_coeffs(f"all gf M={max_part} k={k} D={degree}", coeffs, table.get(k, []))


# ---------------------------------------------------------------- bijection


def check_forward(d, n_cap, nu, conjugate_positive, k, t, image, conjugated, back) -> str | None:
    """One forward round trip d -> (t, image) -> back inside box (N, nu)."""
    d, image, back = tuple(d), tuple(image), tuple(back)
    want_k = bg_rank(d)
    if k != want_k:
        return f"map {d[:6]}: rank {k}, expected {want_k}"
    if t != staircase_weight(k):
        return f"map {d[:6]}: t = {t}, expected 2k^2-k = {staircase_weight(k)}"
    problem = partition_problem(image)
    if problem:
        return f"map {d[:6]}: image {problem}"
    if sum(d) != t + 2 * sum(image):
        return f"map {d[:6]}: |d| = {sum(d)} but t + 2|image| = {t + 2 * sum(image)}"
    if conjugated != (k > 0 and conjugate_positive):
        return f"map {d[:6]}: conjugated = {conjugated} for rank {k}"
    bound_l, bound_m = image_bounds(n_cap, nu, k, conjugated)
    if (image[0] if image else 0) > bound_l or len(image) > bound_m:
        return f"map {d[:6]}: image outside the {bound_l} x {bound_m} box"
    if back != d:
        return f"map {d[:6]}: round trip gives a different partition ({len(back)} parts, size {sum(back)})"
    return None


def check_reverse(k, n_cap, nu, image, d, t, back_image, back_k) -> str | None:
    """One reverse round trip image -> d -> (t, back_image) in box (N, nu)."""
    image, d, back_image = tuple(image), tuple(d), tuple(back_image)
    problem = partition_problem(d, strict=True)
    if problem:
        return f"unmap {image[:6]}: preimage {problem}"
    if d and d[0] > 2 * n_cap + nu:
        return f"unmap {image[:6]}: largest part {d[0]} exceeds 2N+nu = {2 * n_cap + nu}"
    if bg_rank(d) != k:
        return f"unmap {image[:6]}: preimage has rank {bg_rank(d)}, expected {k}"
    if sum(d) != staircase_weight(k) + 2 * sum(image):
        return f"unmap {image[:6]}: |d| = {sum(d)}, expected {staircase_weight(k) + 2 * sum(image)}"
    if t != staircase_weight(k) or back_k != k:
        return f"unmap {image[:6]}: map gives back t = {t}, k = {back_k}"
    if back_image != image:
        return f"unmap {image[:6]}: round trip gives a different image ({len(back_image)} parts, size {sum(back_image)})"
    return None


# ---------------------------------------------------------------- CLI


def check_map_record(d, n_cap, nu, record: dict) -> str | None:
    """`bgrank map d --box N,nu --json`: rank, staircase weight, size law,
    box bounds and the alternating-sum-zero tail."""
    d = tuple(d)
    k, t = record.get("k"), record.get("t")
    if k != bg_rank(d):
        return f"map {d}: rank {k}, expected {bg_rank(d)}"
    if t != staircase_weight(k):
        return f"map {d}: t = {t}, expected {staircase_weight(k)}"
    image = parse_parts(record.get("image") or "")
    problem = partition_problem(image)
    if problem:
        return f"map {d}: image {problem}"
    if sum(d) != t + 2 * sum(image):
        return f"map {d}: size law fails"
    bound_l, bound_m = image_bounds(n_cap, nu, k, True)
    if record.get("bounds") != {"L": bound_l, "M": bound_m}:
        return f"map {d}: bounds {record.get('bounds')}, expected L={bound_l} M={bound_m}"
    if (image[0] if image else 0) > bound_l or len(image) > bound_m:
        return f"map {d}: image outside the box"
    delta = record.get("delta") or []
    if sum(delta) != sum(d) - t or sum(x if i % 2 else -x for i, x in enumerate(delta)) != 0:
        return f"map {d}: tail {delta[:8]} has the wrong weight or alternating sum"
    return None


def check_unmap_record(t, image, n_cap, nu, record: dict) -> str | None:
    """`bgrank unmap t image --box N,nu --json`: a strict preimage of the
    right rank, size and largest part."""
    image = tuple(image)
    d = parse_parts(record.get("image") or "")
    k = record.get("k")
    if t != staircase_weight(k if isinstance(k, int) else 0) or record.get("t") != t:
        return f"unmap {t} {image}: rank {k} does not give t = {t}"
    problem = partition_problem(d, strict=True)
    if problem:
        return f"unmap {t} {image}: preimage {problem}"
    if bg_rank(d) != k:
        return f"unmap {t} {image}: preimage rank {bg_rank(d)}, expected {k}"
    if sum(d) != t + 2 * sum(image):
        return f"unmap {t} {image}: size law fails"
    if d and d[0] > 2 * n_cap + nu:
        return f"unmap {t} {image}: largest part exceeds 2N+nu"
    return None


def check_rank_record(parts, record: dict) -> str | None:
    if record.get("k") != bg_rank(parts):
        return f"rank {tuple(parts)}: {record.get('k')}, expected {bg_rank(parts)}"
    return None


def check_usage_error(returncode: int, stderr: str) -> str | None:
    """A malformed command must exit 2 or 3 with an error line and no traceback."""
    if "Traceback" in stderr:
        return f"exit {returncode} with a traceback"
    if returncode not in (2, 3):
        return f"exit {returncode}, expected 2 or 3"
    lines = [line for line in stderr.splitlines() if line.strip()]
    last = lines[-1] if lines else ""
    if not (last.startswith("error:") or ": error:" in last):
        return f"no 'error:' line on stderr (last line {last[:60]!r})"
    return None


def parse_label(label: str) -> tuple:
    """'eq1 N=0 nu=1 k=-2' -> ('eq1', (('N', 0), ('k', -2), ('nu', 1)))."""
    head, *pairs = label.split()
    params = tuple(sorted((key, int(value)) for key, value in (p.split("=", 1) for p in pairs)))
    return head, params


def check_verify_json(expected_labels, returncode: int, text: str) -> str | None:
    """JSON records of a `verify` sweep: one per grid point, in grid order, all equal."""
    if returncode != 0:
        return f"verify exited {returncode}"
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    got = [parse_label(r.get("input", "")) for r in records]
    want = [parse_label(label) for label in expected_labels]
    if got != want:
        return f"verify records {len(got)} grid points, expected {len(want)} in grid order"
    for r in records:
        if r.get("ok") is not True or r.get("mismatch") is not None:
            return f"{r.get('input')}: reported not equal"
    return None


def theorem31_count(n: int, n_cap: int, nu: int, k: int) -> tuple[int, int]:
    """(strict partitions of n, parts <= 2N+nu, rank k; partitions of
    (n - 2k^2 + k)/2 in the (N+nu-k) x (N+k) box)."""
    table = strict_rank_table(2 * n_cap + nu)
    row = table.get(k, [])
    strict = row[n] if n < len(row) else 0
    doubled = n - staircase_weight(k)
    bound_l, bound_m = n_cap + nu - k, n_cap + k
    if doubled < 0 or doubled % 2 or bound_l < 0 or bound_m < 0:
        return strict, 0
    return strict, box_count(doubled // 2, bound_l, bound_m)


def check_theorem31_text(grid, returncode: int, text: str) -> str | None:
    """Text lines 'theorem31 n=.. N=.. nu=.. k=..: equal (c)' against both
    independent counts at every grid point."""
    if returncode != 0:
        return f"verify theorem31 exited {returncode}"
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != len(grid):
        return f"theorem31 printed {len(lines)} lines, expected {len(grid)}"
    for line, (n, n_cap, nu, k) in zip(lines, grid):
        label, _, status = line.partition(": ")
        if parse_label(label) != parse_label(f"theorem31 n={n} N={n_cap} nu={nu} k={k}"):
            return f"theorem31 line {label!r} out of grid order"
        strict, box = theorem31_count(n, n_cap, nu, k)
        if strict != box:
            return f"theorem31 n={n} N={n_cap} nu={nu} k={k}: reference counts differ"
        if status != f"equal ({strict})":
            return f"{label}: {status!r}, expected 'equal ({strict})'"
    return None
