"""Independent brute-force helpers the tests check the library against.

Nothing here imports from bgrank; expected values are produced by direct
definitions so the two routes share no code.
"""

from functools import lru_cache


def direct_rank(parts):
    """(# odd parts at odd 1-based index) - (# odd parts at even index)."""
    return sum(
        (1 if i % 2 == 1 else -1)
        for i, p in enumerate(parts, start=1)
        if p % 2 == 1
    )


def residue_fill_rank(parts):
    """Count 0/1 residues cell by cell; returns (r0, r1)."""
    r0 = r1 = 0
    for j, part in enumerate(parts, start=1):
        for i in range(1, part + 1):
            if (i + j) % 2 == 0:
                r0 += 1
            else:
                r1 += 1
    return r0, r1


def transpose_cells(parts):
    """Conjugate by transposing the cell set of the Young diagram."""
    cells = {(r, c) for r, part in enumerate(parts, start=1) for c in range(1, part + 1)}
    flipped = {(c, r) for r, c in cells}
    rows = {}
    for r, _ in flipped:
        rows[r] = rows.get(r, 0) + 1
    return tuple(rows[r] for r in sorted(rows))


@lru_cache(maxsize=None)
def box_count(n, max_part, max_len):
    """Number of partitions of n with parts <= max_part and at most
    max_len parts, by the standard first-part recurrence."""
    if n == 0:
        return 1
    if max_part <= 0 or max_len <= 0:
        return 0
    return sum(box_count(n - first, first, max_len - 1) for first in range(1, min(max_part, n) + 1))


def iter_partitions(n, max_part=None, max_len=None, strict=False):
    """All partitions of n as tuples, largest part first."""
    cap = n if max_part is None else min(max_part, n)

    def rec(remaining, top, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(top, remaining), 0, -1):
            for rest in rec(remaining - first, first - 1 if strict else first, slots - 1):
                yield (first,) + rest

    yield from rec(n, cap, n if max_len is None else max_len)


def strict_partitions_by_size(n_max):
    """Bucket every subset of {1..n_max} by its sum: sums -> set of tuples.

    Only feasible for n_max around 20; used to cross-check the library's
    strict enumeration against plain subset generation.
    """
    buckets = {n: set() for n in range(n_max + 1)}
    for mask in range(1 << n_max):
        parts = tuple(v for v in range(n_max, 0, -1) if mask >> (v - 1) & 1)
        total = sum(parts)
        if total <= n_max:
            buckets[total].add(parts)
    return buckets


def ab_sequences(a, size_max):
    """Every valid (a,b)-sequence with entry sum <= size_max, built from
    its staircase prefix and a non-increasing tail.

    A candidate is staircase(a+1 .. a+b) followed by a partition-shaped
    tail whose first entry is at most a+b and differs from a+b+1, filtered
    by the zero alternating sum.  Each valid sequence arises exactly once
    because its staircase length is unique.
    """
    out = []
    b = 1
    while True:
        stair = tuple(a + i for i in range(1, b + 1))
        stair_sum = sum(stair)
        if stair_sum > size_max:
            break
        budget = size_max - stair_sum
        for tail_size in range(budget + 1):
            for tail in iter_partitions(tail_size, max_part=a + b):
                entries = stair + tail
                if sum((-1) ** i * d for i, d in enumerate(entries, start=1)) == 0:
                    out.append((entries, b))
        b += 1
    return out


def _rank_step(index, part):
    """Contribution of `part` at 1-based `index` to the BG-rank."""
    if part % 2 == 0:
        return 0
    return 1 if index % 2 == 1 else -1


def _coeffs_by_rank(counts):
    """{(n, rank): count} -> {rank: coefficient tuple without trailing zeros}."""
    table = {}
    for (n, rank), c in counts.items():
        row = table.setdefault(rank, [])
        row.extend([0] * (n + 1 - len(row)))
        row[n] += c
    return {rank: tuple(row) for rank, row in table.items()}


def subset_rank_table(max_part):
    """rank -> size coefficients of the strict partitions with parts <=
    max_part, by looping over all 2^max_part subsets of {1..max_part}."""
    counts = {}
    for mask in range(1 << max_part):
        rank = total = idx = 0
        for part in range(max_part, 0, -1):
            if mask >> (part - 1) & 1:
                idx += 1
                total += part
                rank += _rank_step(idx, part)
        counts[(total, rank)] = counts.get((total, rank), 0) + 1
    return _coeffs_by_rank(counts)


def walk_rank_table(max_part, degree, strict):
    """rank -> size coefficients up to degree of the partitions with parts
    <= max_part (distinct ones if strict), by a recursive walk that visits
    every such partition once."""
    counts = {}

    def walk(cap, used, idx, rank):
        counts[(used, rank)] = counts.get((used, rank), 0) + 1
        for part in range(min(cap, degree - used), 0, -1):
            walk(part - 1 if strict else part, used + part, idx + 1, rank + _rank_step(idx + 1, part))

    walk(max_part, 0, 0, 0)
    return _coeffs_by_rank(counts)


def cover_layout_cells(a, covered):
    """Cells of the block layout: odd block 2r-1 fills row r from column 1,
    even block 2m fills column a+m+1 from row 1 down."""
    return {
        ((i + 1) // 2, step) if i % 2 == 1 else (step, a + i // 2 + 1)
        for i, b in enumerate(covered, start=1)
        for step in range(1, b + 1)
    }


def young_rows(cells):
    """Row lengths of a cell set that is a Young diagram, i.e. holds the
    cell to the left of and the cell above each of its cells; else None."""
    if not all((c == 1 or (r, c - 1) in cells) and (r == 1 or (r - 1, c) in cells) for r, c in cells):
        return None
    rows = [0] * len({r for r, _ in cells})
    for r, _ in cells:
        rows[r - 1] += 1
    return tuple(rows)


def row_sum_cover(a, parts):
    """Block counts of a partition's diagram for a, column by column:
    b_{2r-1} = min(p_r, a+r) and b_{2m} counts the rows r <= m with
    p_r >= a+m+1; trimmed at the last non-zero block."""
    n_cols = max(0, (parts[0] if parts else 0) - a - 1)
    b = [0] * max(2 * len(parts) - 1, 2 * n_cols, 0)
    for r, part in enumerate(parts, start=1):
        b[2 * r - 2] = min(part, a + r)
    for m in range(1, n_cols + 1):
        b[2 * m - 1] = sum(1 for r in range(1, min(m, len(parts)) + 1) if parts[r - 1] >= a + m + 1)
    while b and b[-1] == 0:
        b.pop()
    return tuple(b)


def shifted_profile_cells(parts):
    """Column heights of the shifted diagram, one cell at a time: row j
    covers columns j .. j + d_j - 1."""
    heights = {}
    for j, part in enumerate(parts, start=1):
        for col in range(j, j + part):
            heights[col] = heights.get(col, 0) + 1
    return tuple(heights[col] for col in range(1, len(heights) + 1))


def shifted_rows(profile):
    """Rows of the shifted diagram with this column profile: row j runs
    from column j to the last column of height >= j."""
    return tuple(
        max(i for i in range(1, len(profile) + 1) if profile[i - 1] >= j) - j + 1
        for j in range(1, max(profile, default=0) + 1)
    )
