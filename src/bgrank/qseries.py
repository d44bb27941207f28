"""Exact polynomials in q, bounded generating functions, identity checkers.

Coefficients are plain Python integers, so nothing ever rounds or
overflows.  A QPolynomial may carry a truncation degree D, meaning its
coefficients are only known up to q^D; two values compare equal when they
agree on every exponent both of them know about.

The verify_* functions each pit an enumeration-side generating function
against a closed-form product side and report the first disagreeing
coefficient, if any.  The two sides share no code: products come from one
in-place factor pass, rank-refined counts from a DP over part values.  Identity keys (eq1, eq2, eq3, eq51, eq52, eq53)
match the CLI's `verify` subcommand.
"""

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
from typing import Iterable

from .errors import InvalidArgument


class QPolynomial:
    """Dense exact-integer polynomial in q, optionally truncated at degree D."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs: Iterable[int] = (), truncation: int | None = None):
        coeffs = list(coeffs)
        if truncation is not None:
            if truncation < 0:
                raise InvalidArgument(f"truncation must be non-negative, got {truncation}")
            del coeffs[truncation + 1 :]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    @classmethod
    def zero(cls, truncation: int | None = None) -> "QPolynomial":
        return cls((), truncation)

    @classmethod
    def one(cls, truncation: int | None = None) -> "QPolynomial":
        return cls((1,), truncation)

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1, truncation: int | None = None) -> "QPolynomial":
        if exponent < 0:
            raise InvalidArgument(f"exponent must be non-negative, got {exponent}")
        return cls([0] * exponent + [coeff], truncation)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Largest exponent with non-zero coefficient, None for the zero value."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, exponent: int) -> int:
        """Coefficient of q^exponent; asking past the truncation is an error."""
        if exponent < 0:
            raise InvalidArgument(f"exponent must be non-negative, got {exponent}")
        if self.truncation is not None and exponent > self.truncation:
            raise InvalidArgument(f"coefficient {exponent} is beyond truncation {self.truncation}")
        return self.coeffs[exponent] if exponent < len(self.coeffs) else 0

    def truncate(self, degree: int) -> "QPolynomial":
        bound = degree if self.truncation is None else min(degree, self.truncation)
        return QPolynomial(self.coeffs, bound)

    @staticmethod
    def _join_truncation(a: "QPolynomial", b: "QPolynomial") -> int | None:
        if a.truncation is None:
            return b.truncation
        if b.truncation is None:
            return a.truncation
        return min(a.truncation, b.truncation)

    def _coerce(self, other):
        if isinstance(other, QPolynomial):
            return other
        if isinstance(other, int):
            return QPolynomial((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        coeffs = [
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        ]
        return QPolynomial(coeffs, self._join_truncation(self, other))

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial([-c for c in self.coeffs], self.truncation)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        bound = self._join_truncation(self, other)
        if not self.coeffs or not other.coeffs:
            return QPolynomial((), bound)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(out, bound)

    __rmul__ = __mul__

    def first_difference(self, other: "QPolynomial") -> int | None:
        """Smallest exponent where the two disagree, within what both know.

        None means they agree on every comparable coefficient.
        """
        bound = self._join_truncation(self, other)
        top = max(len(self.coeffs), len(other.coeffs)) - 1
        if bound is not None:
            top = min(top, bound)
        for e in range(top + 1):
            a = self.coeffs[e] if e < len(self.coeffs) else 0
            b = other.coeffs[e] if e < len(other.coeffs) else 0
            if a != b:
                return e
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.first_difference(other) is None

    def __repr__(self):
        return f"QPolynomial({list(self.coeffs)!r}, truncation={self.truncation!r})"

    def __str__(self):
        """Ascending text form like '1 + q^2 + 2*q^4', '0' for zero."""
        if not self.coeffs:
            return "0"
        terms = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{e}" if mag == 1 else f"{mag}*q^{e}"
            terms.append(("-" if c < 0 else "+", body))
        sign, body = terms[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text

    def to_json_dict(self) -> dict:
        """Coefficients as decimal strings plus the truncation degree."""
        return {"coeffs": [str(c) for c in self.coeffs], "truncation": self.truncation}


def substitute_power(p: QPolynomial, j: int) -> QPolynomial:
    """p(q^j); the truncation degree scales by j as well."""
    if j < 1:
        raise InvalidArgument(f"power must be positive, got {j}")
    if not p.coeffs:
        return QPolynomial((), None if p.truncation is None else p.truncation * j)
    out = [0] * ((len(p.coeffs) - 1) * j + 1)
    for e, c in enumerate(p.coeffs):
        out[e * j] = c
    return QPolynomial(out, None if p.truncation is None else p.truncation * j)


# ---------------------------------------------------------------- product side
#
# Every closed-form product is built by one in-place pass over a list of
# coefficients, one factor at a time.  Each pass costs O(len(c)), so a
# product of F factors up to degree D costs O(F * D).


def _factor_pass(c: list[int], j: int, op: str, degree: int | None = None) -> None:
    """Multiply c in place by (1 + q^j) for op "+", by (1 - q^j) for "-",
    or divide it by (1 - q^j) for "/".

    Without a degree c is an exact polynomial, which "/" must divide
    exactly.  With one, c is a power series known up to q^degree and never
    grows past that length; "/" then multiplies in the geometric series
    1 + q^j + q^2j + ..., the prefix recurrence c[e] += c[e - j].
    """
    if op == "/":
        size = len(c)
        # the same recurrence either way: one running sum per residue class
        # mod j (j slices), or block after block of j (size / j slices)
        if j * j < size:
            for r in range(j):
                c[r::j] = accumulate(c[r::j])
        else:
            for b in range(j, size, j):
                c[b : b + j] = map(add, c[b : b + j], c[b - j : b])
        if degree is None:
            if any(c[size - j :]):
                raise ArithmeticError(f"1 - q^{j} does not divide the polynomial")
            del c[size - j :]
        return
    top = len(c) + j if degree is None else min(len(c) + j, degree + 1)
    c.extend([0] * (top - len(c)))
    c[j:] = map(add if op == "+" else sub, c[j:], c[: top - j])


def _pochhammer_gaps(base_power: int, factors: int | None, degree: int) -> range:
    """The exponents j of the factors (1 - q^j) of (q^b; q^b)_factors that
    can reach q^degree; factors=None means all of them."""
    count = degree // base_power if factors is None else min(factors, degree // base_power)
    return range(base_power, base_power * count + 1, base_power)


def _over_products(shift: int, gaps: Iterable[int], degree: int) -> list[int]:
    """Coefficients up to q^degree of q^shift / prod_{j in gaps} (1 - q^j)."""
    c = [0] * (degree + 1)
    if shift <= degree:
        c[shift] = 1
        for j in gaps:
            _factor_pass(c, j, "/", degree)
    return c


def _add_base2(out: list[int], shift: int, coeffs) -> None:
    """out += q^shift * p(q^2) in place, where p has the given coefficients."""
    end = shift + 2 * len(coeffs)
    out[shift:end:2] = map(add, out[shift:end:2], coeffs)


def gaussian_binomial(m: int, n: int) -> QPolynomial:
    """Gaussian binomial [m, n]_q as an exact polynomial.

    Zero outside 0 <= n <= m, otherwise the product
    prod_{i=1..n} (1 - q^(m-n+i)) / (1 - q^i) with n <= m - n, each
    division exact; coefficient of q^j counts the partitions of j inside
    an n x (m-n) box, so the degree is n*(m-n).
    """
    if m < 0:
        raise InvalidArgument(f"m must be non-negative, got {m}")
    if n < 0 or n > m:
        return QPolynomial.zero()
    n = min(n, m - n)
    c = [1]
    for i in range(1, n + 1):
        _factor_pass(c, m - n + i, "-")
        _factor_pass(c, i, "/")
    return QPolynomial(c)


def neg_q_pochhammer(count: int) -> QPolynomial:
    """(-q; q)_count = prod_{k=1}^{count} (1 + q^k), exactly.

    This is the generating function for strict partitions with parts
    <= count; its degree is count*(count+1)/2.
    """
    if count < 0:
        raise InvalidArgument(f"count must be non-negative, got {count}")
    c = [1]
    for k in range(1, count + 1):
        _factor_pass(c, k, "+")
    return QPolynomial(c)


def inv_pochhammer(base_power: int, factors: int | None, degree: int) -> QPolynomial:
    """1 / prod_{i=1..factors} (1 - q^(base_power * i)), truncated at degree.

    factors=None means infinitely many, i.e. every i with
    base_power * i <= degree.
    """
    if base_power < 1:
        raise InvalidArgument(f"base_power must be positive, got {base_power}")
    if degree < 0:
        raise InvalidArgument(f"degree must be non-negative, got {degree}")
    if factors is not None and factors < 0:
        raise InvalidArgument(f"factors must be non-negative or None, got {factors}")
    return QPolynomial(_over_products(0, _pochhammer_gaps(base_power, factors, degree), degree), degree)


# ---------------------------------------------------------------- enumeration side
#
# Partitions are built part value by part value, largest first, so the
# next part placed has 1-based index (parts placed so far) + 1.  The state
# is that count's parity and the running BG-rank; each state holds the
# size generating function of the partial partitions that reach it.  One
# pass gives every rank at once and costs O(M * ranks * degree) for M part
# values.  Nothing here uses the product side above.


def _rank_step(parity: int, part: int) -> int:
    """BG-rank change from placing `part` at an index of the given parity
    of the parts already placed: +1 at an odd index, -1 at an even one."""
    if part % 2 == 0:
        return 0
    return 1 if parity == 0 else -1


def _add_into(table: dict, key, c: list[int]) -> None:
    """table[key] += c, coefficient by coefficient; c is not copied."""
    table[key] = list(map(add, table[key], c)) if key in table else c


def _by_rank(states: dict) -> dict[int, tuple[int, ...]]:
    """Merge the two parities of each rank."""
    table: dict = {}
    for (_, rank), c in states.items():
        _add_into(table, rank, c)
    return {rank: tuple(c) for rank, c in table.items()}


@lru_cache(maxsize=8)
def _strict_rank_table(max_part: int, degree: int) -> dict[int, tuple[int, ...]]:
    """rank -> coefficients up to q^degree of the strict partitions with
    parts <= max_part and that BG-rank."""
    states = {(0, 0): [1] + [0] * degree}
    for part in range(min(max_part, degree), 0, -1):
        moved: dict = {}
        for (parity, rank), c in states.items():
            kept = c[: degree + 1 - part]
            if any(kept):  # otherwise taking the part overshoots the degree
                taken = [0] * part + kept
                _add_into(moved, (1 - parity, rank + _rank_step(parity, part)), taken)
        for key, c in moved.items():
            _add_into(states, key, c)
    return _by_rank(states)


@lru_cache(maxsize=8)
def _all_rank_table(max_part: int, degree: int) -> dict[int, tuple[int, ...]]:
    """rank -> coefficients up to q^degree of the partitions (repeated parts
    allowed) with parts <= max_part and that BG-rank.

    r copies of one part take r consecutive indices: an even r leaves the
    parity and the rank as they were, an odd r flips the parity and moves
    the rank as a single copy would.
    """
    states = {(0, 0): [1] + [0] * degree}
    for part in range(min(max_part, degree), 0, -1):
        moved: dict = {}
        for (parity, rank), c in states.items():
            even = list(c)  # sum over even r of c * q^(r * part)
            for e in range(2 * part, degree + 1):
                even[e] += even[e - 2 * part]
            _add_into(moved, (parity, rank), even)
            kept = even[: degree + 1 - part]
            if any(kept):
                odd = [0] * part + kept
                _add_into(moved, (1 - parity, rank + _rank_step(parity, part)), odd)
        states = moved
    return _by_rank(states)


def strict_bgrank_gf(max_part: int, k: int) -> QPolynomial:
    """Exact sum of q^|d| over strict partitions with parts <= max_part
    and BG-rank k."""
    if max_part < 0:
        raise InvalidArgument(f"max_part must be non-negative, got {max_part}")
    return QPolynomial(_strict_rank_table(max_part, max_part * (max_part + 1) // 2).get(k, ()))


def all_bgrank_gf(max_part: int, k: int, degree: int) -> QPolynomial:
    """Truncated sum of q^|p| over all partitions (repetition allowed) with
    parts <= max_part, BG-rank k and size <= degree."""
    if max_part < 0:
        raise InvalidArgument(f"max_part must be non-negative, got {max_part}")
    if degree < 0:
        raise InvalidArgument(f"degree must be non-negative, got {degree}")
    return QPolynomial(_all_rank_table(max_part, degree).get(k, ()), degree)


def strict_rank_series(k: int, degree: int) -> QPolynomial:
    """Truncated sum of q^n times the number of strict partitions of n
    with BG-rank k, with no bound on the parts."""
    if degree < 0:
        raise InvalidArgument(f"degree must be non-negative, got {degree}")
    return QPolynomial(_strict_rank_table(degree, degree).get(k, ()), degree)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check at one parameter tuple."""

    identity: str
    params: dict
    equal: bool
    mismatch_exponent: int | None
    lhs_coeff: int | None
    rhs_coeff: int | None
    lhs: QPolynomial
    rhs: QPolynomial
    ms: float

    def __bool__(self):
        return self.equal

    def describe(self) -> str:
        args = " ".join(f"{k}={v}" for k, v in self.params.items())
        if self.equal:
            return f"{self.identity} {args}: equal"
        return (
            f"{self.identity} {args}: MISMATCH at q^{self.mismatch_exponent} "
            f"(lhs {self.lhs_coeff}, rhs {self.rhs_coeff})"
        )

    def to_json_dict(self) -> dict:
        mismatch = None
        if not self.equal:
            mismatch = {
                "exponent": self.mismatch_exponent,
                "lhs": str(self.lhs_coeff),
                "rhs": str(self.rhs_coeff),
            }
        return {
            "identity": self.identity,
            "params": dict(self.params),
            "ok": self.equal,
            "mismatch": mismatch,
            "ms": self.ms,
        }


def _report(identity: str, params: dict, lhs: QPolynomial, rhs: QPolynomial, started: float) -> VerificationReport:
    e = lhs.first_difference(rhs)
    return VerificationReport(
        identity=identity,
        params=params,
        equal=e is None,
        mismatch_exponent=e,
        lhs_coeff=None if e is None else lhs.coefficient(e),
        rhs_coeff=None if e is None else rhs.coefficient(e),
        lhs=lhs,
        rhs=rhs,
        ms=(time.perf_counter() - started) * 1000.0,
    )


def _check_box(n_cap: int, nu: int):
    if n_cap < 0:
        raise InvalidArgument(f"N must be non-negative, got {n_cap}")
    if nu not in (0, 1):
        raise InvalidArgument(f"nu must be 0 or 1, got {nu}")


def verify_eq1(n_cap: int, nu: int, k: int) -> VerificationReport:
    """Strict partitions with parts <= 2N+nu and BG-rank k, against
    q^(2k^2-k) times the Gaussian binomial [2N+nu, N+k] in base q^2.
    Exact polynomial comparison; out-of-range k gives zero on both sides."""
    _check_box(n_cap, nu)
    started = time.perf_counter()
    lhs = strict_bgrank_gf(2 * n_cap + nu, k)
    row = gaussian_binomial(2 * n_cap + nu, n_cap + k).coeffs
    shift = 2 * k * k - k
    rhs = [0] * (shift + 2 * len(row))
    _add_base2(rhs, shift, row)
    return _report("eq1", {"N": n_cap, "nu": nu, "k": k}, lhs, QPolynomial(rhs), started)


def verify_eq52(n_cap: int, nu: int) -> VerificationReport:
    """Sum of the eq1 right sides over k = -N .. N+nu against
    (-q; q)_{2N+nu}, exactly.

    The binomials [m, n] of the row m = 2N+nu are walked with
    [m, n] = [m, n-1] (1 - q^(m-n+1)) / (1 - q^n), each added into one sum.
    """
    _check_box(n_cap, nu)
    started = time.perf_counter()
    m = 2 * n_cap + nu
    rhs = neg_q_pochhammer(m)
    lhs = [0] * (m * (m + 1) // 2 + 1)
    row = [1]
    for n in range(m + 1):
        if n:
            _factor_pass(row, m - n + 1, "-")
            _factor_pass(row, n, "/")
        k = n - n_cap
        _add_base2(lhs, 2 * k * k - k, row)
    return _report("eq52", {"N": n_cap, "nu": nu}, QPolynomial(lhs), rhs, started)


def verify_eq2(k: int, degree: int) -> VerificationReport:
    """Strict partitions of every n <= degree with BG-rank k, against
    q^(2k^2-k) / (q^2; q^2)_infinity, coefficients up to the degree."""
    started = time.perf_counter()
    lhs = strict_rank_series(k, degree)
    rhs = _over_products(2 * k * k - k, _pochhammer_gaps(2, None, degree), degree)
    return _report("eq2", {"k": k, "D": degree}, lhs, QPolynomial(rhs, degree), started)


def verify_eq3(degree: int) -> VerificationReport:
    """The rank-0 case of eq2: strict partitions of n with BG-rank 0
    are counted by 1 / (q^2; q^2)_infinity."""
    report = verify_eq2(0, degree)
    return VerificationReport(
        identity="eq3",
        params={"D": degree},
        equal=report.equal,
        mismatch_exponent=report.mismatch_exponent,
        lhs_coeff=report.lhs_coeff,
        rhs_coeff=report.rhs_coeff,
        lhs=report.lhs,
        rhs=report.rhs,
        ms=report.ms,
    )


def _eq51_gaps(n_cap: int, nu: int, k: int, degree: int) -> list[int]:
    """Factor exponents of (q^2;q^2)_{N+k} (q^2;q^2)_{N+nu-k}."""
    return [*_pochhammer_gaps(2, n_cap + k, degree), *_pochhammer_gaps(2, n_cap + nu - k, degree)]


def verify_eq51(n_cap: int, nu: int, k: int, degree: int) -> VerificationReport:
    """All partitions with parts <= 2N+nu and BG-rank k, against
    q^(2k^2-k) / ((q^2;q^2)_{N+k} (q^2;q^2)_{N+nu-k}), up to the degree.

    When N+k or N+nu-k is negative the class is empty and the right side
    is the zero polynomial by convention; the left side is still counted.
    """
    _check_box(n_cap, nu)
    started = time.perf_counter()
    lhs = all_bgrank_gf(2 * n_cap + nu, k, degree)
    if n_cap + k < 0 or n_cap + nu - k < 0:
        rhs = [0]
    else:
        rhs = _over_products(2 * k * k - k, _eq51_gaps(n_cap, nu, k, degree), degree)
    return _report("eq51", {"N": n_cap, "nu": nu, "k": k, "D": degree}, lhs, QPolynomial(rhs, degree), started)


def verify_eq53(n_cap: int, nu: int, degree: int) -> VerificationReport:
    """Sum of the eq51 right sides over k = -N .. N+nu against
    1 / (q; q)_{2N+nu}, up to the degree."""
    _check_box(n_cap, nu)
    started = time.perf_counter()
    rhs = inv_pochhammer(1, 2 * n_cap + nu, degree)
    lhs = [0] * (degree + 1)
    for k in range(-n_cap, n_cap + nu + 1):
        term = _over_products(2 * k * k - k, _eq51_gaps(n_cap, nu, k, degree), degree)
        lhs = list(map(add, lhs, term))
    return _report("eq53", {"N": n_cap, "nu": nu, "D": degree}, QPolynomial(lhs, degree), rhs, started)
