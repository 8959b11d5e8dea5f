"""Truncated formal power series in q with exact integer coefficients.

A QSeries of order N stores the coefficients of q^0 .. q^N and nothing
beyond; every operation is exact integer arithmetic, so equality of two
series means equality of every stored coefficient.  Binary operations
require both operands to share the same order, which makes truncation
bugs fail loudly instead of silently re-truncating.
"""

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from math import comb
from operator import index as _as_int


@dataclass(frozen=True)
class QSeries:
    """A power series in q truncated (inclusively) at degree ``order``."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be non-negative, got %d" % self.order)
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                "need %d coefficients for order %d, got %d"
                % (self.order + 1, self.order, len(self.coeffs))
            )

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int], order: int | None = None) -> "QSeries":
        """Build a series from low-order coefficients, zero-padded to ``order``."""
        cs = [_as_int(c) for c in coeffs]
        if order is None:
            order = max(len(cs) - 1, 0)
        if len(cs) > order + 1:
            raise ValueError("%d coefficients exceed order %d" % (len(cs), order))
        cs.extend([0] * (order + 1 - len(cs)))
        return cls(order, tuple(cs))

    def __getitem__(self, k: int) -> int:
        return coefficient(self, k)

    def __add__(self, other: "QSeries") -> "QSeries":
        return linear_combine(self, other, 1, 1)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return linear_combine(self, other, 1, -1)

    def __neg__(self) -> "QSeries":
        return QSeries(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return mul(self, other)
        if isinstance(other, int):
            return QSeries(self.order, tuple(other * c for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def __str__(self) -> str:
        return _format_terms(self.coeffs)

    def to_json_dict(self) -> dict:
        """JSON form with coefficients as decimal strings (they may be huge)."""
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


def _format_terms(coeffs, max_terms: int | None = None, ellipsis: bool = False) -> str:
    terms = []
    truncated = False
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if max_terms is not None and len(terms) == max_terms:
            truncated = True
            break
        if k == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "q" if k == 1 else "q^%d" % k
        else:
            body = "%d*q" % abs(c) if k == 1 else "%d*q^%d" % (abs(c), k)
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    head = terms[0]
    head = "-" + head[2:] if head.startswith("- ") else head[2:]
    text = " ".join([head] + terms[1:])
    if ellipsis and truncated:
        text += " + ..."
    return text


def head_str(a: QSeries, terms: int = 5) -> str:
    """The first ``terms`` nonzero terms, with a trailing ellipsis if cut short."""
    return _format_terms(a.coeffs, max_terms=terms, ellipsis=True)


def zero(order: int) -> QSeries:
    return QSeries(order, (0,) * (order + 1))


def one(order: int) -> QSeries:
    return monomial(order, 0)


def monomial(order: int, k: int, c: int = 1) -> QSeries:
    """The single term c*q^k at the given order."""
    if not 0 <= k <= order:
        raise ValueError("exponent %d outside order %d" % (k, order))
    cs = [0] * (order + 1)
    cs[k] = c
    return QSeries(order, tuple(cs))


def geometric(m: int, order: int) -> QSeries:
    """1 + q^m + q^(2m) + ... truncated at ``order``; the expansion of 1/(1-q^m)."""
    if m < 1:
        raise ValueError("geometric ratio exponent must be >= 1, got %d" % m)
    return QSeries(order, tuple(1 if k % m == 0 else 0 for k in range(order + 1)))


def coefficient(a: QSeries, k: int) -> int:
    """The coefficient of q^k; indices beyond the order carry no information."""
    if not 0 <= k <= a.order:
        raise ValueError("index %d outside truncation order %d" % (k, a.order))
    return a.coeffs[k]


def _check_orders(a: QSeries, b: QSeries) -> None:
    if a.order != b.order:
        raise ValueError("mismatched orders: %d vs %d" % (a.order, b.order))


def linear_combine(a: QSeries, b: QSeries, ca: int, cb: int) -> QSeries:
    """ca*a + cb*b, coefficient-wise."""
    _check_orders(a, b)
    return QSeries(
        a.order, tuple(ca * x + cb * y for x, y in zip(a.coeffs, b.coeffs))
    )


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Truncated Cauchy product."""
    _check_orders(a, b)
    n = a.order
    ca, cb = a.coeffs, b.coeffs
    # iterate over the sparser operand's support
    if sum(1 for c in ca if c) > sum(1 for c in cb if c):
        ca, cb = cb, ca
    out = [0] * (n + 1)
    for i, ai in enumerate(ca):
        if ai:
            for k in range(i, n + 1):
                out[k] += ai * cb[k - i]
    return QSeries(n, tuple(out))


def invert(a: QSeries) -> QSeries:
    """Multiplicative inverse of a series with constant term +1 or -1.

    Uses the triangular recurrence b_0 = a_0, b_k = -a_0 * sum_{i>=1} a_i b_{k-i},
    which keeps every coefficient an integer.
    """
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise ValueError("non-unit constant term: %s" % a0)
    n = a.order
    support = [(i, c) for i, c in enumerate(a.coeffs) if i >= 1 and c]
    b = [0] * (n + 1)
    b[0] = a0
    for k in range(1, n + 1):
        acc = 0
        for i, ai in support:
            if i > k:
                break
            acc += ai * b[k - i]
        b[k] = -a0 * acc
    return QSeries(n, tuple(b))


def truncate(a: QSeries, new_order: int) -> QSeries:
    """Discard all terms above ``new_order``."""
    if not 0 <= new_order <= a.order:
        raise ValueError("cannot truncate order %d to %d" % (a.order, new_order))
    return QSeries(new_order, a.coeffs[: new_order + 1])


def shift(a: QSeries, j: int) -> QSeries:
    """Multiply by q^j, dropping whatever overflows the order."""
    if j < 0:
        raise ValueError("shift must be non-negative, got %d" % j)
    if j == 0:
        return a
    n = a.order
    if j > n:
        return zero(n)
    return QSeries(n, (0,) * j + a.coeffs[: n + 1 - j])


def mul_one_minus_qpow(a: QSeries, e: int) -> QSeries:
    """Multiply by (1 - q^e) in O(order) operations."""
    if e < 1:
        raise ValueError("exponent must be >= 1, got %d" % e)
    cs = a.coeffs
    return QSeries(
        a.order,
        tuple(c - cs[k - e] if k >= e else c for k, c in enumerate(cs)),
    )


def div_one_minus_qpow(a: QSeries, e: int) -> QSeries:
    """Divide by (1 - q^e), i.e. multiply by the geometric series in q^e."""
    if e < 1:
        raise ValueError("exponent must be >= 1, got %d" % e)
    out = list(a.coeffs)
    for k in range(e, a.order + 1):
        out[k] += out[k - e]
    return QSeries(a.order, tuple(out))


def pow_one_minus_qpow(a: QSeries, e: int, m: int) -> QSeries:
    """Multiply by (1 - q^e)^m for any integer m, negative meaning division.

    Small |m| runs the O(order) single-factor passes; large |m| (stripping
    can demand multiplicities that grow exponentially with the exponent)
    expands (1 - q^e)^m by the binomial theorem and multiplies once.
    """
    if e < 1:
        raise ValueError("exponent must be >= 1, got %d" % e)
    if m == 0 or e > a.order:
        return a
    if abs(m) <= 4:
        step = mul_one_minus_qpow if m >= 0 else div_one_minus_qpow
        for _ in range(abs(m)):
            a = step(a, e)
        return a
    jmax = a.order // e
    if m > 0:
        terms = [(j * e, (-1) ** (j & 1) * comb(m, j)) for j in range(min(jmax, m) + 1)]
    else:
        terms = [(j * e, comb(-m - 1 + j, j)) for j in range(jmax + 1)]
    return mul(a, from_support(a.order, terms))


def from_support(order: int, terms: Sequence[tuple[int, int]]) -> QSeries:
    """Build a series from (exponent, coefficient) pairs; exponents may repeat."""
    cs = [0] * (order + 1)
    for k, c in terms:
        if not 0 <= k <= order:
            raise ValueError("exponent %d outside order %d" % (k, order))
        cs[k] += _as_int(c)
    return QSeries(order, tuple(cs))
