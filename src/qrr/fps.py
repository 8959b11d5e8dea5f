"""Truncated formal power series in q with exact integer coefficients.

A QSeries of order N stores the coefficients of q^0 .. q^N and nothing
beyond; every operation is exact integer arithmetic, so equality of two
series means equality of every stored coefficient.  Binary operations
require both operands to share the same order, which makes truncation
bugs fail loudly instead of silently re-truncating.
"""

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from itertools import islice, repeat
from math import comb
from operator import add, sub, index as _as_int, mul as _times


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
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(islice(self.coeffs, 1, None))

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


def _scaled(c: int, cs: tuple[int, ...]) -> Iterable[int]:
    """c*x for each x in cs, with no multiply when c is 1."""
    return cs if c == 1 else map(_times, repeat(c), cs)


def linear_combine(a: QSeries, b: QSeries, ca: int, cb: int) -> QSeries:
    """ca*a + cb*b, coefficient-wise; a negative cb subtracts (-cb)*b."""
    _check_orders(a, b)
    op, cb = (sub, -cb) if cb < 0 else (add, cb)
    return QSeries(a.order, tuple(map(op, _scaled(ca, a.coeffs), _scaled(cb, b.coeffs))))


def _pack(cs: Sequence[int], width: int) -> int:
    """The integer sum c_k * 256^(width*k): positive and negative parts packed apart."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in cs)
    pos = int.from_bytes(pos, "little")
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in cs)
    return pos - int.from_bytes(neg, "little")


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Truncated Cauchy product by Kronecker substitution.

    Each operand becomes one integer, its coefficients in byte slots wide
    enough for any product coefficient and its sign; one big-integer
    product then holds the product's coefficients in the same slots
    (Harvey, arXiv:0712.4046).  The low order+1 slots are read back as
    signed digits: a slot at or above half its range is negative and
    borrows one from the slot above.
    """
    _check_orders(a, b)
    n = a.order
    ma, mb = max(map(abs, a.coeffs)), max(map(abs, b.coeffs))
    if not ma or not mb:
        return zero(n)
    width = (ma.bit_length() + mb.bit_length() + (n + 1).bit_length() + 8) // 8
    size = width * (n + 1)
    raw = _pack(a.coeffs, width) * _pack(b.coeffs, width)
    raw = (raw & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    half, full = 1 << (8 * width - 1), 1 << (8 * width)
    out = []
    borrow = 0
    for k in range(0, size, width):
        c = int.from_bytes(raw[k : k + width], "little") + borrow
        borrow = c >= half
        out.append(c - full if borrow else c)
    return QSeries(n, tuple(out))


def invert(a: QSeries) -> QSeries:
    """Multiplicative inverse of a series with constant term +1 or -1.

    Newton iteration b <- b - b*(a*b - 1) on ``mul``: each step doubles the
    number of correct coefficients, starting from b = a_0 = 1/a_0.  Since
    a*b - 1 vanishes below the current precision p, only its next p
    coefficients are formed and multiplied by b.
    """
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise ValueError("non-unit constant term: %s" % a0)
    n = a.order
    b = (a0,)
    while len(b) <= n:
        p = len(b)
        m = min(2 * p, n + 1)  # coefficients known after this step
        err = mul(truncate(a, m - 1), QSeries(m - 1, b + (0,) * (m - p)))
        fix = mul(QSeries(m - p - 1, b[: m - p]), QSeries(m - p - 1, err.coeffs[p:]))
        b += tuple(-c for c in fix.coeffs)
    return QSeries(n, b)


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
    return QSeries(a.order, cs[:e] + tuple(map(sub, cs[e:], cs)))


def div_one_minus_qpow(a: QSeries, e: int) -> QSeries:
    """Divide by (1 - q^e), i.e. multiply by the geometric series in q^e.

    The prefix sum out_k = a_k + out_{k-e} runs one block of e coefficients
    at a time: block [s, s+e) adds block [s-e, s), which is already final.
    """
    if e < 1:
        raise ValueError("exponent must be >= 1, got %d" % e)
    out = list(a.coeffs)
    for s in range(e, len(out), e):
        out[s : s + e] = map(add, out[s : s + e], out[s - e : s])
    return QSeries(a.order, tuple(out))


def pow_one_minus_qpow(a: QSeries, e: int, m: int) -> QSeries:
    """Multiply by (1 - q^e)^m for any integer m, negative meaning division.

    Small |m| runs the O(order) single-factor passes.  Large |m| (stripping
    can demand multiplicities that grow exponentially with the exponent)
    expands (1 - q^e)^m by the binomial theorem: a sparse polynomial with
    at most order/e terms after its constant 1, each added to a copy of
    ``a`` as a shifted multiple of ``a``.
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
    n = a.order
    cs = a.coeffs
    out = list(cs)  # the binomial's constant term is 1
    for j in range(1, (min(n // e, m) if m > 0 else n // e) + 1):
        c = (-1) ** (j & 1) * comb(m, j) if m > 0 else comb(j - m - 1, j)
        s = j * e
        for k in range(s, n + 1):
            out[k] += c * cs[k - s]
    return QSeries(n, tuple(out))


def from_support(order: int, terms: Sequence[tuple[int, int]]) -> QSeries:
    """Build a series from (exponent, coefficient) pairs; exponents may repeat."""
    cs = [0] * (order + 1)
    for k, c in terms:
        if not 0 <= k <= order:
            raise ValueError("exponent %d outside order %d" % (k, order))
        cs[k] += _as_int(c)
    return QSeries(order, tuple(cs))
