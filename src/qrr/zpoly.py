"""Polynomials in z whose coefficients are truncated q-polynomials.

The z-degree is kept exact (it stays small for everything this toolkit
computes); only q is truncated, at a single order shared by all
coefficients.  The key operation is the substitution z -> z*q^j, which
multiplies the coefficient of z^d by q^(j*d).

Each z-coefficient is stored as a row of ints trimmed to its true
q-degree, so the convergent numerators H_n, whose q-degree is far below
the order, never carry the zeros up to it.
"""

from dataclasses import dataclass
from itertools import compress
from operator import add

from .fps import QSeries


@dataclass(frozen=True)
class ZPolynomial:
    """Polynomial in z over the q-polynomials truncated at ``qorder``.

    ``rows[d]`` holds the coefficients of q^0 .. q^k in the coefficient of
    z^d: at most qorder+1 of them and no trailing zero, so an empty row is
    a zero coefficient.  The last row is non-empty and the zero polynomial
    has no rows, so equal values compare equal structurally.
    """

    qorder: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.qorder < 0:
            raise ValueError("qorder must be non-negative, got %d" % self.qorder)
        for row in self.rows:
            if len(row) > self.qorder + 1 or (row and not row[-1]):
                raise ValueError("row %r is not trimmed to qorder %d" % (row, self.qorder))
        if self.rows and not self.rows[-1]:
            raise ValueError("leading z-coefficient must be nonzero (unnormalized)")

    def __str__(self) -> str:
        qparts = ["", "q"] + ["q^%d" % k for k in range(2, max(map(len, self.rows), default=0))]
        parts = []
        for d, row in enumerate(self.rows):
            zpart = "" if d == 0 else ("z" if d == 1 else "z^%d" % d)
            for k in compress(range(len(row)), row):  # the nonzero terms only
                c, body = row[k], zpart + qparts[k]
                if c in (1, -1):
                    parts.append(("+" if c > 0 else "-") + (body or "1"))
                else:
                    parts.append("%+d%s" % (c, body))
        text = "".join(parts) or "0"
        return text[1:] if text.startswith("+") else text


def _trimmed(row: tuple[int, ...]) -> tuple[int, ...]:
    end = len(row)
    while end and not row[end - 1]:
        end -= 1
    return row[:end]


def _normalized(qorder: int, rows: list) -> ZPolynomial:
    """The polynomial of these trimmed rows, with trailing empty rows dropped."""
    while rows and not rows[-1]:
        rows.pop()
    return ZPolynomial(qorder, tuple(rows))


def _shifted(row: tuple[int, ...], m: int, qorder: int) -> tuple[int, ...]:
    """A trimmed row times q^m, truncated at ``qorder``."""
    kept = _trimmed(row[: qorder + 1 - m]) if m <= qorder else ()
    return (0,) * m + kept if kept and m else kept


def z_one(qorder: int) -> ZPolynomial:
    return ZPolynomial(qorder, ((1,),))


def zadd(a: ZPolynomial, b: ZPolynomial) -> ZPolynomial:
    if a.qorder != b.qorder:
        raise ValueError("mismatched qorders: %d vs %d" % (a.qorder, b.qorder))
    if len(a.rows) < len(b.rows):
        a, b = b, a
    rows = []
    for x, y in zip(a.rows, b.rows):
        if len(x) < len(y):
            x, y = y, x
        # only rows of equal length can cancel at the top
        rows.append(_trimmed(tuple(map(add, x, y))) if len(x) == len(y)
                    else tuple(map(add, x, y)) + x[len(y):])
    rows.extend(a.rows[len(b.rows):])
    return _normalized(a.qorder, rows)


def zshift(a: ZPolynomial, k: int, m: int) -> ZPolynomial:
    """Multiply by z^k * q^m."""
    if k < 0 or m < 0:
        raise ValueError("zshift powers must be non-negative")
    return _normalized(a.qorder, [()] * k + [_shifted(row, m, a.qorder) for row in a.rows])


def subst_zq(p: ZPolynomial, j: int) -> ZPolynomial:
    """Substitute z -> z*q^j: the coefficient of z^d picks up a factor q^(j*d)."""
    if j < 0:
        raise ValueError("substitution power must be non-negative, got %d" % j)
    if j == 0:
        return p
    return _normalized(p.qorder, [_shifted(row, j * d, p.qorder) for d, row in enumerate(p.rows)])


def eval_z_at_qpow(p: ZPolynomial, t: int) -> QSeries:
    """Set z = q^t (t = 0 means z = 1) and collapse to a single q-series.

    The rows are summed into a list as long as the longest shifted row,
    which is padded with zeros out to the order once, at the end.
    """
    if t < 0:
        raise ValueError("evaluation power must be non-negative, got %d" % t)
    n = p.qorder
    acc = []
    for d, row in enumerate(p.rows):
        s = t * d
        if s > n:
            break
        row = row[: n + 1 - s]
        acc.extend([0] * (s + len(row) - len(acc)))
        acc[s : s + len(row)] = map(add, acc[s : s + len(row)], row)
    return QSeries(n, tuple(acc) + (0,) * (n + 1 - len(acc)))
