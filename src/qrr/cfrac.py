"""Convergents of the golden-mean and Rogers-Ramanujan continued fractions.

The numeric fraction 1 + 1/(1 + 1/(1 + ...)) is handled with exact
rationals: its convergents w_n obey w_n = 1 + 1/w_{n-1} and are ratios
of consecutive Fibonacci numbers.  The symbolic q-analogue with partial
numerators zq, zq^2, zq^3, ... is handled through its convergent
numerators H_n(z,q), which satisfy

    H_n(z,q) = H_{n-1}(zq,q) + z*q*H_{n-2}(zq^2,q),   H_{-1} = H_0 = 1,

with the n-th convergent equal to H_n(z,q) / H_{n-1}(zq,q).  Each H_n is
kept as rows of ints trimmed to its true q-degree (see ``zpoly``).  The full
fraction at z = 1 is G(q)/H(q), the quotient of the two Rogers-Ramanujan
sums, which by both identities is the theta quotient
(q^2, q^3, q^5; q^5)_inf / (q, q^4, q^5; q^5)_inf.
"""

import math
from fractions import Fraction

from . import fps, prodmake, zpoly
from .fps import QSeries
from .zpoly import ZPolynomial

GOLDEN_MEAN = (1 + math.sqrt(5)) / 2


def fibonacci(n: int) -> int:
    """F_n with the seeding F_0 = F_1 = 1."""
    if n < 0:
        raise ValueError("index must be non-negative, got %d" % n)
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def golden_convergent(n: int) -> Fraction:
    """w_n with w_1 = 1 and w_n = 1 + 1/w_{n-1}, in lowest terms."""
    if n < 1:
        raise ValueError("convergent index must be >= 1, got %d" % n)
    w = Fraction(1)
    for _ in range(n - 1):
        w = 1 + 1 / w
    return w


def golden_error(n: int) -> float:
    """|w_n - golden mean| in floating point; diagnostic only, the single
    inexact computation in this package."""
    return abs(float(golden_convergent(n)) - GOLDEN_MEAN)


def golden_table(nmax: int) -> list[tuple[int, int, int, float]]:
    """Rows (n, numerator, denominator, decimal value) for n = 1..nmax."""
    rows = []
    for n in range(1, nmax + 1):
        w = golden_convergent(n)
        rows.append((n, w.numerator, w.denominator, float(w)))
    return rows


def rr_numerators(n: int, order: int) -> list[ZPolynomial]:
    """The convergent numerators H_0 .. H_n at the given q-order."""
    if n < 0:
        raise ValueError("index must be non-negative, got %d" % n)
    out = [None] * (n + 1)  # every slot, allocated before the first step
    out[0] = zpoly.z_one(order)  # H_0, which equals H_{-1}
    for i in range(1, n + 1):
        out[i] = zpoly.zadd(
            zpoly.subst_zq(out[i - 1], 1),
            zpoly.zshift(zpoly.subst_zq(out[max(i - 2, 0)], 2), 1, 1),
        )
    return out


def rr_convergent(hs: list[ZPolynomial], n: int) -> tuple[ZPolynomial, ZPolynomial]:
    """(numerator, denominator) of the n-th convergent: (H_n, H_{n-1}(zq,q)).

    ``hs`` is the list H_0 .. H_m from ``rr_numerators(m, order)``, m >= n.
    """
    if not 1 <= n < len(hs):
        raise ValueError("convergent index must be in 1..%d, got %d" % (len(hs) - 1, n))
    return hs[n], zpoly.subst_zq(hs[n - 1], 1)


def rr_convergent_series(hs: list[ZPolynomial], n: int) -> QSeries:
    """The n-th convergent at z = 1 as a q-series: H_n(1,q) / H_{n-1}(q,q)."""
    num, den = rr_convergent(hs, n)
    num_series = zpoly.eval_z_at_qpow(num, 0)
    den_series = zpoly.eval_z_at_qpow(den, 0)
    return fps.mul(num_series, fps.invert(den_series))


def cfrac_series(order: int) -> QSeries:
    """The full fraction at z = 1 as a q-series: the ratio G(q)/H(q) of the
    two sums, which is (q^2, q^3, q^5; q^5)_inf / (q, q^4, q^5; q^5)_inf
    (Andrews, *The Theory of Partitions*, ch. 2 and 7), one sparse division."""
    return prodmake.theta_quotient(
        prodmake.triple_product(5, 2, order), prodmake.triple_product(5, 1, order), order
    )
