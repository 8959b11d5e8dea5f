"""The two Rogers-Ramanujan sum sides.

    sum_k q^(k^2) / (q;q)_k        (shift t = 0)
    sum_k q^(k^2+k) / (q;q)_k      (shift t = 1)

where (q;q)_k = (1-q)(1-q^2)...(1-q^k).  Their quotient is the
continued fraction of ``cfrac``, through the functional equation
H(z,q) = H(zq,q) + z*q*H(zq^2,q) of the bivariate sum
H(z,q) = sum_k z^k q^(k^2) / (q;q)_k.
"""

from itertools import accumulate
from math import isqrt

from .fps import QSeries


def rr_sum(t: int, order: int) -> QSeries:
    """sum_{k>=0} q^(k^2+tk) / (q;q)_k truncated at ``order``.

    Nested from the inside out, 1 + q^(1+t)/(1-q) * (1 + q^(3+t)/(1-q^2) * (1 + ...)),
    over the K levels with K^2 + tK <= order.  Level k is kept in one buffer
    at offset k(k+t), where it lands in the sum, so it only runs to order
    order - k(k+t).  Dividing it by 1-q^k is a running sum along each of
    the k residue classes mod k: k ``accumulate`` passes in all.
    """
    if t < 0:
        raise ValueError("shift must be non-negative, got %d" % t)
    out = [0] * (order + 1)  # the full order, allocated before any level runs
    for k in range((isqrt(t * t + 4 * order) - t) // 2, 0, -1):
        start = k * (k + t)
        out[start] += 1
        for j in range(start, min(start + k, order + 1)):
            out[j::k] = accumulate(out[j::k])
    out[0] += 1
    return QSeries(order, tuple(out))
