"""Formal Dirichlet series and the stripping route to Euler's product.

A DirichletSeries holds integer coefficients c_1 .. c_N of n^(-s); s is
never evaluated.  Multiplication is divisor convolution, under which
(1 - p^(-s)) kills every multiple of p in the zeta series.  Stripping
the smallest surviving index therefore walks through exactly the
primes, which is the point of ``euler_strip``.
"""

from dataclasses import dataclass
from itertools import compress, count
from operator import sub

# multiples of n swept per slice in ``euler_strip``: bounds its temporaries
_BLOCK = 1024


@dataclass(frozen=True)
class DirichletSeries:
    """Truncated series sum_{n=1..limit} c_n * n^(-s) with c_1 = 1."""

    limit: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError("limit must be >= 1, got %d" % self.limit)
        if len(self.coeffs) != self.limit:
            raise ValueError(
                "need %d coefficients for limit %d, got %d"
                % (self.limit, self.limit, len(self.coeffs))
            )
        if self.coeffs[0] != 1:
            raise ValueError("leading coefficient c_1 must be 1, got %s" % self.coeffs[0])

    def coefficient(self, n: int) -> int:
        """The coefficient of n^(-s); n is 1-based."""
        if not 1 <= n <= self.limit:
            raise ValueError("index %d outside limit %d" % (n, self.limit))
        return self.coeffs[n - 1]

    def __str__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            if n == 1:
                terms.append(str(c))
            elif abs(c) == 1:
                terms.append(("-" if c < 0 else "") + "%d^(-s)" % n)
            else:
                terms.append("%d*%d^(-s)" % (c, n))
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def zeta_series(limit: int) -> DirichletSeries:
    """zeta(s) truncated: every coefficient 1."""
    return DirichletSeries(limit, (1,) * limit)


def delta(limit: int) -> DirichletSeries:
    """The convolution identity: 1 at n = 1, 0 elsewhere."""
    return DirichletSeries(limit, (1,) + (0,) * (limit - 1))


def one_minus_term(n: int, limit: int) -> DirichletSeries:
    """The factor 1 - n^(-s)."""
    if n < 2:
        raise ValueError("stripping factor index must be >= 2, got %d" % n)
    coeffs = [1] + [0] * (limit - 1)
    if n <= limit:
        coeffs[n - 1] = -1
    return DirichletSeries(limit, tuple(coeffs))


def dmul(f: DirichletSeries, g: DirichletSeries) -> DirichletSeries:
    """Divisor convolution: coefficient of n^(-s) is sum_{d|n} f_d * g_{n/d}."""
    if f.limit != g.limit:
        raise ValueError("mismatched limits: %d vs %d" % (f.limit, g.limit))
    limit = f.limit
    out = [0] * limit
    for d in range(1, limit + 1):
        fd = f.coeffs[d - 1]
        if fd:
            for k in range(1, limit // d + 1):
                gk = g.coeffs[k - 1]
                if gk:
                    out[d * k - 1] += fd * gk
    return DirichletSeries(limit, tuple(out))


def euler_strip(limit: int) -> list[int]:
    """Strip zeta(s) down to 1, returning the indices stripped in order.

    Each pass finds the smallest n >= 2 with nonzero coefficient and
    multiplies by (1 - n^(-s)); the surviving indices at any point are
    those with no prime factor among the already-stripped ones, so the
    returned list is exactly the primes <= limit.

    Once n^2 > limit, stripping n only zeroes c_n: its sweep subtracts c_k
    from c_{kn}, but c_k is already 0 for 1 < k < n (k has a smaller prime
    factor, stripped before n) and kn > limit for k >= n.  So the sweeps
    stop there and the survivors above are read off in one pass.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1, got %d" % limit)
    coeffs = [1] * limit
    stripped = []
    n = 2
    while n * n <= limit:
        if coeffs[n - 1]:
            # coefficient is provably 1 here, so one multiply zeroes the class
            assert coeffs[n - 1] == 1
            stripped.append(n)
            # c_{kn} -= c_k for k <= limit/n, in blocks of k from the top down:
            # each block reads its c_k before a lower block can change them
            for hi in range(limit // n, 0, -_BLOCK):
                lo = max(hi - _BLOCK, 0)
                targets = slice((lo + 1) * n - 1, hi * n, n)
                coeffs[targets] = map(sub, coeffs[targets], coeffs[lo:hi])
        n += 1
    del coeffs[: n - 1]  # now coeffs[i] is c_{n+i}
    swept = len(stripped)
    stripped.extend(compress(count(n), coeffs))
    # each survivor's coefficient is provably 1: as many 1s as nonzero entries
    assert coeffs.count(1) == len(stripped) - swept
    return stripped
