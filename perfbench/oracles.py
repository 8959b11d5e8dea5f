"""Expected outputs for every benchmark op, computed without importing qrr.

Each oracle reaches the answer by a route independent of the toolkit:
partition counting for the Rogers-Ramanujan sum sides, the residue
classes the identities name for the stripped products, a sieve for the
zeta strip, the product side of the continued fraction for its series
head, and the necklace identity for the strip of a rational series.
"""

from bisect import bisect_right


def format_head(coeffs, terms):
    """The first ``terms`` nonzero terms of a series, as qrr prints a head.

    ``coeffs`` must reach far enough to show whether a further nonzero
    term exists; if one does the text ends in " + ...".
    """
    pieces = []
    more = False
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if len(pieces) == terms:
            more = True
            break
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "q" if mag == 1 else "%d*q" % mag
        else:
            body = "q^%d" % k if mag == 1 else "%d*q^%d" % (mag, k)
        pieces.append((c < 0, body))
    if not pieces:
        return "0"
    neg, body = pieces[0]
    text = ("-" if neg else "") + body
    for neg, body in pieces[1:]:
        text += (" - " if neg else " + ") + body
    return text + (" + ..." if more else "")


RR_RESIDUES = {"rr1": (1, 4), "rr2": (2, 3)}


def partitions_into(residues, modulus, order):
    """Number of partitions of 0..order into parts in the given classes."""
    counts = [1] + [0] * order
    for part in range(1, order + 1):
        if part % modulus in residues:
            for k in range(part, order + 1):
                counts[k] += counts[k - part]
    return counts


def rr_head(identity, order):
    """Head of an RR sum side: partitions into parts = +-1 (rr1) or +-2 (rr2) mod 5."""
    reach = min(order, 40)
    return format_head(partitions_into(RR_RESIDUES[identity], 5, reach), 5)


def rr_factors(identity, order):
    """The stripped product of an RR sum side, as qrr's JSON lists it."""
    residues = RR_RESIDUES[identity]
    return [{"e": e, "m": -1} for e in range(1, order + 1) if e % 5 in residues]


def rr_pattern(identity):
    return {"modulus": 5, "residues": list(RR_RESIDUES[identity]), "multiplicity": -1}


def cfrac_head(order):
    """Head of the RR continued fraction at z = 1, from its product side.

    The ratio of the two sum sides is (q^2;q^5)(q^3;q^5) / ((q;q^5)(q^4;q^5)).
    """
    reach = min(order, 60)
    coeffs = [1] + [0] * reach
    for e in range(1, reach + 1):
        if e % 5 in (2, 3):
            for k in range(reach, e - 1, -1):
                coeffs[k] -= coeffs[k - e]
        elif e % 5 in (1, 4):
            for k in range(e, reach + 1):
                coeffs[k] += coeffs[k - e]
    return format_head(coeffs, 8)


def convergent_agreement(steps):
    """Order through which the convergent of index ``steps`` matches the fraction."""
    return (steps + 1) * (steps + 2) // 2 - 1


class PrimeTable:
    """Primes up to a fixed limit by the sieve of Eratosthenes."""

    def __init__(self, limit):
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        self.limit = limit
        self.primes = [p for p in range(limit + 1) if sieve[p]]

    def up_to(self, limit):
        if limit > self.limit:
            raise ValueError("prime table reaches %d, asked for %d" % (self.limit, limit))
        return self.primes[: bisect_right(self.primes, limit)]


def mobius_table(order):
    """mu(0..order), with mu(0) unused."""
    mu = [1] * (order + 1)
    composite = bytearray(order + 1)
    for p in range(2, order + 1):
        if composite[p]:
            continue
        for k in range(p, order + 1, p):
            if k > p:
                composite[k] = 1
            mu[k] = -mu[k]
        for k in range(p * p, order + 1, p * p):
            mu[k] = 0
    return mu


def rational_series(c, order):
    """Coefficients of 1/P(q) for P = 1 - c[0] q - c[1] q^2 - ..., to ``order``."""
    a = [1] + [0] * order
    for k in range(1, order + 1):
        a[k] = sum(ci * a[k - i] for i, ci in enumerate(c, start=1) if i <= k)
    return a


def necklace_factors(c, order):
    """Exponent -> multiplicity of the product prod (1-q^n)^(m_n) equal to 1/P.

    With p_d the d-th power sum of the reciprocal roots of P (Newton's
    identities p_k = k c_k + sum_i c_i p_(k-i)), the multiplicities are
    m_n = -(1/n) sum_(d|n) mu(n/d) p_d.
    """
    p = [0] * (order + 1)
    for k in range(1, order + 1):
        acc = k * c[k - 1] if k <= len(c) else 0
        for i, ci in enumerate(c, start=1):
            if i < k:
                acc += ci * p[k - i]
        p[k] = acc
    mu = mobius_table(order)
    sums = [0] * (order + 1)
    for d in range(1, order + 1):
        for n in range(d, order + 1, d):
            if mu[n // d]:
                sums[n] += mu[n // d] * p[d]
    factors = {}
    for n in range(1, order + 1):
        m, rest = divmod(-sums[n], n)
        if rest:
            raise ArithmeticError("necklace sum at %d is not divisible by %d" % (n, n))
        if m:
            factors[n] = m
    return factors
