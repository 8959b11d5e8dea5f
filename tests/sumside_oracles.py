"""Plain constructions of the sum sides, used only as test oracles.

``rr_sum_termwise`` is the term-by-term loop that ``sumside.rr_sum``
replaced with a nested evaluation, and ``cfrac_sum_ratio`` the division of
the two sums that ``cfrac.cfrac_series`` replaced with a theta quotient;
the rest build the Pochhammer factors, the bivariate sum H(z,q) and its
functional equation literally.
"""

from qrr import fps, sumside, zpoly

from zpoly_oracles import DenseZPolynomial, to_rows, zsub


def qrfac(k, order):
    """The q-Pochhammer factor (q;q)_k = (1-q)(1-q^2)...(1-q^k), truncated."""
    if k < 0:
        raise ValueError("Pochhammer index must be non-negative, got %d" % k)
    acc = fps.one(order)
    for j in range(1, k + 1):
        acc = fps.mul_one_minus_qpow(acc, j)
    return acc


def rr_sum_termwise(t, order):
    """sum_k q^(k^2+tk) / (q;q)_k, each term from the previous one times
    q^(2k-1+t) / (1-q^k), every term at the full order."""
    total = fps.one(order)
    term = fps.one(order)
    k = 1
    while k * k + t * k <= order:
        term = fps.shift(fps.div_one_minus_qpow(term, k), 2 * k - 1 + t)
        total = total + term
        k += 1
    return total


def cfrac_sum_ratio(order):
    """The continued fraction at z = 1 as the ratio rr_sum(0) / rr_sum(1) of the sums."""
    return fps.mul(sumside.rr_sum(0, order), fps.invert(sumside.rr_sum(1, order)))


def coeff_recurrence_check(kmax, order):
    """Check a_k * (1 - q^k) = q^(2k-1) * a_{k-1} for 1 <= k <= kmax.

    Here a_k = q^(k^2) / (q;q)_k, built literally from ``qrfac`` and
    ``invert``; the identity is what forces the closed form of the
    coefficients once a_0 = 1 is fixed.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1, got %d" % kmax)
    prev = fps.one(order)  # a_0
    for k in range(1, kmax + 1):
        a_k = fps.shift(fps.invert(qrfac(k, order)), k * k)
        if fps.mul_one_minus_qpow(a_k, k) != fps.shift(prev, 2 * k - 1):
            return False
        prev = a_k
    return True


def h_bivariate(kmax, order):
    """sum_{k=0..kmax} z^k * q^(k^2) / (q;q)_k as a ZPolynomial of trimmed rows."""
    if kmax < 0:
        raise ValueError("z-degree cap must be non-negative, got %d" % kmax)
    inv_poch = fps.one(order)  # 1/(q;q)_k, updated per k
    coeffs = [fps.one(order)]
    for k in range(1, kmax + 1):
        inv_poch = fps.div_one_minus_qpow(inv_poch, k)
        coeffs.append(fps.shift(inv_poch, k * k))
    return to_rows(DenseZPolynomial.from_zcoeffs(order, coeffs))


def functional_equation_residual(kmax, order):
    """H(z,q) - H(zq,q) - z*q*H(zq^2,q) for H truncated at z-degree kmax.

    Away from the truncation boundary (z-degrees < kmax, q-orders within
    range) every coefficient of the residual is zero.
    """
    h = h_bivariate(kmax, order)
    rhs = zpoly.zadd(zpoly.subst_zq(h, 1), zpoly.zshift(zpoly.subst_zq(h, 2), 1, 1))
    return zsub(h, rhs)
