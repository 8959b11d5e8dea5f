"""The fast fps kernels against plain oracles.

``fps.mul`` packs both operands into big integers (Kronecker substitution)
and ``fps.invert`` is Newton iteration on it; the binomial branch of
``fps.pow_one_minus_qpow`` adds shifted multiples of its input.  The
single-factor passes, ``linear_combine`` and the ``is_one``/``is_zero``
tests run as slice and ``map`` arithmetic.  Each is checked here against
the simplest code that computes the same thing.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qrr import fps
from qrr.fps import QSeries


def schoolbook_mul(a, b):
    """The truncated Cauchy product as a double loop."""
    n = a.order
    out = [0] * (n + 1)
    for i, x in enumerate(a.coeffs):
        for j in range(n + 1 - i):
            out[i + j] += x * b.coeffs[j]
    return QSeries(n, tuple(out))


def recurrence_invert(a):
    """1/a by the triangular recurrence b_k = -a_0 * sum_{i>=1} a_i b_{k-i}."""
    a0 = a.coeffs[0]
    b = [a0]
    for k in range(1, a.order + 1):
        b.append(-a0 * sum(a.coeffs[i] * b[k - i] for i in range(1, k + 1)))
    return QSeries(a.order, tuple(b))


def scalar_mul_one_minus_qpow(a, e):
    cs = a.coeffs
    return QSeries(a.order, tuple(c - cs[k - e] if k >= e else c for k, c in enumerate(cs)))


def scalar_div_one_minus_qpow(a, e):
    out = list(a.coeffs)
    for k in range(e, a.order + 1):
        out[k] += out[k - e]
    return QSeries(a.order, tuple(out))


def scalar_linear_combine(a, b, ca, cb):
    return QSeries(a.order, tuple(ca * x + cb * y for x, y in zip(a.coeffs, b.coeffs)))


def scalar_is_zero(a):
    return all(c == 0 for c in a.coeffs)


def scalar_is_one(a):
    return a.coeffs[0] == 1 and all(c == 0 for c in a.coeffs[1:])


def series(order, coeffs):
    return st.lists(coeffs, min_size=order + 1, max_size=order + 1).map(
        lambda cs: QSeries(order, tuple(cs))
    )


BIG = st.integers(-(10**40), 10**40)
NEGATIVE = st.integers(-(10**35), -1)


def near_powers_of_two(kmax):
    """0, ±1 and ±(2^k - 1), ±2^k, ±(2^k + 1): products of these sit close
    to a power of two, so slots fill to their top and borrows chain."""
    edge = st.builds(
        lambda k, d, s: s * ((1 << k) + d),
        st.integers(1, kmax),
        st.sampled_from((-1, 0, 1)),
        st.sampled_from((-1, 1)),
    )
    return st.one_of(st.sampled_from((0, 1, -1)), edge)


def edge_exponents(order):
    """1, 2, floor(sqrt N), floor(sqrt N) + 1, N, N + 1 and one well past N."""
    r = math.isqrt(order)
    return sorted({e for e in (1, 2, r, r + 1, order, order + 1, order + 9) if e >= 1})


def random_series(rng, order, bound=10**40):
    return QSeries(order, tuple(rng.randint(-bound, bound) for _ in range(order + 1)))


class TestSingleFactorPassesAgainstScalarLoops:
    @pytest.mark.parametrize("order", range(71))
    def test_every_exponent_at_every_order(self, order):
        # e from 1 to N + 2 covers every block count, and every length of
        # the last block from 1 to e
        a = random_series(random.Random(order), order)
        for e in range(1, order + 3):
            assert fps.div_one_minus_qpow(a, e) == scalar_div_one_minus_qpow(a, e), e
            assert fps.mul_one_minus_qpow(a, e) == scalar_mul_one_minus_qpow(a, e), e

    @pytest.mark.parametrize("order, e", [(10, 3), (70, 8), (68, 7), (70, 36)])
    def test_last_block_shorter_than_e(self, order, e):
        assert (order + 1) % e
        a = random_series(random.Random(e), order)
        assert fps.div_one_minus_qpow(a, e) == scalar_div_one_minus_qpow(a, e)

    @settings(deadline=None)
    @given(st.integers(0, 70), st.data())
    def test_edge_exponents_with_big_signed_coefficients(self, order, data):
        a = data.draw(series(order, BIG))
        e = data.draw(st.sampled_from(edge_exponents(order)))
        assert fps.div_one_minus_qpow(a, e) == scalar_div_one_minus_qpow(a, e)
        assert fps.mul_one_minus_qpow(a, e) == scalar_mul_one_minus_qpow(a, e)


NON_UNIT = BIG.filter(lambda k: k not in (-1, 0, 1))


class TestLinearCombineAgainstScalarLoop:
    @settings(deadline=None)
    @given(st.integers(0, 70), st.data())
    def test_unit_zero_and_general_coefficients(self, order, data):
        a, b = data.draw(series(order, BIG)), data.draw(series(order, BIG))
        k, j = data.draw(NON_UNIT), data.draw(NON_UNIT)
        for ca in (1, -1, 0, k):
            for cb in (1, -1, 0, j):
                want = scalar_linear_combine(a, b, ca, cb)
                assert fps.linear_combine(a, b, ca, cb) == want, (ca, cb)


class TestUnitAndZeroTestsAgainstScalarLoops:
    @pytest.mark.parametrize("order", [0, 1, 2, 7, 70])
    def test_one_coefficient_off_zero_or_one(self, order):
        for base in (fps.zero(order), fps.one(order)):
            cases = [base]
            for k in range(order + 1):
                for c in (1, -1, 2, 10**40, -(10**40)):
                    cs = list(base.coeffs)
                    cs[k] += c
                    cases.append(QSeries(order, tuple(cs)))
            for a in cases:
                assert a.is_zero() == scalar_is_zero(a), a
                assert a.is_one() == scalar_is_one(a), a

    @given(st.integers(0, 70), st.data())
    def test_sparse_series(self, order, data):
        terms = data.draw(st.lists(st.tuples(st.integers(0, order), BIG), max_size=3))
        a = fps.from_support(order, terms)
        b = fps.one(order) + a
        for s in (a, b):
            assert s.is_zero() == scalar_is_zero(s)
            assert s.is_one() == scalar_is_one(s)


class TestMulAgainstSchoolbook:
    @settings(deadline=None)
    @given(st.integers(0, 40), st.data())
    def test_big_signed_coefficients(self, order, data):
        a, b = data.draw(series(order, BIG)), data.draw(series(order, BIG))
        assert fps.mul(a, b) == schoolbook_mul(a, b)

    @settings(deadline=None)
    @given(st.integers(0, 40), st.data())
    def test_all_negative_operands(self, order, data):
        a, b = data.draw(series(order, NEGATIVE)), data.draw(series(order, NEGATIVE))
        assert fps.mul(a, b) == schoolbook_mul(a, b)
        c = data.draw(series(order, st.integers(0, 10**35)))
        assert fps.mul(a, c) == schoolbook_mul(a, c)

    @settings(deadline=None)
    @given(st.integers(0, 40), st.data())
    def test_coefficients_near_slot_boundaries(self, order, data):
        a = data.draw(series(order, near_powers_of_two(70)))
        b = data.draw(series(order, near_powers_of_two(70)))
        assert fps.mul(a, b) == schoolbook_mul(a, b)

    @pytest.mark.parametrize("k", [7, 8, 9, 15, 16, 17, 63, 64, 65])
    @pytest.mark.parametrize("order", [0, 1, 2, 7, 8, 254, 255])
    def test_extreme_coefficients_fill_every_slot(self, k, order):
        # every product coefficient is as large as the operand bounds allow,
        # alternately positive and negative or all of one sign
        top = (1 << k) - 1
        plus = QSeries(order, (top,) * (order + 1))
        minus = QSeries(order, (-top,) * (order + 1))
        alternating = QSeries(order, tuple(top if i % 2 else -top for i in range(order + 1)))
        for a in (plus, minus, alternating):
            for b in (plus, minus, alternating):
                assert fps.mul(a, b) == schoolbook_mul(a, b)

    def test_order_zero(self):
        for x in (0, 1, -1, 2**64, -(2**64) + 1):
            for y in (0, 1, -1, 3**50, -(3**50)):
                assert fps.mul(QSeries(0, (x,)), QSeries(0, (y,))) == QSeries(0, (x * y,))

    @given(series(30, BIG))
    def test_zero_operand(self, a):
        assert fps.mul(a, fps.zero(30)) == fps.zero(30)
        assert fps.mul(fps.zero(30), a) == fps.zero(30)

    @settings(deadline=None)
    @given(st.integers(1, 60), st.data())
    def test_sparse_polynomial_times_dense_series(self, order, data):
        terms = data.draw(st.lists(st.tuples(st.integers(0, order), BIG), max_size=4))
        sparse = fps.from_support(order, terms)
        dense = data.draw(series(order, BIG))
        assert fps.mul(sparse, dense) == schoolbook_mul(sparse, dense)
        assert fps.mul(dense, sparse) == schoolbook_mul(sparse, dense)


class TestInvertAgainstRecurrence:
    # Newton's precision runs 1, 2, 4, ..., 64, so these orders end a step
    # exactly, one coefficient short of it, or one past it
    @settings(deadline=None, max_examples=25)
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 63, 64, 65])
    @given(unit=st.sampled_from((1, -1)), data=st.data())
    def test_doubling_boundaries(self, order, unit, data):
        rest = data.draw(st.lists(BIG, min_size=order, max_size=order))
        a = QSeries(order, (unit,) + tuple(rest))
        assert fps.invert(a) == recurrence_invert(a)

    @settings(deadline=None)
    @given(st.integers(0, 70), st.sampled_from((1, -1)), st.data())
    def test_small_coefficients(self, order, unit, data):
        rest = data.draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
        a = QSeries(order, (unit,) + tuple(rest))
        assert fps.invert(a) == recurrence_invert(a)


class TestBinomialBranch:
    @settings(deadline=None)
    @given(
        st.integers(0, 40),
        st.integers(5, 64),
        st.sampled_from((1, -1)),
        st.data(),
    )
    def test_matches_repeated_single_factor_passes(self, order, size, sign, data):
        a = data.draw(series(order, BIG))
        e = data.draw(st.integers(1, max(order, 1)))  # e > order/2 leaves one term
        m = sign * size
        want = a
        step = fps.mul_one_minus_qpow if m > 0 else fps.div_one_minus_qpow
        for _ in range(size):
            want = step(want, e)
        assert fps.pow_one_minus_qpow(a, e, m) == want
