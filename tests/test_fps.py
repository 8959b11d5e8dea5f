"""Tests for the truncated formal power series ring."""

import pytest
from hypothesis import given, settings, strategies as st

from qrr import fps
from qrr.fps import QSeries


def S(*coeffs, order=None):
    return QSeries.from_coeffs(coeffs, order=order)


def qseries(max_order=32, coeffs=st.integers(-9, 9)):
    return st.integers(0, max_order).flatmap(
        lambda n: st.lists(coeffs, min_size=n + 1, max_size=n + 1).map(
            lambda cs: QSeries(n, tuple(cs))
        )
    )


def unit_qseries(max_order=32):
    return st.tuples(
        st.sampled_from((1, -1)),
        qseries(max_order=max_order),
    ).map(lambda t: QSeries(t[1].order, (t[0],) + t[1].coeffs[1:]))


class TestConstruction:
    def test_coeff_count_must_match_order(self):
        with pytest.raises(ValueError):
            QSeries(3, (1, 2))
        with pytest.raises(ValueError):
            QSeries(-1, ())

    def test_from_coeffs_pads(self):
        assert S(1, 2, order=4) == QSeries(4, (1, 2, 0, 0, 0))

    def test_from_coeffs_rejects_overflow(self):
        with pytest.raises(ValueError):
            QSeries.from_coeffs([1, 2, 3], order=1)

    def test_equality_requires_same_order(self):
        assert S(1, order=2) != S(1, order=3)


class TestGeometric:
    def test_full_density(self):
        assert fps.geometric(1, 4) == S(1, 1, 1, 1, 1)

    def test_step_exceeding_order_gives_one(self):
        assert fps.geometric(3, 2) == fps.one(2)

    def test_step_two(self):
        assert fps.geometric(2, 6) == S(1, 0, 1, 0, 1, 0, 1)

    def test_rejects_zero_step(self):
        # the factor 1 - q^0 = 0 has no reciprocal
        with pytest.raises(ValueError):
            fps.geometric(0, 5)

    def test_matches_inverse_of_binomial_exhaustively(self):
        for order in range(1, 65):
            for m in range(1, order + 1):
                binomial = fps.linear_combine(
                    fps.one(order), fps.monomial(order, m), 1, -1
                )
                assert fps.geometric(m, order) == fps.invert(binomial), (m, order)


class TestLinearCombine:
    def test_cancellation(self):
        x = S(3, -1, 4, 1)
        assert fps.linear_combine(x, x, 1, -1) == fps.zero(3)

    def test_geometric_difference(self):
        got = fps.linear_combine(fps.geometric(1, 3), fps.geometric(2, 3), 1, -1)
        assert got == S(0, 1, 0, 1)  # q + q^3

    def test_scaling(self):
        s = S(2, 0, -7, 1)
        assert fps.linear_combine(s, fps.zero(3), 5, 0) == S(10, 0, -35, 5)

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError):
            fps.linear_combine(fps.one(3), fps.one(4), 1, 1)


class TestMul:
    def test_binomial_times_geometric_telescopes(self):
        assert fps.mul(S(1, -1, order=10), fps.geometric(1, 10)) == fps.one(10)

    def test_binomial_square(self):
        a = S(1, 1, order=2)
        assert fps.mul(a, a) == S(1, 2, 1)

    def test_partial_sums_of_rr_sum_side(self):
        # 1 + q/(1-q) + q^4/((1-q)(1-q^2)) expanded through order 4
        order = 4
        term1 = fps.shift(fps.geometric(1, order), 1)
        term2 = fps.shift(
            fps.mul(fps.geometric(1, order), fps.geometric(2, order)), 4
        )
        total = fps.one(order) + term1 + term2
        assert total == S(1, 1, 1, 1, 2)

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError):
            fps.mul(fps.one(3), fps.one(4))


class TestInvert:
    def test_inverts_one_minus_q(self):
        for order in (1, 7, 30, 64):
            assert fps.invert(S(1, -1, order=order)) == fps.geometric(1, order)

    def test_identity(self):
        assert fps.invert(fps.one(6)) == fps.one(6)

    def test_fibonacci_generating_function(self):
        # independent oracle: iterate F_k = F_{k-1} + F_{k-2} from F_0 = F_1 = 1
        expected = [1, 1]
        while len(expected) < 8:
            expected.append(expected[-1] + expected[-2])
        got = fps.invert(S(1, -1, -1, order=7))
        assert list(got.coeffs) == expected
        assert fps.coefficient(got, 7) == 21

    def test_negative_unit_constant(self):
        a = S(-1, 3, 2, order=5)
        assert fps.mul(a, fps.invert(a)) == fps.one(5)

    def test_rejects_non_unit_constant(self):
        with pytest.raises(ValueError, match="non-unit constant term"):
            fps.invert(S(2, 1, order=3))
        with pytest.raises(ValueError, match="non-unit constant term"):
            fps.invert(fps.zero(3))


class TestCoefficient:
    def test_reads_exact_value(self):
        assert fps.coefficient(fps.geometric(2, 6), 4) == 1

    def test_rejects_out_of_range(self):
        s = fps.geometric(2, 6)
        with pytest.raises(ValueError):
            fps.coefficient(s, 7)
        with pytest.raises(ValueError):
            fps.coefficient(s, -1)

    def test_getitem_alias(self):
        assert fps.geometric(2, 6)[4] == 1


class TestRingProperties:
    @given(st.integers(0, 32), st.data())
    def test_mul_commutative(self, order, data):
        cs = st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1)
        a, b = (QSeries(order, tuple(data.draw(cs))) for _ in range(2))
        assert fps.mul(a, b) == fps.mul(b, a)

    @given(st.integers(0, 16), st.data())
    def test_mul_associative(self, order, data):
        cs = st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1)
        a, b, c = (QSeries(order, tuple(data.draw(cs))) for _ in range(3))
        assert fps.mul(fps.mul(a, b), c) == fps.mul(a, fps.mul(b, c))

    @given(st.integers(0, 16), st.integers(-9, 9), st.integers(-9, 9), st.data())
    def test_linear_combine_distributes_over_mul(self, order, ca, cb, data):
        cs = st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1)
        a, b, c = (QSeries(order, tuple(data.draw(cs))) for _ in range(3))
        lhs = fps.mul(fps.linear_combine(a, b, ca, cb), c)
        rhs = fps.linear_combine(fps.mul(a, c), fps.mul(b, c), ca, cb)
        assert lhs == rhs

    @settings(deadline=None)
    @given(unit_qseries())
    def test_mul_invert_is_one(self, a):
        assert fps.mul(a, fps.invert(a)) == fps.one(a.order)


class TestTruncationConsistency:
    @given(st.integers(0, 24), st.integers(0, 24), st.data())
    def test_mul_and_linear_combine(self, m, extra, data):
        order = m + extra
        cs = st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1)
        a, b = (QSeries(order, tuple(data.draw(cs))) for _ in range(2))
        assert fps.truncate(fps.mul(a, b), m) == fps.mul(fps.truncate(a, m), fps.truncate(b, m))
        assert fps.truncate(a + b, m) == fps.truncate(a, m) + fps.truncate(b, m)

    @given(st.integers(0, 24), st.integers(0, 24), st.data())
    def test_invert(self, m, extra, data):
        order = m + extra
        cs = st.lists(st.integers(-9, 9), min_size=order, max_size=order)
        a = QSeries(order, (1,) + tuple(data.draw(cs)))
        assert fps.truncate(fps.invert(a), m) == fps.invert(fps.truncate(a, m))

    def test_geometric(self):
        for m in (1, 2, 5):
            assert fps.truncate(fps.geometric(m, 40), 11) == fps.geometric(m, 11)

    def test_truncate_rejects_growth(self):
        with pytest.raises(ValueError):
            fps.truncate(fps.one(3), 4)


class TestFiniteGeometricSum:
    def test_telescoping_product(self):
        # (1 + q + ... + q^(n-1)) * (1 - q) == 1 - q^n, exactly
        order = 60
        for n in range(1, 51):
            s_n = fps.from_support(order, [(i, 1) for i in range(n)])
            lhs = fps.mul_one_minus_qpow(s_n, 1)
            rhs = fps.from_support(order, [(0, 1), (n, -1)])
            assert lhs == rhs, n


class TestSparseHelpers:
    @given(qseries(max_order=24), st.integers(1, 10))
    def test_mul_one_minus_qpow_matches_mul(self, a, e):
        binomial = fps.linear_combine(
            fps.one(a.order), fps.monomial(a.order, e) if e <= a.order else fps.zero(a.order), 1, -1
        )
        assert fps.mul_one_minus_qpow(a, e) == fps.mul(a, binomial)

    @given(qseries(max_order=24), st.integers(1, 10))
    def test_div_one_minus_qpow_matches_geometric_mul(self, a, e):
        assert fps.div_one_minus_qpow(a, e) == fps.mul(a, fps.geometric(e, a.order))

    @given(qseries(max_order=24), st.integers(1, 8), st.integers(-40, 40))
    def test_pow_one_minus_qpow_round_trip(self, a, e, m):
        there = fps.pow_one_minus_qpow(a, e, m)
        back = fps.pow_one_minus_qpow(there, e, -m)
        assert back == a

    @given(qseries(max_order=20), st.integers(1, 6), st.integers(-30, 30))
    def test_pow_one_minus_qpow_matches_repeated_passes(self, a, e, m):
        # the binomial expansion must agree with |m| single-factor passes
        want = a
        step = fps.mul_one_minus_qpow if m >= 0 else fps.div_one_minus_qpow
        for _ in range(abs(m)):
            want = step(want, e)
        assert fps.pow_one_minus_qpow(a, e, m) == want

    @given(qseries(max_order=24), st.integers(0, 30))
    def test_shift_matches_monomial_mul(self, a, j):
        if j <= a.order:
            assert fps.shift(a, j) == fps.mul(a, fps.monomial(a.order, j))
        else:
            assert fps.shift(a, j) == fps.zero(a.order)


class TestDunders:
    def test_scalar_mul(self):
        assert 3 * S(1, -2) == S(3, -6)

    def test_neg_and_sub(self):
        a, b = S(1, 2, order=3), S(0, 5, 1, order=3)
        assert a - b == fps.linear_combine(a, b, 1, -1)
        assert -a == fps.linear_combine(fps.zero(3), a, 0, -1)


class TestRendering:
    def test_text_omits_zero_terms(self):
        assert str(S(1, 0, 2, 0, 1)) == "1 + 2*q^2 + q^4"

    def test_text_signs(self):
        assert str(S(1, -2, 0, 3)) == "1 - 2*q + 3*q^3"
        assert str(S(0, -1, order=2)) == "-q"
        assert str(fps.zero(4)) == "0"

    def test_head_str(self):
        assert fps.head_str(fps.geometric(1, 10), 3) == "1 + q + q^2 + ..."
        assert fps.head_str(fps.one(10)) == "1"

    def test_json_uses_decimal_strings(self):
        big = 10**30
        s = QSeries(2, (1, -big, 0))
        assert s.to_json_dict() == {"order": 2, "coeffs": ["1", str(-big), "0"]}
