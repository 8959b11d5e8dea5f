"""Tests for polynomials in z over the truncated q-polynomials."""

import pytest
from hypothesis import example, given, strategies as st

from qrr import fps, zpoly
from qrr.fps import QSeries
from qrr.zpoly import ZPolynomial

from zpoly_oracles import (
    DenseZPolynomial,
    dense_eval_z_at_qpow,
    dense_subst_zq,
    dense_zadd,
    dense_zscale,
    dense_zshift,
    from_terms as ZP,
    to_dense,
    to_json_list,
    to_rows,
    zsub,
)


def zpolys(max_zdeg=3, max_qorder=8):
    def build(qorder, entries):
        terms = {}
        for d, k, c in entries:
            terms[(d, k % (qorder + 1))] = c
        return ZP(qorder, terms)

    return st.tuples(
        st.integers(0, max_qorder),
        st.lists(
            st.tuples(st.integers(0, max_zdeg), st.integers(0, 64), st.integers(-5, 5)),
            max_size=8,
        ),
    ).map(lambda t: build(*t))


def dense_polys(qorder, max_zdeg=4):
    """Dense polynomials whose rows reach any q-degree up to the order, with
    small coefficients so that sums cancel often; the zero polynomial included."""
    row = st.lists(st.integers(-2, 2), max_size=qorder + 1)
    return st.lists(row, max_size=max_zdeg + 1).map(
        lambda rows: DenseZPolynomial.from_zcoeffs(
            qorder, [QSeries.from_coeffs(r, qorder) for r in rows]
        )
    )


QORDERS = st.integers(0, 8)
ZERO_AT_0 = DenseZPolynomial(0, ())
ONE_AT_0 = DenseZPolynomial(0, (fps.one(0),))


class TestConstruction:
    def test_rows_are_trimmed(self):
        assert ZP(3, {(0, 0): 1, (1, 1): 2}).rows == ((1,), (0, 2))

    def test_zero_polynomial_is_empty(self):
        assert ZP(3, {(1, 2): 0}).rows == ()
        assert zpoly.zadd(zpoly.z_one(3), ZP(3, {(0, 0): -1})).rows == ()

    def test_rejects_unnormalized_leading_zero(self):
        with pytest.raises(ValueError):
            ZPolynomial(3, ((1,), ()))

    def test_rejects_untrimmed_row(self):
        with pytest.raises(ValueError):
            ZPolynomial(3, ((1, 0),))

    def test_rejects_row_beyond_qorder(self):
        with pytest.raises(ValueError):
            ZPolynomial(3, ((1, 0, 0, 0, 1),))

    def test_inner_zero_row_is_empty(self):
        assert ZP(4, {(0, 0): 1, (2, 4): 1}).rows == ((1,), (), (0, 0, 0, 0, 1))


class TestSubstZq:
    def test_z_to_zq_on_linear_poly(self):
        # 1 + zq with z -> zq gives 1 + zq^2
        assert zpoly.subst_zq(ZP(4, {(0, 0): 1, (1, 1): 1}), 1) == ZP(4, {(0, 0): 1, (1, 2): 1})

    def test_identity_substitution(self):
        p = ZP(6, {(0, 0): 1, (1, 1): 1, (2, 3): -2})
        assert zpoly.subst_zq(p, 0) == p

    def test_z_to_zq_shifts_each_degree(self):
        got = zpoly.subst_zq(ZP(5, {(0, 0): 1, (1, 1): 1, (1, 2): 1}), 1)
        assert got == ZP(5, {(0, 0): 1, (1, 2): 1, (1, 3): 1})

    def test_truncation_drops_rows_past_the_order(self):
        got = zpoly.subst_zq(ZP(3, {(0, 0): 1, (1, 1): 1, (2, 0): 1}), 2)
        assert got == ZP(3, {(0, 0): 1, (1, 3): 1})

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            zpoly.subst_zq(zpoly.z_one(3), -1)

    @given(zpolys(), st.integers(0, 8), st.integers(0, 8))
    def test_composition(self, p, i, j):
        if i + j <= 8:
            assert zpoly.subst_zq(zpoly.subst_zq(p, i), j) == zpoly.subst_zq(p, i + j)


class TestArithmetic:
    def test_recurrence_step_builds_h2(self):
        h0 = zpoly.z_one(5)
        h1 = ZP(5, {(0, 0): 1, (1, 1): 1})
        h2 = zpoly.zadd(zpoly.subst_zq(h1, 1), zpoly.zshift(h0, 1, 1))
        assert h2 == ZP(5, {(0, 0): 1, (1, 1): 1, (1, 2): 1})

    def test_zshift_makes_zq(self):
        assert zpoly.zshift(zpoly.z_one(4), 1, 1) == ZP(4, {(1, 1): 1})

    def test_zshift_past_the_order_is_zero(self):
        assert zpoly.zshift(ZP(4, {(0, 1): 1, (2, 3): 1}), 2, 4).rows == ()

    def test_zshift_rejects_negative(self):
        with pytest.raises(ValueError):
            zpoly.zshift(zpoly.z_one(4), -1, 0)

    def test_rejects_mismatched_qorders(self):
        with pytest.raises(ValueError):
            zpoly.zadd(zpoly.z_one(3), zpoly.z_one(4))

    def test_cancelling_top_rows_are_dropped(self):
        a = ZP(6, {(0, 0): 1, (1, 2): 1, (2, 5): 3, (2, 1): 1})
        b = ZP(6, {(1, 4): 2, (2, 5): -3, (2, 1): -1})
        assert zpoly.zadd(a, b) == ZP(6, {(0, 0): 1, (1, 2): 1, (1, 4): 2})

    @given(st.integers(0, 6), st.data())
    def test_ring_axioms(self, qorder, data):
        terms = st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, qorder)),
            st.integers(-5, 5),
            max_size=6,
        )
        a, b, c = (ZP(qorder, data.draw(terms)) for _ in range(3))
        zero = ZPolynomial(qorder, ())
        assert zpoly.zadd(zpoly.zadd(a, b), c) == zpoly.zadd(a, zpoly.zadd(b, c))
        assert zpoly.zadd(a, b) == zpoly.zadd(b, a)
        assert zpoly.zadd(a, zero) == a
        assert zsub(a, a) == zero


class TestEval:
    def test_at_z_equals_one(self):
        assert zpoly.eval_z_at_qpow(ZP(3, {(0, 0): 1, (1, 1): 1}), 0) == QSeries.from_coeffs(
            [1, 1], order=3
        )

    def test_at_z_equals_q(self):
        assert zpoly.eval_z_at_qpow(ZP(3, {(0, 0): 1, (1, 1): 1}), 1) == QSeries.from_coeffs(
            [1, 0, 1], order=3
        )

    def test_constant_ignores_power(self):
        assert zpoly.eval_z_at_qpow(zpoly.z_one(6), 5) == fps.one(6)

    def test_zero_pads_to_the_order(self):
        assert zpoly.eval_z_at_qpow(ZPolynomial(4, ()), 1) == fps.zero(4)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            zpoly.eval_z_at_qpow(zpoly.z_one(3), -1)

    @given(zpolys(), st.integers(0, 4), st.integers(0, 4))
    def test_eval_subst_coherence(self, p, t, j):
        lhs = zpoly.eval_z_at_qpow(zpoly.subst_zq(p, j), t)
        rhs = zpoly.eval_z_at_qpow(p, t + j)
        assert lhs == rhs


class TestRendering:
    def test_compact_text_rendering(self):
        h3 = ZP(10, {(0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 4): 1})
        assert str(h3) == "1+zq+zq^2+zq^3+z^2q^4"

    def test_coefficients_and_signs(self):
        p = ZP(5, {(0, 0): 1, (1, 0): -2, (2, 3): 3})
        assert str(p) == "1-2z+3z^2q^3"

    def test_leading_minus(self):
        assert str(ZP(5, {(0, 2): -1, (3, 0): 4})) == "-q^2+4z^3"

    def test_zero(self):
        assert str(ZPolynomial(3, ())) == "0"

    def test_json_is_list_by_degree(self):
        p = ZP(2, {(0, 0): 1, (1, 1): 1})
        assert to_json_list(p) == [
            {"order": 2, "coeffs": ["1", "0", "0"]},
            {"order": 2, "coeffs": ["0", "1", "0"]},
        ]


class TestAgainstDense:
    """Rows against the dense oracle.  Shifts reach past the order, where
    truncation bites, and the operands include the zero polynomial, qorder 0
    and sums whose top rows cancel."""

    @given(QORDERS.flatmap(dense_polys))
    @example(ZERO_AT_0)
    @example(ONE_AT_0)
    def test_round_trip(self, p):
        assert to_dense(to_rows(p)) == p

    @given(QORDERS.flatmap(dense_polys), st.integers(0, 11))
    @example(ZERO_AT_0, 1)
    @example(ONE_AT_0, 1)
    def test_subst_zq(self, p, j):
        assert zpoly.subst_zq(to_rows(p), j) == to_rows(dense_subst_zq(p, j))

    @given(QORDERS.flatmap(dense_polys), st.integers(0, 3), st.integers(0, 11))
    @example(ZERO_AT_0, 2, 0)
    @example(ONE_AT_0, 1, 1)
    def test_zshift(self, p, k, m):
        assert zpoly.zshift(to_rows(p), k, m) == to_rows(dense_zshift(p, k, m))

    @given(QORDERS.flatmap(lambda n: st.tuples(dense_polys(n), dense_polys(n))))
    @example((ZERO_AT_0, ZERO_AT_0))
    @example((ONE_AT_0, ZERO_AT_0))
    def test_zadd(self, pair):
        a, b = pair
        assert zpoly.zadd(to_rows(a), to_rows(b)) == to_rows(dense_zadd(a, b))

    @given(QORDERS.flatmap(lambda n: st.tuples(dense_polys(n), dense_polys(n, max_zdeg=2))))
    @example((ONE_AT_0, ZERO_AT_0))
    def test_zadd_with_cancelling_top_rows(self, pair):
        # b = c - a, so a + b = c: every row of a above c's degree cancels
        a, c = pair
        b = dense_zadd(c, dense_zscale(a, -1))
        assert zpoly.zadd(to_rows(a), to_rows(b)) == to_rows(c)

    @given(QORDERS.flatmap(dense_polys), st.integers(0, 11))
    @example(ZERO_AT_0, 0)
    @example(ONE_AT_0, 3)
    def test_eval_z_at_qpow(self, p, t):
        assert zpoly.eval_z_at_qpow(to_rows(p), t) == dense_eval_z_at_qpow(p, t)

    @given(QORDERS.flatmap(dense_polys))
    @example(ZERO_AT_0)
    @example(ONE_AT_0)
    def test_str(self, p):
        assert str(to_rows(p)) == str(p)
