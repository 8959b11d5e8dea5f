"""Tests for polynomials in z over the truncated q-series ring."""

import pytest
from hypothesis import given, strategies as st

from qrr import fps, zpoly
from qrr.fps import QSeries
from qrr.zpoly import ZPolynomial


def ZP(qorder, terms):
    return ZPolynomial.from_terms(qorder, terms)


def zpolys(max_zdeg=3, max_qorder=8):
    def build(qorder, entries):
        terms = {}
        for d, k, c in entries:
            terms[(d, k % (qorder + 1))] = c
        return ZPolynomial.from_terms(qorder, terms)

    return st.tuples(
        st.integers(0, max_qorder),
        st.lists(
            st.tuples(st.integers(0, max_zdeg), st.integers(0, 64), st.integers(-5, 5)),
            max_size=8,
        ),
    ).map(lambda t: build(*t))


class TestConstruction:
    def test_from_zcoeffs_trims_trailing_zeros(self):
        p = ZPolynomial.from_zcoeffs(3, [fps.one(3), fps.zero(3), fps.zero(3)])
        assert p.zdegree == 0

    def test_zero_polynomial_is_empty(self):
        p = ZPolynomial.from_zcoeffs(3, [fps.zero(3)])
        assert p.is_zero() and p.zcoeffs == ()

    def test_rejects_unnormalized_leading_zero(self):
        with pytest.raises(ValueError):
            ZPolynomial(3, (fps.one(3), fps.zero(3)))

    def test_rejects_mismatched_coefficient_order(self):
        with pytest.raises(ValueError):
            ZPolynomial(3, (fps.one(4),))

    def test_zcoeff_beyond_degree_is_zero_series(self):
        p = zpoly.z_one(5)
        assert p.zcoeff(3) == fps.zero(5)


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

    def test_zshift_rejects_negative(self):
        with pytest.raises(ValueError):
            zpoly.zshift(zpoly.z_one(4), -1, 0)

    def test_rejects_mismatched_qorders(self):
        with pytest.raises(ValueError):
            zpoly.zadd(zpoly.z_one(3), zpoly.z_one(4))

    @given(st.integers(0, 6), st.data())
    def test_ring_axioms(self, qorder, data):
        terms = st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, qorder)),
            st.integers(-5, 5),
            max_size=6,
        )
        a, b, c = (ZPolynomial.from_terms(qorder, data.draw(terms)) for _ in range(3))
        zero = ZPolynomial(qorder, ())
        assert zpoly.zadd(zpoly.zadd(a, b), c) == zpoly.zadd(a, zpoly.zadd(b, c))
        assert zpoly.zadd(a, b) == zpoly.zadd(b, a)
        assert zpoly.zadd(a, zero) == a
        assert a - a == zero


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

    def test_zero(self):
        assert str(ZPolynomial(3, ())) == "0"

    def test_json_is_list_by_degree(self):
        p = ZP(2, {(0, 0): 1, (1, 1): 1})
        assert p.to_json_list() == [
            {"order": 2, "coeffs": ["1", "0", "0"]},
            {"order": 2, "coeffs": ["0", "1", "0"]},
        ]
