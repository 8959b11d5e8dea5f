"""Tests for the q-Pochhammer factors, the two sums, and the functional equation."""

import pytest
from hypothesis import given, settings, strategies as st

from qrr import fps, sumside, zpoly
from qrr.fps import QSeries

from sumside_oracles import (
    coeff_recurrence_check,
    functional_equation_residual,
    h_bivariate,
    qrfac,
    rr_sum_termwise,
)
from zpoly_oracles import from_terms, zcoeff

# Coefficient prefixes frozen from an independent symbolic-series oracle.
RR_SUM0_20 = (1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9, 10, 12, 14, 17, 19, 23, 26, 31)
RR_SUM1_20 = (1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6, 6, 8, 9, 11, 12, 15, 16, 20)


class TestQrfac:
    def test_empty_product(self):
        assert qrfac(0, 10) == fps.one(10)

    def test_single_factor(self):
        assert qrfac(1, 10) == QSeries.from_coeffs([1, -1], order=10)

    def test_two_factors_expanded_by_hand(self):
        # (1-q)(1-q^2) = 1 - q - q^2 + q^3
        assert qrfac(2, 10) == QSeries.from_coeffs([1, -1, -1, 1], order=10)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            qrfac(-1, 5)

    def test_matches_dense_product_route(self):
        order = 30
        acc = fps.one(order)
        for j in range(1, 7):
            binomial = fps.linear_combine(fps.one(order), fps.monomial(order, j), 1, -1)
            acc = fps.mul(acc, binomial)
            assert qrfac(j, order) == acc, j


class TestRRSum:
    def test_first_identity_head(self):
        assert sumside.rr_sum(0, 4) == QSeries(4, (1, 1, 1, 1, 2))

    def test_order_zero(self):
        assert sumside.rr_sum(0, 0) == fps.one(0)

    def test_second_identity_head(self):
        # 1 + q^2/(1-q) by hand: 1 + q^2 + q^3 + q^4
        assert sumside.rr_sum(1, 4) == QSeries(4, (1, 0, 1, 1, 1))

    def test_pinned_to_order_twenty(self):
        assert sumside.rr_sum(0, 20).coeffs == RR_SUM0_20
        assert sumside.rr_sum(1, 20).coeffs == RR_SUM1_20

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            sumside.rr_sum(-1, 5)

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_matches_literal_inverted_pochhammer_sum(self, t):
        order = 60
        total = fps.one(order)
        k = 1
        while k * k + t * k <= order:
            term = fps.shift(fps.invert(qrfac(k, order)), k * k + t * k)
            total = total + term
            k += 1
        assert sumside.rr_sum(t, order) == total

    @pytest.mark.parametrize("t", range(6))
    def test_nested_matches_termwise_at_every_small_order(self, t):
        for order in range(151):
            assert sumside.rr_sum(t, order) == rr_sum_termwise(t, order), order

    @pytest.mark.parametrize("t", range(6))
    def test_nested_matches_termwise_around_each_new_level(self, t):
        # a level k joins the sum at order k(k+t); check just below, at and above it
        for k in range(1, 31):
            for order in (k * (k + t) - 1, k * (k + t), k * (k + t) + 1):
                assert sumside.rr_sum(t, order) == rr_sum_termwise(t, order), (k, order)

    @pytest.mark.parametrize("t", [0, 1])
    @pytest.mark.parametrize("order", [0, 1, 7, 50, 200])
    def test_coefficients_non_negative(self, t, order):
        assert all(c >= 0 for c in sumside.rr_sum(t, order).coeffs)


class TestCoeffRecurrence:
    def test_first_step(self):
        assert coeff_recurrence_check(1, 10)

    def test_deep(self):
        assert coeff_recurrence_check(8, 100)

    def test_rejects_kmax_zero(self):
        with pytest.raises(ValueError):
            coeff_recurrence_check(0, 10)

    def test_mutated_exponent_breaks_identity(self):
        # a_k with exponent k^2 + 1 instead of k^2 no longer satisfies
        # a_k (1 - q^k) = q^(2k-1) a_{k-1}
        order = 30
        mutated = [fps.one(order)]
        for k in range(1, 4):
            mutated.append(fps.shift(fps.invert(qrfac(k, order)), k * k + 1))
        holds = all(
            fps.mul_one_minus_qpow(mutated[k], k) == fps.shift(mutated[k - 1], 2 * k - 1)
            for k in range(1, 4)
        )
        assert not holds


class TestHBivariate:
    def test_degree_zero(self):
        assert h_bivariate(0, 5) == zpoly.z_one(5)

    def test_degree_one_by_hand(self):
        got = h_bivariate(1, 3)
        assert got == from_terms(3, {(0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1})

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            h_bivariate(-1, 5)

    def test_specializes_to_first_sum_at_z_one(self):
        # K^2 > N makes the z-truncation invisible
        for cap, order in ((8, 60), (5, 20)):
            assert zpoly.eval_z_at_qpow(h_bivariate(cap, order), 0) == sumside.rr_sum(
                0, order
            )

    def test_specializes_to_second_sum_at_z_q(self):
        for cap, order in ((7, 50), (4, 18)):
            assert zpoly.eval_z_at_qpow(h_bivariate(cap, order), 1) == sumside.rr_sum(
                1, order
            )


class TestFunctionalEquation:
    @pytest.mark.parametrize("cap,order", [(1, 20), (2, 20), (3, 60), (5, 120), (10, 200)])
    def test_holds_away_from_truncation_boundary(self, cap, order):
        residual = functional_equation_residual(cap, order)
        qlimit = order - (2 * cap - 1)
        for d in range(cap):
            series = zcoeff(residual, d)
            bad = [i for i in range(qlimit + 1) if series.coeffs[i] != 0]
            assert not bad, (d, bad[:3])

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 6), st.integers(12, 80))
    def test_holds_for_random_shapes(self, cap, order):
        residual = functional_equation_residual(cap, order)
        qlimit = max(order - (2 * cap - 1), 0)
        for d in range(cap):
            assert all(c == 0 for c in zcoeff(residual, d).coeffs[: qlimit + 1]), d
