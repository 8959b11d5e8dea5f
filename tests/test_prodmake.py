"""Tests for product expansion, stripping, and progression detection."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qrr import fps, prodmake, sumside
from qrr.fps import QSeries
from qrr.prodmake import ProductForm, ResiduePattern

# Residuals after the first three strips of the t=0 sum at order 20,
# frozen from an independent symbolic oracle.
RESIDUAL_1 = (1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 3, 2, 4, 3, 5)
RESIDUAL_2 = (1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 2, 1, 2)
RESIDUAL_3 = (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1)


def product_forms(max_exponent=20, max_mult=3):
    return st.dictionaries(
        st.integers(1, max_exponent),
        st.integers(-max_mult, max_mult).filter(bool),
        min_size=1,
        max_size=8,
    ).map(ProductForm)


def unit_series(max_order=24):
    return st.integers(1, max_order).flatmap(
        lambda n: st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(
            lambda cs: QSeries(n, (1,) + tuple(cs))
        )
    )


class TestProductForm:
    def test_drops_zero_multiplicities(self):
        assert ProductForm({2: 0, 3: -1}).factors == {3: -1}

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            ProductForm({0: 1})
        with pytest.raises(ValueError):
            ProductForm({-2: 1})

    def test_factors_sorted(self):
        assert list(ProductForm({5: 1, 2: -1, 9: 2}).factors) == [2, 5, 9]

    def test_str(self):
        assert str(ProductForm({})) == "1"
        assert str(ProductForm({1: -1, 4: -1})) == "1/((1-q)(1-q^4))"
        assert str(ProductForm({2: 3, 5: -2})) == "(1-q^2)^3/((1-q^5)^2)"

    def test_json(self):
        pf = ProductForm({4: -1, 1: -1})
        assert pf.to_json_dict() == {"factors": [{"e": 1, "m": -1}, {"e": 4, "m": -1}]}


class TestResiduePattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResiduePattern(0, frozenset({0}), -1)
        with pytest.raises(ValueError):
            ResiduePattern(5, frozenset(), -1)
        with pytest.raises(ValueError):
            ResiduePattern(5, frozenset({5}), -1)
        with pytest.raises(ValueError):
            ResiduePattern(5, frozenset({1}), 0)

    def test_product_form_enumerates_up_to_order(self):
        rp = ResiduePattern(5, frozenset({1, 4}), -1)
        assert rp.product_form(11).factors == {1: -1, 4: -1, 6: -1, 9: -1, 11: -1}

    def test_str(self):
        rp = ResiduePattern(5, frozenset({1, 4}), -1)
        assert str(rp) == "1/((1-q^(5m+1))(1-q^(5m+4)))"

    def test_json_sorts_residues(self):
        rp = ResiduePattern(5, frozenset({4, 1}), -1)
        assert rp.to_json_dict() == {"modulus": 5, "residues": [1, 4], "multiplicity": -1}


class TestExpandProduct:
    def test_single_reciprocal_factor(self):
        assert prodmake.expand_product(ProductForm({1: -1}), 4) == QSeries(4, (1, 1, 1, 1, 1))

    def test_empty_product(self):
        assert prodmake.expand_product(ProductForm({}), 10) == fps.one(10)

    def test_rr1_pattern_head(self):
        rp = ResiduePattern(5, frozenset({1, 4}), -1)
        got = prodmake.expand_product(rp.product_form(4), 4)
        assert got == QSeries(4, (1, 1, 1, 1, 2))

    def test_factors_beyond_order_are_skipped(self):
        pf = ProductForm({1: -1, 50: 3})
        assert prodmake.expand_product(pf, 10) == fps.geometric(1, 10)

    def test_matches_dense_mul_invert_route(self):
        order = 25
        pf = ProductForm({2: 3, 5: -2, 7: 1})
        factor2 = fps.linear_combine(fps.one(order), fps.monomial(order, 2), 1, -1)
        factor5 = fps.linear_combine(fps.one(order), fps.monomial(order, 5), 1, -1)
        factor7 = fps.linear_combine(fps.one(order), fps.monomial(order, 7), 1, -1)
        want = fps.one(order)
        for f in (factor2, factor2, factor2, fps.invert(factor5), fps.invert(factor5), factor7):
            want = fps.mul(want, f)
        assert prodmake.expand_product(pf, order) == want


THETA_PATTERNS = [
    ResiduePattern(m, frozenset({r, m - r}), -1) for m in range(3, 13) for r in range(1, (m + 1) // 2)
]


class TestPatternSeries:
    @pytest.mark.parametrize("pattern", THETA_PATTERNS, ids=str)
    def test_theta_quotient_matches_expansion_at_every_order(self, pattern):
        # truncating the expansion at 300 gives the expansion at every lower order
        want = prodmake.expand_product(pattern.product_form(300), 300).coeffs
        for order in range(301):
            assert prodmake.pattern_series(pattern, order).coeffs == want[: order + 1], order

    @pytest.mark.parametrize(
        "pattern",
        [
            ResiduePattern(5, frozenset({1, 3}), -1),  # not r and M - r
            ResiduePattern(6, frozenset({3}), -1),  # r == M - r
            ResiduePattern(5, frozenset({1}), -1),
            ResiduePattern(5, frozenset({0, 1, 4}), -1),
            ResiduePattern(1, frozenset({0}), -1),
            ResiduePattern(5, frozenset({1, 4}), -2),
            ResiduePattern(5, frozenset({1, 4}), 1),
        ],
        ids=str,
    )
    def test_any_other_pattern_is_expanded_factor_by_factor(self, pattern):
        for order in (0, 1, 9, 60):
            want = prodmake.expand_product(pattern.product_form(order), order)
            assert prodmake.pattern_series(pattern, order) == want, order


def schoolbook_divide(num_terms, den_terms, order):
    """num/den to ``order`` by the plain recurrence y_k = (num_k - sum_(g>=1) den_g y_(k-g)) / den_0."""
    num, den = [0] * (order + 1), [0] * (order + 1)
    for terms, out in ((num_terms, num), (den_terms, den)):
        for e, c in terms:
            if e <= order:
                out[e] += c
    y = []
    for k in range(order + 1):
        y.append((num[k] - sum(den[g] * y[k - g] for g in range(1, k + 1))) // den[0])
    return QSeries(order, tuple(y))


def pm_one_terms(rng, top, count):
    """1 plus ``count`` random +-1 terms at distinct exponents in 1..top."""
    return [(0, 1)] + [(e, rng.choice((1, -1))) for e in rng.sample(range(1, top + 1), count)]


_RNG = random.Random(2016)
# (numerator, denominator, the product it equals or None): the continued
# fraction's quotient, rr1's, a quotient with a dense numerator, and random
# sparse +-1 pairs, some with terms above the order
DIVISIONS = [
    (list(prodmake.triple_product(5, 2, 300)), list(prodmake.triple_product(5, 1, 300)),
     ProductForm({e: 1 if e % 5 in (2, 3) else -1 for e in range(1, 301) if e % 5})),
    (list(prodmake.triple_product(15, 5, 300)), list(prodmake.triple_product(5, 1, 300)),
     ProductForm({e: -1 for e in range(1, 301) if e % 5 in (1, 4)})),
    (list(prodmake.triple_product(7, 3, 300)), list(prodmake.triple_product(7, 1, 300)),
     ProductForm({e: 1 if e % 7 in (3, 4) else -1 for e in range(1, 301) if e % 7 in (1, 3, 4, 6)})),
    ([(k, 3 - k % 7) for k in range(301)], list(prodmake.triple_product(9, 2, 300)), None),
    *((pm_one_terms(_RNG, 400, 12), pm_one_terms(_RNG, 400, 20), None) for _ in range(4)),
]


class TestThetaQuotient:
    @pytest.mark.parametrize("num,den,product", DIVISIONS)
    def test_matches_schoolbook_division_at_every_order(self, num, den, product):
        # truncating the quotient at 300 gives the quotient at every lower order
        want = schoolbook_divide(num, den, 300)
        if product is not None:
            assert prodmake.expand_product(product, 300) == want
        for order in range(301):
            got = prodmake.theta_quotient(iter(num), iter(den), order)
            assert got.coeffs == want.coeffs[: order + 1], order

    @pytest.mark.parametrize("den", [[(0, 2), (1, 1)], [(0, 1), (3, 2)], [(1, 1)], [(0, -1)]])
    def test_rejects_a_denominator_it_cannot_divide_by(self, den):
        with pytest.raises(ValueError):
            prodmake.theta_quotient([(0, 1)], den, 10)

    @pytest.mark.parametrize("a,b", [(5, 1), (5, 2), (15, 5), (7, 3), (3, 1)])
    def test_triple_product_is_the_theta_series(self, a, b):
        order = 200
        want = {}
        for n in range(-30, 31):
            e = a * n * (n - 1) // 2 + b * n
            if e <= order:
                want[e] = want.get(e, 0) + (-1) ** n
        assert dict(prodmake.triple_product(a, b, order)) == want


class TestStripStep:
    def test_first_three_residuals_of_rr1(self):
        s = sumside.rr_sum(0, 20)
        e1, c1, r1 = prodmake.strip_step(s)
        assert (e1, c1) == (1, 1) and r1.coeffs == RESIDUAL_1
        e2, c2, r2 = prodmake.strip_step(r1)
        assert (e2, c2) == (4, 1) and r2.coeffs == RESIDUAL_2
        e3, c3, r3 = prodmake.strip_step(r2)
        assert (e3, c3) == (6, 1) and r3.coeffs == RESIDUAL_3

    def test_negative_coefficient_strip(self):
        s = prodmake.expand_product(ProductForm({2: 1}), 10)  # 1 - q^2
        e, c, r = prodmake.strip_step(s)
        assert (e, c) == (2, -1)
        assert r == fps.one(10)

    def test_rejects_non_unit_constant(self):
        with pytest.raises(ValueError):
            prodmake.strip_step(QSeries(3, (2, 1, 0, 0)))

    def test_exhausted_series_signals_completion(self):
        with pytest.raises(ValueError):
            prodmake.strip_step(fps.one(5))


class TestConjectureProduct:
    def test_geometric_is_single_factor(self):
        assert prodmake.conjecture_product(fps.geometric(1, 30)).factors == {1: -1}

    def test_rr1_exponents_at_order_twenty(self):
        pf = prodmake.conjecture_product(sumside.rr_sum(0, 20))
        assert pf.factors == {1: -1, 4: -1, 6: -1, 9: -1, 11: -1, 14: -1, 16: -1, 19: -1}

    def test_rr2_exponents_at_order_eighteen(self):
        pf = prodmake.conjecture_product(sumside.rr_sum(1, 18))
        assert pf.factors == {2: -1, 3: -1, 7: -1, 8: -1, 12: -1, 13: -1, 17: -1, 18: -1}

    @settings(deadline=None)
    @given(product_forms(), st.integers(40, 60))
    def test_round_trip_recovers_the_product(self, pf, order):
        expanded = prodmake.expand_product(pf, order)
        assert prodmake.conjecture_product(expanded).factors == pf.factors

    @settings(deadline=None)
    @given(unit_series())
    def test_soundness_expansion_reproduces_series(self, s):
        pf = prodmake.conjecture_product(s)
        assert prodmake.expand_product(pf, s.order) == s

    @settings(deadline=None)
    @given(unit_series(max_order=16))
    def test_stripped_exponents_strictly_increase(self, s):
        seen = []
        residual = s
        while not residual.is_one():
            e, _, residual = prodmake.strip_step(residual)
            seen.append(e)
        assert seen == sorted(set(seen))
        pf = prodmake.conjecture_product(s)
        assert list(pf.factors) == seen


def count_partitions(n, largest=None):
    """Brute-force partition counter: recursive enumeration, no closed form."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    return sum(count_partitions(n - part, part) for part in range(min(n, largest), 0, -1))


class TestPartitionOracle:
    def test_generating_function_matches_enumeration(self):
        order = 40
        pf = ProductForm({m: -1 for m in range(1, order + 1)})
        series = prodmake.expand_product(pf, order)
        for n in range(order + 1):
            assert series.coeffs[n] == count_partitions(n), n


class TestDetectProgressions:
    def test_rr1_pattern(self):
        pf = prodmake.conjecture_product(sumside.rr_sum(0, 50))
        got = prodmake.detect_progressions(pf, 12)
        assert got == ResiduePattern(5, frozenset({1, 4}), -1)

    def test_rr2_pattern(self):
        pf = prodmake.conjecture_product(sumside.rr_sum(1, 50))
        got = prodmake.detect_progressions(pf, 12)
        assert got == ResiduePattern(5, frozenset({2, 3}), -1)

    def test_all_exponents_is_modulus_one(self):
        pf = ProductForm({e: -1 for e in range(1, 31)})
        got = prodmake.detect_progressions(pf, 12)
        assert got == ResiduePattern(1, frozenset({0}), -1)

    def test_single_exponent_is_not_a_progression(self):
        assert prodmake.detect_progressions(ProductForm({1: -1}), 12) is None

    def test_mixed_multiplicities_report_nothing(self):
        pf = ProductForm({1: -1, 6: -1, 11: -2})
        assert prodmake.detect_progressions(pf, 12) is None

    def test_irregular_exponents_report_nothing(self):
        pf = ProductForm({e: -1 for e in (1, 2, 4, 8, 16)})
        assert prodmake.detect_progressions(pf, 12) is None

    def test_shared_multiplicity_is_propagated(self):
        pf = ProductForm({e: 2 for e in (3, 6, 9, 12)})
        got = prodmake.detect_progressions(pf, 12)
        assert got == ResiduePattern(3, frozenset({0}), 2)

    def test_smallest_modulus_wins(self):
        # multiples of 2 also match mod 4 with residues {0, 2}; 2 must win
        pf = ProductForm({e: -1 for e in range(2, 21, 2)})
        got = prodmake.detect_progressions(pf, 12)
        assert got is not None and got.modulus == 2

    def test_rejects_empty_product(self):
        with pytest.raises(ValueError):
            prodmake.detect_progressions(ProductForm({}), 12)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            prodmake.detect_progressions(ProductForm({1: -1}), 0)
