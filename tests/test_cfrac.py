"""Tests for golden-mean and Rogers-Ramanujan continued fraction convergents."""

from fractions import Fraction

import pytest

from qrr import cfrac, fps, zpoly

from zpoly_oracles import from_terms as ZP


# Expanded convergent polynomials for c_1 .. c_4: numerator terms keyed
# (z-degree, q-power), denominators likewise.
H_TERMS = {
    1: {(0, 0): 1, (1, 1): 1},
    2: {(0, 0): 1, (1, 1): 1, (1, 2): 1},
    3: {(0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 4): 1},
    4: {(0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 4): 1, (2, 5): 1, (2, 6): 1},
}
DEN_TERMS = {
    1: {(0, 0): 1},
    2: {(0, 0): 1, (1, 2): 1},
    3: {(0, 0): 1, (1, 2): 1, (1, 3): 1},
    4: {(0, 0): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 6): 1},
}


class TestFibonacci:
    def test_seeds(self):
        assert cfrac.fibonacci(0) == 1
        assert cfrac.fibonacci(1) == 1

    def test_sequence_prefix(self):
        assert [cfrac.fibonacci(n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_iterated_value(self):
        assert cfrac.fibonacci(30) == 1346269

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cfrac.fibonacci(-1)


class TestGoldenConvergents:
    def test_table(self):
        expected = [Fraction(1, 1), Fraction(2, 1), Fraction(3, 2), Fraction(5, 3), Fraction(8, 5)]
        assert [cfrac.golden_convergent(n) for n in range(1, 6)] == expected

    def test_ninth(self):
        assert cfrac.golden_convergent(9) == Fraction(55, 34)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cfrac.golden_convergent(0)

    def test_equals_fibonacci_ratio(self):
        for n in range(1, 201):
            got = cfrac.golden_convergent(n)
            want = Fraction(cfrac.fibonacci(n), cfrac.fibonacci(n - 1))
            assert got == want, n

    def test_golden_table_rows(self):
        rows = cfrac.golden_table(5)
        assert rows[-1] == (5, 8, 5, 1.6)
        assert [r[0] for r in rows] == [1, 2, 3, 4, 5]


class TestGoldenError:
    def test_first_step(self):
        assert abs(cfrac.golden_error(1) - 0.6180339887) < 1e-9

    def test_fifth_step(self):
        assert abs(cfrac.golden_error(5) - 0.018033988749) < 1e-9

    def test_twentieth_step_small(self):
        assert cfrac.golden_error(20) < 1e-7

    def test_strictly_decreasing(self):
        errors = [cfrac.golden_error(n) for n in range(2, 31)]
        assert all(a > b for a, b in zip(errors, errors[1:]))


class TestRRNumerators:
    def test_expanded_polynomials(self):
        hs = cfrac.rr_numerators(4, 10)
        assert hs[0] == zpoly.z_one(10)
        for n in range(1, 5):
            assert hs[n] == ZP(10, H_TERMS[n]), n

    def test_convergent_pairs(self):
        hs = cfrac.rr_numerators(3, 10)
        assert cfrac.rr_convergent(hs, 1) == (ZP(10, H_TERMS[1]), ZP(10, DEN_TERMS[1]))
        assert cfrac.rr_convergent(hs, 2) == (ZP(10, H_TERMS[2]), ZP(10, DEN_TERMS[2]))
        assert cfrac.rr_convergent(hs, 3) == (ZP(10, H_TERMS[3]), ZP(10, DEN_TERMS[3]))

    def test_convergent_index_must_be_positive(self):
        hs = cfrac.rr_numerators(2, 5)
        with pytest.raises(ValueError):
            cfrac.rr_convergent(hs, 0)
        with pytest.raises(ValueError):
            cfrac.rr_convergent(hs, 3)

    def test_denominator_is_previous_numerator_shifted(self):
        order = 30
        hs = cfrac.rr_numerators(12, order)
        for n in range(2, 13):
            _, den = cfrac.rr_convergent(hs, n)
            assert den == zpoly.subst_zq(hs[n - 1], 1), n


def nested_fraction(n, order):
    """Direct simplification oracle: build the n-level fraction bottom-up.

    Working from the innermost level out, 1 + z*q^j / (num/den) has
    numerator num + z*q^j*den and denominator num.  No common factor ever
    appears, so the result is the convergent in lowest terms.
    """
    num, den = zpoly.z_one(order), zpoly.z_one(order)
    for j in range(n, 0, -1):
        num, den = zpoly.zadd(num, zpoly.zshift(den, 1, j)), num
    return num, den


class TestRecurrenceAgainstDirectSimplification:
    def test_matches_nested_fraction_oracle(self):
        order = 40
        hs = cfrac.rr_numerators(8, order)
        for n in range(1, 9):
            num, den = nested_fraction(n, order)
            assert (num, den) == cfrac.rr_convergent(hs, n), n


# c(1,q) through order 12, frozen from an independent series-division oracle.
CFRAC_SERIES_12 = (1, 1, 0, -1, 0, 1, 1, -1, -2, 0, 2, 2, -1)


class TestCfracSeries:
    def test_constant_term(self):
        assert cfrac.cfrac_series(0) == fps.one(0)

    def test_first_order(self):
        assert cfrac.cfrac_series(1).coeffs == (1, 1)

    def test_order_twelve_pinned(self):
        assert cfrac.cfrac_series(12).coeffs == CFRAC_SERIES_12

    def test_agrees_with_deep_convergent(self):
        # second route: 25-level convergent evaluated at z = 1
        hs = cfrac.rr_numerators(25, 12)
        assert cfrac.rr_convergent_series(hs, 25) == cfrac.cfrac_series(12)

    def test_convergent_agreement_floor(self):
        # c_n(1,q) matches the full fraction at least through q^n; the
        # observed agreement is much better (order n(n+3)/2 empirically)
        # but only the floor is asserted.
        order = 15
        full = cfrac.cfrac_series(order)
        hs = cfrac.rr_numerators(15, order)
        for n in range(1, 16):
            conv = cfrac.rr_convergent_series(hs, n)
            prefix = n + 1
            assert conv.coeffs[:prefix] == full.coeffs[:prefix], n
