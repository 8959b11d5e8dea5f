"""Tests for formal Dirichlet series and Euler stripping."""

import pytest
from hypothesis import given, settings, strategies as st

from qrr import dirichlet
from qrr.dirichlet import DirichletSeries


def sieve(n):
    """Independent oracle: sieve of Eratosthenes."""
    flags = [True] * (n + 1)
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return [p for p in range(2, n + 1) if flags[p]]


def scalar_euler_strip(limit):
    """Independent oracle: the strip as one descending scalar sweep per index."""
    coeffs = [1] * limit
    stripped = []
    for n in range(2, limit + 1):
        if coeffs[n - 1] == 0:
            continue
        assert coeffs[n - 1] == 1
        stripped.append(n)
        for m in range((limit // n) * n, n - 1, -n):
            coeffs[m - 1] -= coeffs[m // n - 1]
    return stripped


def dirichlet_series(max_limit=50):
    return st.integers(1, max_limit).flatmap(
        lambda n: st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1).map(
            lambda cs: DirichletSeries(n, (1,) + tuple(cs))
        )
    )


class TestConstruction:
    def test_zeta_all_ones(self):
        assert dirichlet.zeta_series(1).coeffs == (1,)
        assert dirichlet.zeta_series(5).coeffs == (1, 1, 1, 1, 1)

    def test_coefficient_lookup_is_one_based(self):
        z = dirichlet.zeta_series(10)
        assert z.coefficient(4) == 1
        with pytest.raises(ValueError):
            z.coefficient(0)
        with pytest.raises(ValueError):
            z.coefficient(11)

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            dirichlet.zeta_series(0)

    def test_rejects_non_unit_lead(self):
        with pytest.raises(ValueError):
            DirichletSeries(3, (2, 0, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            DirichletSeries(3, (1, 0))

    def test_one_minus_term(self):
        f = dirichlet.one_minus_term(3, 6)
        assert f.coeffs == (1, 0, -1, 0, 0, 0)
        with pytest.raises(ValueError):
            dirichlet.one_minus_term(1, 6)

    def test_str(self):
        assert str(dirichlet.one_minus_term(2, 4)) == "1 - 2^(-s)"


class TestDmul:
    def test_delta_is_identity(self):
        f = DirichletSeries(8, (1, 3, 0, -2, 5, 0, 1, 7))
        assert dirichlet.dmul(f, dirichlet.delta(8)) == f

    def test_zeta_times_two_factor_kills_evens(self):
        got = dirichlet.dmul(dirichlet.zeta_series(10), dirichlet.one_minus_term(2, 10))
        assert got.coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0)

    def test_rejects_mismatched_limits(self):
        with pytest.raises(ValueError):
            dirichlet.dmul(dirichlet.zeta_series(5), dirichlet.zeta_series(6))

    @given(st.integers(1, 50), st.data())
    def test_commutative(self, limit, data):
        cs = st.lists(st.integers(-9, 9), min_size=limit - 1, max_size=limit - 1)
        f, g = (DirichletSeries(limit, (1,) + tuple(data.draw(cs))) for _ in range(2))
        assert dirichlet.dmul(f, g) == dirichlet.dmul(g, f)

    @given(st.integers(1, 50), st.data())
    def test_associative(self, limit, data):
        cs = st.lists(st.integers(-9, 9), min_size=limit - 1, max_size=limit - 1)
        f, g, h = (DirichletSeries(limit, (1,) + tuple(data.draw(cs))) for _ in range(3))
        assert dirichlet.dmul(dirichlet.dmul(f, g), h) == dirichlet.dmul(f, dirichlet.dmul(g, h))


class TestEulerStrip:
    def test_nothing_below_two(self):
        assert dirichlet.euler_strip(1) == []

    def test_ten(self):
        assert dirichlet.euler_strip(10) == [2, 3, 5, 7]

    def test_matches_sieve_for_small_limits(self):
        for n in range(1, 51):
            assert dirichlet.euler_strip(n) == sieve(n), n

    @pytest.mark.parametrize("n", [97, 100, 997, 1000, 5000, 10000])
    def test_matches_sieve_at_scale(self, n):
        assert dirichlet.euler_strip(n) == sieve(n)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 2000))
    def test_matches_sieve_randomized(self, n):
        assert dirichlet.euler_strip(n) == sieve(n)

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            dirichlet.euler_strip(0)

    def test_matches_scalar_sweep_for_every_limit_to_3000(self):
        for limit in range(1, 3001):
            assert dirichlet.euler_strip(limit) == scalar_euler_strip(limit), limit

    @pytest.mark.parametrize("p", sieve(60))
    def test_matches_scalar_sweep_around_prime_squares(self, p):
        # the sweeps stop at the first n with n^2 > limit
        for limit in (p * p - 1, p * p, p * p + 1):
            assert dirichlet.euler_strip(limit) == scalar_euler_strip(limit), limit

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_scalar_sweep_at_block_edges(self, n):
        # at n*1024 the multiples of 2 (n even) or of 3 (3 divides n) fill
        # whole blocks of 1024; one below, their top block is one short
        for limit in (n * 1024 - 1, n * 1024, n * 1024 + 1):
            assert dirichlet.euler_strip(limit) == scalar_euler_strip(limit), limit

    def test_stripping_via_public_convolution(self):
        # replay the loop through dmul/one_minus_term: after each strip the
        # stripped index and all its multiples must vanish from the residual
        limit = 60
        residual = dirichlet.zeta_series(limit)
        collected = []
        while True:
            n = next(
                (i for i in range(2, limit + 1) if residual.coefficient(i) != 0), None
            )
            if n is None:
                break
            residual = dirichlet.dmul(residual, dirichlet.one_minus_term(n, limit))
            collected.append(n)
            assert all(residual.coefficient(m) == 0 for m in range(n, limit + 1, n))
        assert residual == dirichlet.delta(limit)
        assert collected == dirichlet.euler_strip(limit) == sieve(limit)
