"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact integer arithmetic (tolerance zero) except the
golden-mean distance in criterion 5, which is the package's single
floating-point diagnostic and is bounded by 1e-7 as stated.
"""

import random
import time

from qrr import cfrac, dirichlet, fps, prodmake, sumside
from qrr.cli import IDENTITIES, cmd_verify
from qrr.fps import QSeries
from qrr.prodmake import ProductForm, ResiduePattern

from sumside_oracles import cfrac_sum_ratio, functional_equation_residual
from zpoly_oracles import from_terms

VERIFY_BUDGET_SECONDS = 10.0


def check(ok, label):
    print("%s: %s" % ("PASS" if ok else "FAIL", label))
    assert ok, label


def rr_pattern(name):
    return IDENTITIES[name].pattern


def test_criterion_01_rr1_verified_to_order_500():
    start = time.monotonic()
    lhs = sumside.rr_sum(0, 500)
    rhs = prodmake.expand_product(rr_pattern("rr1").product_form(500), 500)
    elapsed = time.monotonic() - start
    check(
        lhs == rhs and elapsed < VERIFY_BUDGET_SECONDS,
        "criterion 1: rr1 sum == product at every order <= 500 (%.2fs)" % elapsed,
    )


def test_criterion_02_rr2_verified_to_order_500():
    start = time.monotonic()
    lhs = sumside.rr_sum(1, 500)
    rhs = prodmake.expand_product(rr_pattern("rr2").product_form(500), 500)
    elapsed = time.monotonic() - start
    check(
        lhs == rhs and elapsed < VERIFY_BUDGET_SECONDS,
        "criterion 2: rr2 sum == product at every order <= 500 (%.2fs)" % elapsed,
    )


def test_criterion_03_discovery_reproduces_the_patterns():
    pf1 = prodmake.conjecture_product(sumside.rr_sum(0, 100))
    want1 = {e: -1 for e in range(1, 101) if e % 5 in (1, 4)}
    pattern1 = prodmake.detect_progressions(pf1, 12)

    pf2 = prodmake.conjecture_product(sumside.rr_sum(1, 100))
    want2 = {e: -1 for e in range(1, 101) if e % 5 in (2, 3)}
    pattern2 = prodmake.detect_progressions(pf2, 12)

    check(
        pf1.factors == want1
        and pattern1 == ResiduePattern(5, frozenset({1, 4}), -1)
        and pf2.factors == want2
        and pattern2 == ResiduePattern(5, frozenset({2, 3}), -1),
        "criterion 3: stripping at order 100 yields exactly the mod-5 "
        "exponents and detect_progressions reports {1,4} / {2,3}",
    )


def test_criterion_04_strip_trace_leading_terms():
    def leading(series):
        head = next(k for k in range(1, series.order + 1) if series.coeffs[k])
        return series.coeffs[0], head

    s = sumside.rr_sum(0, 20)
    _, _, r1 = prodmake.strip_step(s)
    _, _, r2 = prodmake.strip_step(r1)
    _, _, r3 = prodmake.strip_step(r2)
    check(
        leading(r1) == (1, 4) and leading(r2) == (1, 6) and leading(r3) == (1, 9),
        "criterion 4: residuals of the first three strips begin 1+q^4, 1+q^6, 1+q^9",
    )


def test_criterion_05_convergent_tables():
    from fractions import Fraction

    convergents_ok = [cfrac.golden_convergent(n) for n in range(1, 6)] == [
        Fraction(1, 1),
        Fraction(2, 1),
        Fraction(3, 2),
        Fraction(5, 3),
        Fraction(8, 5),
    ]
    fibonacci_ok = [cfrac.fibonacci(n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]
    error_ok = cfrac.golden_error(20) < 1e-7
    check(
        convergents_ok and fibonacci_ok and error_ok,
        "criterion 5: golden convergents 1/1..8/5, Fibonacci 1..21, "
        "golden_error(20) < 1e-7",
    )


def test_criterion_06_symbolic_convergents():
    hs = cfrac.rr_numerators(4, 10)
    want_numerators = {
        1: {(0, 0): 1, (1, 1): 1},
        2: {(0, 0): 1, (1, 1): 1, (1, 2): 1},
        3: {(0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1, (2, 4): 1},
        4: {
            (0, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1,
            (2, 4): 1, (2, 5): 1, (2, 6): 1,
        },
    }
    want_denominators = {
        1: {(0, 0): 1},
        2: {(0, 0): 1, (1, 2): 1},
        3: {(0, 0): 1, (1, 2): 1, (1, 3): 1},
        4: {(0, 0): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 6): 1},
    }
    ok = True
    for n in range(1, 5):
        num, den = cfrac.rr_convergent(hs, n)
        ok = ok and hs[n] == num == from_terms(10, want_numerators[n])
        ok = ok and den == from_terms(10, want_denominators[n])
    check(
        ok,
        "criterion 6: H_1..H_4 and denominators match the hand-expanded "
        "c_1..c_4 convergents",
    )


def test_criterion_07_functional_equation_k10_n200():
    residual = functional_equation_residual(10, 200)
    ok = not any(c for row in residual.rows[:10] for c in row[:181])
    check(
        ok,
        "criterion 7: H(z,q) = H(zq,q) + zqH(zq^2,q) exactly for z-deg <= 9, "
        "q-order <= 180 at K=10, N=200",
    )


def test_criterion_08_quotient_identity():
    lhs = fps.mul(cfrac.cfrac_series(30), sumside.rr_sum(1, 30))
    check(
        lhs == sumside.rr_sum(0, 30),
        "criterion 8: cfrac_series(30) * rr_sum(1,30) == rr_sum(0,30) exactly",
    )


def test_criterion_09_zeta_strip_finds_the_primes():
    def sieve(n):
        flags = [True] * (n + 1)
        for p in range(2, int(n**0.5) + 1):
            if flags[p]:
                flags[p * p :: p] = [False] * len(flags[p * p :: p])
        return [p for p in range(2, n + 1) if flags[p]]

    primes = dirichlet.euler_strip(1000)
    check(
        primes == sieve(1000) and len(primes) == 168,
        "criterion 9: euler_strip(1000) returns the 168 primes below 1000",
    )


def test_criterion_10_property_suites():
    rng = random.Random(1729)

    # 200 product/series round trips, exponents <= 20, multiplicities in [-3,3]
    round_trips = 0
    for _ in range(200):
        size = rng.randint(1, 8)
        exponents = rng.sample(range(1, 21), size)
        pf = ProductForm({e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in exponents})
        back = prodmake.conjecture_product(prodmake.expand_product(pf, 60))
        if back.factors == pf.factors:
            round_trips += 1

    # 200 ring-axiom checks (mul commutative/associative/distributive and
    # invert round trip) on random series of order <= 32
    ring_ok = 0
    for _ in range(200):
        order = rng.randint(0, 32)

        def rand_series():
            return QSeries(order, tuple(rng.randint(-9, 9) for _ in range(order + 1)))

        a, b, c = rand_series(), rand_series(), rand_series()
        unit = QSeries(order, (rng.choice((1, -1)),) + a.coeffs[1:])
        good = (
            fps.mul(a, b) == fps.mul(b, a)
            and fps.mul(fps.mul(a, b), c) == fps.mul(a, fps.mul(b, c))
            and fps.mul(a + b, c) == fps.mul(a, c) + fps.mul(b, c)
            and fps.mul(unit, fps.invert(unit)) == fps.one(order)
        )
        ring_ok += good

    # partition generating function vs brute-force enumeration, n <= 40
    def count_partitions(n, largest):
        if n == 0:
            return 1
        return sum(count_partitions(n - part, part) for part in range(min(n, largest), 0, -1))

    gf = prodmake.expand_product(ProductForm({m: -1 for m in range(1, 41)}), 40)
    partitions_ok = all(gf.coeffs[n] == count_partitions(n, n) for n in range(41))

    check(
        round_trips == 200 and ring_ok == 200 and partitions_ok,
        "criterion 10: 200/200 round trips, 200/200 ring-axiom checks, "
        "partition coefficients match enumeration for n <= 40",
    )


def test_criterion_11_two_product_routes_to_order_2000():
    ok = True
    for name in ("rr1", "rr2"):
        shift, pattern = IDENTITIES[name]
        lhs = sumside.rr_sum(shift, 2000)
        theta = prodmake.pattern_series(pattern, 2000)
        factors = prodmake.expand_product(pattern.product_form(2000), 2000)
        ok = ok and lhs == theta == factors
    check(
        ok,
        "criterion 11: rr1 and rr2 sums == theta quotient == factor-by-factor "
        "product at every order <= 2000",
    )


def test_criterion_12_two_continued_fraction_routes_to_order_2000():
    ok = cfrac_sum_ratio(2000) == cfrac.cfrac_series(2000)
    check(
        ok,
        "criterion 12: rr_sum(0) * invert(rr_sum(1)) == the theta quotient "
        "(q^2,q^3,q^5;q^5)/(q,q^4,q^5;q^5) at every order <= 2000",
    )
