"""Convert series to conjectured infinite products by smallest-power stripping.

Given a series s with constant term 1, repeatedly locate the smallest
exponent e >= 1 whose coefficient c is nonzero and multiply by
(1-q^e)^c; that cancels the q^e term and leaves a residual whose first
nonzero exponent is strictly larger.  Recording a factor multiplicity
of -c per step yields a ProductForm that expands back to s exactly up
to the truncation order.  Everything past that order is conjecture, and
callers should label it as such.

``detect_progressions`` then looks for the kind of regularity a human
would spot in the stripped exponents: a single modulus M and a set of
residues that together generate exactly the observed exponent list, and
``pattern_series`` expands such a pattern back into a series.
"""

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import index as _as_int
from typing import NamedTuple

from . import fps
from .fps import QSeries


@dataclass(frozen=True)
class ProductForm:
    """A finite exact product prod_e (1-q^e)^(m_e).

    ``factors`` maps each exponent e >= 1 to a nonzero integer
    multiplicity; denominator factors carry negative multiplicity.
    """

    factors: dict[int, int]

    def __post_init__(self):
        clean = {}
        for e in sorted(self.factors):
            m = self.factors[e]
            if not isinstance(e, int) or e < 1:
                raise ValueError("factor exponent must be a positive integer, got %r" % (e,))
            if m:
                clean[e] = _as_int(m)
        object.__setattr__(self, "factors", clean)

    def exponents(self) -> list[int]:
        return list(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __bool__(self) -> bool:
        return bool(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        num, den = [], []
        for e, m in self.factors.items():
            base = "(1-q^%d)" % e if e > 1 else "(1-q)"
            mag = abs(m)
            piece = base if mag == 1 else "%s^%d" % (base, mag)
            (num if m > 0 else den).append(piece)
        if not den:
            return "".join(num)
        return "%s/(%s)" % ("".join(num) or "1", "".join(den))

    def to_json_dict(self) -> dict:
        return {"factors": [{"e": e, "m": m} for e, m in self.factors.items()]}


@dataclass(frozen=True)
class ResiduePattern:
    """Exponents form the union of residue classes r (mod modulus), all
    carrying one shared multiplicity."""

    modulus: int
    residues: frozenset[int]
    multiplicity: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1, got %d" % self.modulus)
        residues = frozenset(self.residues)
        if not residues:
            raise ValueError("residue set must be non-empty")
        if any(not 0 <= r < self.modulus for r in residues):
            raise ValueError("residues must lie in [0, %d)" % self.modulus)
        if self.multiplicity == 0:
            raise ValueError("multiplicity must be nonzero")
        object.__setattr__(self, "residues", residues)

    def product_form(self, order: int) -> ProductForm:
        """All exponents e <= order in the pattern's residue classes."""
        return ProductForm(
            {
                e: self.multiplicity
                for e in range(1, order + 1)
                if e % self.modulus in self.residues
            }
        )

    def __str__(self) -> str:
        pieces = "".join(
            "(1-q^(%dm+%d))" % (self.modulus, r) for r in sorted(self.residues)
        )
        mag = abs(self.multiplicity)
        if mag != 1:
            pieces = "(%s)^%d" % (pieces, mag)
        return "1/(%s)" % pieces if self.multiplicity < 0 else pieces

    def to_json_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "residues": sorted(self.residues),
            "multiplicity": self.multiplicity,
        }


class StripStep(NamedTuple):
    exponent: int
    coefficient: int
    residual: QSeries


def expand_product(pf: ProductForm, order: int) -> QSeries:
    """Truncated expansion of the product; factors beyond the order are skipped."""
    acc = fps.one(order)
    for e, m in pf.factors.items():
        if e <= order:
            acc = fps.pow_one_minus_qpow(acc, e, m)
    return acc


def triple_product(a: int, b: int, order: int) -> Iterator[tuple[int, int]]:
    """sum over all integers n of (-1)^n q^(a*n(n-1)/2 + b*n) to ``order``, as
    (exponent, coefficient) pairs: (q^b, q^(a-b), q^a; q^a)_inf by Jacobi's
    triple product, for 0 < b < a with b != a-b.  Terms n and -n sit at
    a*n(n-1)/2 + b*n and a*n(n-1)/2 + (a-b)*n, so about 2*sqrt(2*order/a) are kept.
    """
    yield 0, 1
    n = 1
    while (base := a * n * (n - 1) // 2) + min(b, a - b) * n <= order:
        for e in (base + b * n, base + (a - b) * n):
            if e <= order:
                yield e, (-1) ** n
        n += 1


def theta_quotient(num_terms: Iterable[tuple[int, int]], den_terms: Iterable[tuple[int, int]],
                   order: int) -> QSeries:
    """num/den to ``order``, each given by sparse (exponent, coefficient) pairs;
    den has constant term 1, every other coefficient +-1 and no exponent twice.
    One pass y_k = num_k - sum_g den_g*y_(k-g) takes O(order * #den) additions.
    The terms are read only after the output is allocated at the full order."""
    num = [0] * (order + 1)  # the full order, allocated before any work
    for e, c in num_terms:
        if e <= order:
            num[e] += c
    den = dict(den_terms)
    if den.get(0) != 1 or any(c not in (1, -1) for c in den.values()):
        raise ValueError("denominator needs constant term 1 and coefficients +-1")
    adds, subs = [], []  # -g for each exponent 1 <= g <= k with den_g = -1, and with +1
    y = []  # y_0 .. y_(k-1), so y[-g] is y_(k-g)
    get = y.__getitem__
    for k, c in enumerate(num):
        if k and k in den:
            (adds if den[k] < 0 else subs).append(-k)
        y.append(c + sum(map(get, adds)) - sum(map(get, subs)))
    return QSeries(order, tuple(y))


def pattern_series(pattern: ResiduePattern, order: int) -> QSeries:
    """The pattern's product expanded to ``order``.

    1/prod over e = +-r (mod M) of (1-q^e), with 0 < r < M-r, is the theta
    quotient (q^M;q^M)_inf / (q^r, q^(M-r), q^M; q^M)_inf (Andrews, *The
    Theory of Partitions*, ch. 2).  Numerator (Euler's pentagonal series) and
    denominator are sparse, so ``theta_quotient`` divides them in
    O(order^1.5).  Any other pattern is expanded factor by factor.
    """
    m, (r, *rest) = pattern.modulus, sorted(pattern.residues)
    if pattern.multiplicity != -1 or rest != [m - r]:
        return expand_product(pattern.product_form(order), order)
    return theta_quotient(triple_product(3 * m, m, order), triple_product(m, r, order), order)


def strip_step(s: QSeries) -> StripStep:
    """One stripping move on a series with constant term 1.

    Finds the smallest e >= 1 with nonzero coefficient c and returns
    (e, c, s * (1-q^e)^c).  The residual has zero coefficients at every
    index from 1 through e.
    """
    if s.coeffs[0] != 1:
        raise ValueError("stripping requires constant term 1, got %s" % s.coeffs[0])
    e = next(compress(count(1), islice(s.coeffs, 1, None)), None)
    if e is None:
        raise ValueError("series is 1 to its order; nothing left to strip")
    c = s.coeffs[e]
    return StripStep(e, c, fps.pow_one_minus_qpow(s, e, c))


def conjecture_product(s: QSeries) -> ProductForm:
    """Full stripping loop: a ProductForm that expands back to s exactly.

    Each recorded factor multiplicity is the negative of the stripped
    coefficient, so denominators of the classical identities come out
    with multiplicity -1.  Valid only up to s.order; beyond that the
    product is a conjecture.
    """
    factors: dict[int, int] = {}
    residual = s
    while not residual.is_one():
        e, c, residual = strip_step(residual)
        factors[e] = -c
    return ProductForm(factors)


def detect_progressions(pf: ProductForm, modulus_max: int) -> ResiduePattern | None:
    """Smallest modulus M <= modulus_max whose residue classes reproduce
    the exponents of pf exactly, or None.

    A modulus only qualifies if the union of its residue classes matches
    the exponent set slot for slot up to the largest exponent present,
    and every class is witnessed at least twice; a single isolated
    exponent never determines a progression.
    """
    if not pf:
        raise ValueError("cannot detect progressions in an empty product")
    if modulus_max < 1:
        raise ValueError("modulus bound must be >= 1, got %d" % modulus_max)
    mults = set(pf.factors.values())
    if len(mults) != 1:
        return None
    exponents = set(pf.factors)
    top = max(exponents)
    for modulus in range(1, modulus_max + 1):
        residues = {e % modulus for e in exponents}
        predicted = {e for e in range(1, top + 1) if e % modulus in residues}
        if predicted != exponents:
            continue
        witnesses = {r: 0 for r in residues}
        for e in exponents:
            witnesses[e % modulus] += 1
        if min(witnesses.values()) < 2:
            continue
        return ResiduePattern(modulus, frozenset(residues), mults.pop())
    return None
