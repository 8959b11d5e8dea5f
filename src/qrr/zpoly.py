"""Polynomials in z whose coefficients are truncated q-series.

The z-degree is kept exact (it stays small for everything this toolkit
computes); only q is truncated, at a single order shared by all
coefficients.  The key operation is the substitution z -> z*q^j, which
multiplies the coefficient of z^d by q^(j*d).
"""

from dataclasses import dataclass

from . import fps
from .fps import QSeries


@dataclass(frozen=True)
class ZPolynomial:
    """Polynomial in z over the truncated q-series ring.

    ``zcoeffs[d]`` is the coefficient of z^d.  The zero polynomial is
    stored as an empty tuple; otherwise the leading coefficient is a
    nonzero series, so equal values compare equal structurally.
    """

    qorder: int
    zcoeffs: tuple[QSeries, ...]

    def __post_init__(self):
        if self.qorder < 0:
            raise ValueError("qorder must be non-negative, got %d" % self.qorder)
        for c in self.zcoeffs:
            if c.order != self.qorder:
                raise ValueError(
                    "coefficient order %d differs from qorder %d"
                    % (c.order, self.qorder)
                )
        if self.zcoeffs and self.zcoeffs[-1].is_zero():
            raise ValueError("leading z-coefficient must be nonzero (unnormalized)")

    @classmethod
    def from_zcoeffs(cls, qorder: int, coeffs) -> "ZPolynomial":
        """Build from a sequence of QSeries, trimming trailing zero series."""
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        return cls(qorder, tuple(cs))

    @classmethod
    def from_terms(cls, qorder: int, terms: dict[tuple[int, int], int]) -> "ZPolynomial":
        """Build from {(z_degree, q_power): coefficient}."""
        if not terms:
            return cls(qorder, ())
        zdeg = max(d for d, _ in terms)
        rows: list[list[tuple[int, int]]] = [[] for _ in range(zdeg + 1)]
        for (d, k), c in terms.items():
            rows[d].append((k, c))
        return cls.from_zcoeffs(
            qorder, [fps.from_support(qorder, row) for row in rows]
        )

    @property
    def zdegree(self) -> int:
        """Degree in z; -1 for the zero polynomial."""
        return len(self.zcoeffs) - 1

    def zcoeff(self, d: int) -> QSeries:
        """Coefficient of z^d (zero series beyond the stored degree)."""
        if d < len(self.zcoeffs):
            return self.zcoeffs[d]
        return fps.zero(self.qorder)

    def is_zero(self) -> bool:
        return not self.zcoeffs

    def __add__(self, other: "ZPolynomial") -> "ZPolynomial":
        return zadd(self, other)

    def __sub__(self, other: "ZPolynomial") -> "ZPolynomial":
        return zadd(self, zscale(other, -1))

    def __str__(self) -> str:
        terms = []
        for d, series in enumerate(self.zcoeffs):
            for k, c in enumerate(series.coeffs):
                if c:
                    terms.append((d, k, c))
        if not terms:
            return "0"
        parts = []
        for d, k, c in terms:
            zpart = "" if d == 0 else ("z" if d == 1 else "z^%d" % d)
            qpart = "" if k == 0 else ("q" if k == 1 else "q^%d" % k)
            body = zpart + qpart
            mag = abs(c)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = "%d%s" % (mag, body)
            parts.append(("-" if c < 0 else "+") + piece)
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text

    def to_json_list(self) -> list:
        """JSON form: list of QSeries renderings indexed by z-degree."""
        return [c.to_json_dict() for c in self.zcoeffs]


def z_one(qorder: int) -> ZPolynomial:
    return ZPolynomial(qorder, (fps.one(qorder),))


def _check_qorders(a: ZPolynomial, b: ZPolynomial) -> None:
    if a.qorder != b.qorder:
        raise ValueError("mismatched qorders: %d vs %d" % (a.qorder, b.qorder))


def zadd(a: ZPolynomial, b: ZPolynomial) -> ZPolynomial:
    _check_qorders(a, b)
    width = max(len(a.zcoeffs), len(b.zcoeffs))
    return ZPolynomial.from_zcoeffs(
        a.qorder, [a.zcoeff(d) + b.zcoeff(d) for d in range(width)]
    )


def zscale(a: ZPolynomial, c: int) -> ZPolynomial:
    return ZPolynomial.from_zcoeffs(a.qorder, [c * s for s in a.zcoeffs])


def zshift(a: ZPolynomial, k: int, m: int) -> ZPolynomial:
    """Multiply by z^k * q^m."""
    if k < 0 or m < 0:
        raise ValueError("zshift powers must be non-negative")
    padding = [fps.zero(a.qorder)] * k
    return ZPolynomial.from_zcoeffs(
        a.qorder, padding + [fps.shift(c, m) for c in a.zcoeffs]
    )


def subst_zq(p: ZPolynomial, j: int) -> ZPolynomial:
    """Substitute z -> z*q^j: the coefficient of z^d picks up a factor q^(j*d)."""
    if j < 0:
        raise ValueError("substitution power must be non-negative, got %d" % j)
    if j == 0:
        return p
    return ZPolynomial.from_zcoeffs(
        p.qorder, [fps.shift(c, j * d) for d, c in enumerate(p.zcoeffs)]
    )


def eval_z_at_qpow(p: ZPolynomial, t: int) -> QSeries:
    """Set z = q^t (t = 0 means z = 1) and collapse to a single q-series."""
    if t < 0:
        raise ValueError("evaluation power must be non-negative, got %d" % t)
    acc = fps.zero(p.qorder)
    for d, c in enumerate(p.zcoeffs):
        acc = acc + fps.shift(c, t * d)
    return acc
