"""The dense form of ``zpoly``, used only as a test oracle, and the
test-only helpers of the row form.

``DenseZPolynomial`` stores every z-coefficient as a QSeries out to the
order, zeros included, and its operations are the plain QSeries ones.
``zpoly.ZPolynomial`` stores each coefficient trimmed to its true
q-degree; ``to_rows`` and ``to_dense`` translate between the two.
"""

from dataclasses import dataclass

from qrr import fps, zpoly
from qrr.fps import QSeries
from qrr.zpoly import ZPolynomial


@dataclass(frozen=True)
class DenseZPolynomial:
    """``zcoeffs[d]`` is the coefficient of z^d; the zero polynomial is the
    empty tuple, otherwise the leading coefficient is a nonzero series."""

    qorder: int
    zcoeffs: tuple[QSeries, ...]

    def __post_init__(self):
        if self.qorder < 0:
            raise ValueError("qorder must be non-negative, got %d" % self.qorder)
        for c in self.zcoeffs:
            if c.order != self.qorder:
                raise ValueError(
                    "coefficient order %d differs from qorder %d" % (c.order, self.qorder)
                )
        if self.zcoeffs and self.zcoeffs[-1].is_zero():
            raise ValueError("leading z-coefficient must be nonzero (unnormalized)")

    @classmethod
    def from_zcoeffs(cls, qorder, coeffs):
        """Build from a sequence of QSeries, trimming trailing zero series."""
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        return cls(qorder, tuple(cs))

    @classmethod
    def from_terms(cls, qorder, terms):
        """Build from {(z_degree, q_power): coefficient}."""
        if not terms:
            return cls(qorder, ())
        rows = [[] for _ in range(max(d for d, _ in terms) + 1)]
        for (d, k), c in terms.items():
            rows[d].append((k, c))
        return cls.from_zcoeffs(qorder, [fps.from_support(qorder, row) for row in rows])

    def zcoeff(self, d):
        """Coefficient of z^d (zero series beyond the stored degree)."""
        return self.zcoeffs[d] if d < len(self.zcoeffs) else fps.zero(self.qorder)

    def __str__(self):
        terms = [
            (d, k, c)
            for d, series in enumerate(self.zcoeffs)
            for k, c in enumerate(series.coeffs)
            if c
        ]
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

    def to_json_list(self):
        """JSON form: list of QSeries renderings indexed by z-degree."""
        return [c.to_json_dict() for c in self.zcoeffs]


def dense_zadd(a, b):
    if a.qorder != b.qorder:
        raise ValueError("mismatched qorders: %d vs %d" % (a.qorder, b.qorder))
    width = max(len(a.zcoeffs), len(b.zcoeffs))
    return DenseZPolynomial.from_zcoeffs(
        a.qorder, [a.zcoeff(d) + b.zcoeff(d) for d in range(width)]
    )


def dense_zscale(a, c):
    return DenseZPolynomial.from_zcoeffs(a.qorder, [c * s for s in a.zcoeffs])


def dense_zshift(a, k, m):
    """Multiply by z^k * q^m."""
    padding = [fps.zero(a.qorder)] * k
    return DenseZPolynomial.from_zcoeffs(a.qorder, padding + [fps.shift(c, m) for c in a.zcoeffs])


def dense_subst_zq(p, j):
    """Substitute z -> z*q^j: the coefficient of z^d picks up a factor q^(j*d)."""
    return DenseZPolynomial.from_zcoeffs(
        p.qorder, [fps.shift(c, j * d) for d, c in enumerate(p.zcoeffs)]
    )


def dense_eval_z_at_qpow(p, t):
    """Set z = q^t and collapse to a single q-series."""
    acc = fps.zero(p.qorder)
    for d, c in enumerate(p.zcoeffs):
        acc = acc + fps.shift(c, t * d)
    return acc


def to_rows(p):
    """The row form of a dense polynomial: each series cut after its last nonzero term."""
    def trimmed(cs):
        end = len(cs)
        while end and not cs[end - 1]:
            end -= 1
        return cs[:end]

    return ZPolynomial(p.qorder, tuple(trimmed(c.coeffs) for c in p.zcoeffs))


def to_dense(p):
    return DenseZPolynomial(p.qorder, tuple(QSeries.from_coeffs(row, p.qorder) for row in p.rows))


# The row form's test-only API, all through the dense form.

def from_terms(qorder, terms):
    """Build from {(z_degree, q_power): coefficient}, q_power <= qorder."""
    return to_rows(DenseZPolynomial.from_terms(qorder, terms))


def zscale(a, c):
    return to_rows(dense_zscale(to_dense(a), c))


def zsub(a, b):
    return zpoly.zadd(a, zscale(b, -1))


def zcoeff(p, d):
    """Coefficient of z^d as a QSeries at the polynomial's order."""
    return to_dense(p).zcoeff(d)


def to_json_list(p):
    return to_dense(p).to_json_list()
