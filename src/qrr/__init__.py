"""qrr: exact q-series arithmetic and the Rogers-Ramanujan discovery pipeline.

Everything is exact integer (or exact rational) arithmetic over
truncated formal power series; the single floating-point computation in
the package is the golden-mean convergence diagnostic.
"""

__version__ = "0.1.0"
