"""Scalar precision contexts.

All numerical kernels in this package are written against plain arithmetic
(+, -, *, /, integer **, abs) so the same code runs on binary64 complex and
on mpmath arbitrary-precision complex. A PrecisionContext carries the scalar
constructor and the machine epsilon.

Precision is a property of the values, not of the process: an extended
context owns a private mpmath context, whose precision the scalars it
converts carry through all their arithmetic. mpmath's global precision is
never touched. A function computes in its inputs' precision (context_of
reads it from a value); the command line converts q, alpha and beta once
(params.in_context), and everything downstream follows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import mpmath

_F64_EPS = 2.220446049250313e-16

# floor for magnitudes used as divisors and scales
TINY = 1e-300


@dataclass(frozen=True)
class PrecisionContext:
    eps: float
    # private mpmath context of an extended context; None for binary64
    mp: mpmath.MPContext | None = None

    def convert(self, x):
        """Coerce an arbitrary numeric into this context's scalar type."""
        if self.mp is None:
            return complex(x)
        return self.mp.mpc(x)

    @property
    def root_step_tol(self) -> float:
        # 1e-14 at binary64, scaled with eps elsewhere
        return 1e-14 * (self.eps / _F64_EPS)


F64 = PrecisionContext(eps=_F64_EPS)


# one context per dps: contexts are never mutated, and building a fresh mpmath
# context on every escalation is slow and leaves cyclic garbage behind
@functools.cache
def extended(dps: int = 50) -> PrecisionContext:
    """Context whose scalars carry dps significant digits."""
    private = mpmath.MPContext()
    private.dps = dps
    eps = float(private.power(10, 1 - dps))
    return PrecisionContext(eps=eps, mp=private)


def context_of(x) -> PrecisionContext:
    """The context the scalar x computes in: extended(dps) for an mpmath
    scalar of dps digits, F64 for any other number."""
    mp = getattr(x, "context", None)
    return F64 if mp is None else extended(mp.dps)
