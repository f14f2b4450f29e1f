"""Scalar precision contexts.

All numerical kernels in this package are written against plain arithmetic
(+, -, *, /, integer **, abs) so the same code runs on binary64 complex and
on mpmath arbitrary-precision complex. A PrecisionContext carries the scalar
constructor, the machine epsilon, and the tolerance scale factor relative to
binary64 (pass thresholds quoted in the contracts are binary64 thresholds;
extended precision tightens them by eps_ext / eps_f64).

Precision is a property of the values, not of the process: an extended
context owns a private mpmath context, whose precision the scalars it
converts carry through all their arithmetic. mpmath's global precision is
never touched.
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
    name: str
    eps: float
    # multiply any binary64 threshold by this to get the context's threshold
    tol_scale: float
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
        return 1e-14 * self.tol_scale


F64 = PrecisionContext(name="f64", eps=_F64_EPS, tol_scale=1.0)


# one context per dps: contexts are never mutated, and building a fresh mpmath
# context on every escalation is slow and leaves cyclic garbage behind
@functools.cache
def extended(dps: int = 50) -> PrecisionContext:
    """Context whose scalars carry dps significant digits."""
    private = mpmath.MPContext()
    private.dps = dps
    eps = float(private.power(10, 1 - dps))
    return PrecisionContext(name="extended", eps=eps, tol_scale=eps / _F64_EPS, mp=private)


def get_context(name: str) -> PrecisionContext:
    if name == "f64":
        return F64
    if name == "extended":
        return extended()
    raise ValueError(f"unknown precision context: {name!r}")
