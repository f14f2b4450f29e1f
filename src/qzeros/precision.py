"""Scalar precision contexts.

All numerical kernels in this package are written against plain arithmetic
(+, -, *, /, integer **, abs) so the same code runs on binary64 complex and
on mpmath arbitrary-precision complex, and on NumPy arrays of either. A
PrecisionContext carries the scalar constructor, the array dtype, the complex
elementary functions, the machine epsilon and size, the magnitude that
scales, normalisers and relative gaps (rel_gap, and rel_gaps over arrays)
are taken with.

Precision is a property of the values, not of the process: an extended
context owns a private mpmath context, whose precision the scalars it
converts carry through all their arithmetic. mpmath's global precision is
never touched. A function computes in its inputs' precision (context_of
reads it from a value); the command line converts q, alpha and beta once
(params.in_context), and everything downstream follows.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

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
    def size(self):
        """|x| for scales, which need a few digits, not 50: builtin abs in
        binary64; for extended x, |x| as a float where binary64 holds it,
        else in the scalar type, so that 1e400 stays 1e400."""
        return abs if self.mp is None else _extended_size

    def sizes(self, values) -> np.ndarray:
        """size of each entry of the array values: a float array (binary64
        moduli that overflow read inf), an object array where a nonzero
        extended size leaves binary64 range."""
        return self._exact_far(np.abs(np.asarray(values, dtype=complex)), values)

    def _hypot_sizes(self, values) -> np.ndarray:
        """sizes with the binary64 moduli np.hypot of the parts, as builtin
        abs takes them."""
        parts = np.asarray(values, dtype=complex)
        return self._exact_far(np.hypot(parts.real, parts.imag), values)

    def _exact_far(self, mags, values) -> np.ndarray:
        """mags, the binary64 moduli of the values, with each extended
        modulus outside [TINY, inf) taken again in the scalar type."""
        if self.mp is None:
            return mags
        far = ~((mags >= TINY) & (mags < math.inf))
        if far.any():
            exact = [abs(v) for v in np.asarray(values)[far]]
            mags = mags.astype(object) if any(exact) else mags
            mags[far] = exact
        return mags

    @property
    def dtype(self):
        """NumPy dtype of arrays of this context's scalars (object: mpc)."""
        return complex if self.mp is None else object

    @property
    def elementary(self):
        """log, exp and pi of this context's scalars: cmath, or the mpmath context."""
        return cmath if self.mp is None else self.mp

    @property
    def root_step_tol(self) -> float:
        # 1e-14 at binary64, scaled with eps elsewhere
        return 1e-14 * (self.eps / _F64_EPS)


def _extended_size(x):
    try:
        mag = abs(complex(x))
    except OverflowError:  # both parts finite, the modulus beyond binary64
        return abs(x)
    return mag if TINY <= mag < math.inf else abs(x)


F64 = PrecisionContext(eps=_F64_EPS)


def extended(dps: int = 50) -> PrecisionContext:
    """Context whose scalars carry dps significant digits, one per dps."""
    return _extended(dps)


# cached on dps alone, not on the call form, so extended() is extended(50); a
# fresh mpmath context per escalation is slow and leaves cyclic garbage behind
@functools.cache
def _extended(dps: int) -> PrecisionContext:
    private = mpmath.MPContext()
    private.dps = dps
    return PrecisionContext(eps=float(private.power(10, 1 - dps)), mp=private)


def context_of(x) -> PrecisionContext:
    """The context the scalar x computes in: extended(dps) for an mpmath
    scalar of dps digits, F64 for any other number."""
    mp = getattr(x, "context", None)
    return F64 if mp is None else extended(mp.dps)


def rel_gap(a, b) -> float:
    """The gap of a from b, size(a - b) / max(1, size(b)), in a - b's precision."""
    d = a - b
    size = context_of(d).size
    return float(size(d) / max(1.0, size(b)))


@np.errstate(over="ignore", invalid="ignore")
def rel_gaps(a, b) -> np.ndarray:
    """rel_gap of each entry of the array a from the entry of b broadcast
    against it, as a float array equal to rel_gap entry by entry, bit for bit.

    The binary64 moduli are np.hypot of the parts, not np.abs: builtin abs
    of a complex is the C hypot, and NumPy's vectorised complex abs differs
    from it in the last bit on about a fifth of random inputs. As in
    rel_gap, a NaN size of b counts as 1 (np.fmax is builtin max(1.0, x)),
    and an extended modulus outside [TINY, inf) is taken in the scalar
    type, the quotient too."""
    d = np.subtract(a, b)
    ctx = context_of(d.flat[0])
    return np.asarray(ctx._hypot_sizes(d) / np.fmax(ctx._hypot_sizes(b), 1.0), dtype=float)
