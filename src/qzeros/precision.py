"""Scalar precision contexts.

All numerical kernels in this package are written against plain arithmetic
(+, -, *, /, integer **, abs) so the same code runs on binary64 complex and
on mpmath arbitrary-precision complex, and on NumPy arrays of either. A
PrecisionContext carries the scalar constructor, the array dtype, the complex
elementary functions, the machine epsilon and size, the magnitude that
scales, normalisers and relative gaps (rel_gaps) are taken with. Every
binary64 modulus is the C hypot of the two parts, as builtin abs of a
complex takes it, so sizes equals size value by value.

A third scalar type, Dyadic, holds an extended value as Gaussian integers
over a power of two, with +, - and * and no division, at one of two widths.
ctx.exact reads an array of extended values into it at no width: there
its arithmetic is exact (in binary64 ctx.exact returns the complex array
unchanged), and ctx.convert rounds a Dyadic back once. The division-free
checks form their sums in it: the q-difference equation's coefficients
(qdiff.qde_checks), the zero identities at the zeros (zero_algebra) and
the traces (isospectral.matrix_power_traces), so at extended digits they
round only their inputs and what they return.

ctx.carried reads values at the width 3 * prec, prec being the context's
bits: each +, - and * keeps the top 3 * prec bits of its integer parts.
That is the reading of the kernel route (zero_algebra.KernelCache,
isospectral.build_M and flow.jacobian_fd), whose integers would grow with
every product; its reciprocals stay mpc divisions, read in once, and M
and the Jacobian leave it through ctx.rounded, one rounding each.

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
from typing import List, Tuple

import mpmath
import numpy as np
from mpmath.libmp import from_float, from_man_exp, fzero, round_nearest

_F64_EPS = 2.220446049250313e-16

# floor for magnitudes used as divisors and scales
TINY = 1e-300


@dataclass(frozen=True)
class PrecisionContext:
    eps: float
    # private mpmath context of an extended context; None for binary64
    mp: mpmath.MPContext | None = None

    def convert(self, x):
        """Coerce an arbitrary numeric into this context's scalar type; a
        Dyadic is rounded once, each part to nearest."""
        if self.mp is None:
            return complex(x)
        if isinstance(x, Dyadic):
            prec = self.mp.prec
            return self.mp.make_mpc(tuple(from_man_exp(m, x.exp, prec, round_nearest) for m in (x.re, x.im)))
        return self.mp.mpc(x)

    def exact(self, values) -> np.ndarray:
        """The array values in exact arithmetic: the complex array in
        binary64, whose arithmetic stays as it is; at extended digits an
        object array of Dyadic at no width."""
        return self._read(values, None)

    def carried(self, values) -> np.ndarray:
        """The array values in carried arithmetic: the complex array in
        binary64, as ctx.exact; at extended digits an object array of
        Dyadic at CARRIED_WIDTH times the context's bits, each value read
        exactly and cut to that width."""
        return self._read(values, None if self.mp is None else CARRIED_WIDTH * self.mp.prec)

    def rounded(self, values) -> np.ndarray:
        """The array values back in this context's scalars: unchanged in
        binary64, each Dyadic rounded once by convert at extended digits."""
        if self.mp is None:
            return values
        return np.array([self.convert(v) for v in values.flat], dtype=object).reshape(values.shape)

    def _read(self, values, width) -> np.ndarray:
        """Each value of the array values as a Dyadic of the given width,
        read from its own parts if it is one, else from its raw mpf parts
        (_parts); the complex array in binary64."""
        if self.mp is None:
            return np.asarray(values, dtype=complex)
        values = np.asarray(values, dtype=object)
        read = []
        for v in values.flat:
            (re, im), exp = ((v.re, v.im), v.exp) if type(v) is Dyadic else _aligned(_parts(v, self.mp))
            read.append(Dyadic(re, im, exp, self.mp, width))
        return np.array(read, dtype=object).reshape(values.shape)

    @property
    def size(self):
        """|x| for scales, which need a few digits, not 50: builtin abs in
        binary64; for extended x, |x| as a float where binary64 holds it,
        else in the scalar type, so that 1e400 stays 1e400."""
        return abs if self.mp is None else _extended_size

    def sizes(self, values) -> np.ndarray:
        """size of each entry of the array values, equal to it bit for bit:
        a float array (binary64 moduli that overflow read inf), an object
        array where a nonzero extended size leaves binary64 range. The
        binary64 moduli are np.hypot of the parts, not np.abs: builtin abs
        of a complex is the C hypot, and NumPy's vectorised complex abs
        differs from it in the last bit on about a fifth of random inputs."""
        parts = np.asarray(values, dtype=complex)
        if self.mp is None:
            return np.hypot(parts.real, parts.imag)
        with np.errstate(over="ignore"):  # such a modulus is taken again below
            mags = np.hypot(parts.real, parts.imag)
        # each extended modulus outside [TINY, inf) again in the scalar type
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
        mag = math.inf
    return mag if TINY <= mag < math.inf else abs(context_of(x).convert(x))


def _parts(x, mp) -> Tuple:
    """The raw mpf values (sign, man, exp, bc) of x's real and imaginary
    parts, read exactly: an mpc's own, a binary64 complex's by from_float,
    any other number's through mp.convert. The one reader of values as raw
    parts, which _aligned turns into integers."""
    parts = getattr(x, "_mpc_", None)
    if parts is None and isinstance(x, complex):
        return from_float(x.real), from_float(x.imag)
    if parts is None:
        x = mp.convert(x)
        parts = getattr(x, "_mpc_", None) or (x._mpf_, fzero)
    return parts


def _aligned(parts) -> Tuple[List[int], int]:
    """The raw mpf values parts, (sign, man, exp, bc), as integers over their
    smallest exponent E: a list of +-man 2^(exp - E), and E. The one reader
    of mpf values as integers; inf and nan, which have no integer form (their
    man is 0), raise ValueError."""
    E = min([exp for _, man, exp, _ in parts if man], default=0)
    ints = []
    for sign, man, exp, _ in parts:
        if exp and not man:
            raise ValueError("an infinite or NaN mpf value has no integer form")
        ints.append((-man if sign else man) << (exp - E) if man else 0)
    return ints, E


def _float(m: int, e: int) -> float:
    """m 2^e rounded once to binary64, +-inf beyond its range."""
    try:
        return m / (1 << -e) if e < 0 else float(m << e)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


# the bits a carried Dyadic keeps, in units of its context's bits: a product
# cut to W = 3 prec bits errs by less than 2^(1 - W) of itself, so a sum of
# T of them rounds to within an ulp of the exact sum unless it cancels by
# more than about 2^(W - prec) / T, 2 prec bits (about 100 digits at 50)
CARRIED_WIDTH = 3


class Dyadic:
    """The value (re + i im) 2^exp of an extended context, re and im Python
    integers carried at a width: None holds them exactly (ctx.exact),
    an integer width cuts them to their top `width` bits (ctx.carried) by
    floor shifts, the dropped bits moving into exp, whenever a value is
    formed. +, - and * (with int operands and Dyadic operands of the same
    width) return a Dyadic of that width: exact at no width, within
    2^(1 - width) of the exact result at one, so the integers of a long
    product chain stay at the width where exact ones would grow with every
    factor. Integer powers >= 0 are exact, and a carried value has none.
    Division would round and raises TypeError, as does mixing widths or a
    rounding scalar. complex() rounds each part once to binary64, abs is
    the context's size, and context is the mpmath context of the values it
    was read from, so context_of and ctx.sizes read it as they read those
    values.

    Kernels take their inputs through ctx.exact or ctx.carried once, run
    their generic code, and leave with sizes, ctx.convert or ctx.rounded,
    one rounding each. Exact integers grow with every product (Kulisch,
    Computer Arithmetic and Validity, 2008: an exact dot product rounded
    once), which for the short Horner passes and products of this package
    costs less than an mpmath product rounded at every step on its
    pure-Python backend."""

    __slots__ = ("re", "im", "exp", "context", "width")

    def __init__(self, re: int, im: int, exp: int, context, width: int | None = None):
        if width is not None and (cut := max(re.bit_length(), im.bit_length()) - width) > 0:
            re, im, exp = re >> cut, im >> cut, exp + cut
        self.re, self.im, self.exp, self.context, self.width = re, im, exp, context, width

    def _int(self, other):
        """An int operand as a Dyadic of self's width; NotImplemented for
        any other operand but a Dyadic of that width: another width, or a
        rounding scalar."""
        return Dyadic(other, 0, 0, self.context, self.width) if isinstance(other, int) else NotImplemented

    def __add__(self, other):
        if type(other) is not Dyadic or other.width != self.width:
            if (other := self._int(other)) is NotImplemented:
                return other
        shift = self.exp - other.exp
        if shift >= 0:
            return Dyadic(
                (self.re << shift) + other.re, (self.im << shift) + other.im, other.exp, self.context, self.width
            )
        return Dyadic(
            self.re + (other.re << -shift), self.im + (other.im << -shift), self.exp, self.context, self.width
        )

    __radd__ = __add__

    def __neg__(self):
        return Dyadic(-self.re, -self.im, self.exp, self.context, self.width)

    def __sub__(self, other):
        if type(other) is not Dyadic or other.width != self.width:
            if (other := self._int(other)) is NotImplemented:
                return other
        shift = self.exp - other.exp
        if shift >= 0:
            return Dyadic(
                (self.re << shift) - other.re, (self.im << shift) - other.im, other.exp, self.context, self.width
            )
        return Dyadic(
            self.re - (other.re << -shift), self.im - (other.im << -shift), self.exp, self.context, self.width
        )

    def __rsub__(self, other):
        if (other := self._int(other)) is NotImplemented:
            return other
        return other - self

    def __mul__(self, other):
        if type(other) is not Dyadic or other.width != self.width:
            if (other := self._int(other)) is NotImplemented:
                return other
        a, b, c, d = self.re, self.im, other.re, other.im
        return Dyadic(a * c - b * d, a * d + b * c, self.exp + other.exp, self.context, self.width)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if self.width is not None:
            raise TypeError("a carried Dyadic has no power; take it in the scalar type, then ctx.carried")
        if not isinstance(n, int) or n < 0:
            raise TypeError(f"a Dyadic power must be an integer >= 0, not {n!r}")
        out, base = Dyadic(1, 0, 0, self.context), self
        while n:
            if n & 1:
                out = out * base
            base, n = base * base, n >> 1
        return out

    def __truediv__(self, other):
        raise TypeError("Dyadic arithmetic has no division; round with ctx.convert first")

    __rtruediv__ = __truediv__

    def __complex__(self) -> complex:
        return complex(_float(self.re, self.exp), _float(self.im, self.exp))

    __abs__ = _extended_size

    def __repr__(self) -> str:
        return f"Dyadic({self.re}, {self.im}, {self.exp}, width={self.width})"


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


@np.errstate(over="ignore", invalid="ignore")
def rel_gaps(a, b) -> np.ndarray:
    """The gap of each entry of the array a from the entry of b broadcast
    against it, size(a - b) / max(1, size(b)) in a - b's precision, as a
    float array. sizes is size entry by entry, so each gap is the one the
    scalar formula gives, bit for bit. A NaN size of b counts as 1 (np.fmax
    is builtin max(1.0, x)), and an extended modulus outside [TINY, inf) is
    taken in the scalar type, the quotient too."""
    d = np.subtract(a, b)
    ctx = context_of(d.flat[0])
    return np.asarray(ctx.sizes(d) / np.fmax(ctx.sizes(b), 1.0), dtype=float)
