"""Scalar precision contexts.

All numerical kernels in this package are written against plain arithmetic
(+, -, *, /, integer **, abs) so the same code runs on binary64 complex and
on mpmath arbitrary-precision complex, and on NumPy arrays of either. A
PrecisionContext carries the scalar constructor, the array dtype, the
machine epsilon and size, the magnitude that scales, normalisers and
relative gaps (rel_gaps) are taken with. Every
binary64 modulus is the C hypot of the two parts, as builtin abs of a
complex takes it, so sizes equals size value by value. An extended value
is rounded to binary64 from its raw mpf parts (binary64), bit for bit the
rounding of mpmath's complex() without its scalar layer.

A third scalar type, Dyadic, holds an extended value as Gaussian integers
over a power of two, with +, - and *, at one of two widths.
ctx.exact reads an array of extended values into it at no width: there
its arithmetic is exact (in binary64 ctx.exact returns the complex array
unchanged), and ctx.convert rounds a Dyadic back once. The division-free
checks form their sums in it: the q-difference equation's coefficients
(qdiff.qde_checks), the zero identities at the zeros (zero_algebra) and
the traces (isospectral.matrix_power_traces), so at extended digits they
round only their inputs and what they return.

ctx.carried reads values at the width 3 * prec, prec being the context's
bits: each +, - and * keeps the top 3 * prec bits of its integer parts,
and 1 / x is one integer division rounded to that width. That is the
reading of the kernel route, whose integers would grow with every
product: zero_algebra.KernelCache reads the zeros in once, divides there
once a pair (reciprocal_table) and forms the kernel tables and their
weighted sum, which isospectral.build_M reads, and the flow (flow_rhs and
the dual numbers of jacobian_fd) reads its configuration the same way;
M and the Jacobian leave it through ctx.rounded, one rounding each.
isospectral.logdet_gap forms the determinant ratio in it too, each 1 / mu_n
a carried reciprocal.

Precision is a property of the values, not of the process: an extended
context owns a private mpmath context, whose precision the scalars it
converts carry through all their arithmetic. mpmath's global precision is
never touched. A function computes in its inputs' precision (context_of
reads it from a value); the command line converts q, alpha and beta once
(params.in_context), and everything downstream follows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import mpmath
import numpy as np
from mpmath.libmp import from_float, from_man_exp, fzero, mpf_shift, round_nearest, to_float

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

    def ldexp(self, values, e: int) -> List:
        """The binary64 complex values times 2^e, a list of this context's
        scalars: exact at extended digits (raw mpf parts shifted), by
        math.ldexp in binary64."""
        if self.mp is None:
            return [complex(math.ldexp(v.real, e), math.ldexp(v.imag, e)) for v in values]
        return [self.mp.make_mpc(tuple(mpf_shift(from_float(p), e) for p in (v.real, v.imag))) for v in values]

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
        if self.mp is None:
            parts = np.asarray(values, dtype=complex)
            return np.hypot(parts.real, parts.imag)
        parts = binary64(values)
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
    def root_step_tol(self) -> float:
        # 1e-14 at binary64, scaled with eps elsewhere
        return 1e-14 * (self.eps / _F64_EPS)


def _extended_size(x):
    try:
        mag = abs(_binary64(x))
    except OverflowError:  # both parts finite, the modulus beyond binary64
        mag = math.inf
    return mag if TINY <= mag < math.inf else abs(context_of(x).convert(x))


def _part_float(part) -> float:
    """The raw mpf value part, (sign, man, exp, bc), rounded to binary64 as
    mpmath's complex() rounds each part (to_float at round_nearest), bit
    for bit: the builtin conversion of man rounds it once to 53 bits, half
    to even as mpmath's normalisation does, and math.ldexp then scales that
    same value, with the same second rounding in the subnormal range;
    +-inf where the scaling overflows. Zero, inf, nan and a mantissa too
    long for the builtin conversion go through to_float itself."""
    sign, man, exp, bc = part
    if not man or bc > 1000:
        return to_float(part, rnd=round_nearest)
    try:
        return math.ldexp(-man if sign else man, exp)
    except OverflowError:
        return -math.inf if sign else math.inf


def _binary64(x) -> complex:
    """x rounded to binary64, each part once to nearest: an mpc from its raw
    mpf parts (_part_float), equal to complex(x) bit for bit at a third of
    the cost of mpmath's complex(), which builds the rounding through its
    own scalar layer; a binary64 complex as it is, a Dyadic from its
    integer parts, any other number by complex()."""
    if type(x) is complex:
        return x
    if type(x) is Dyadic:
        return x.__complex__()
    parts = getattr(x, "_mpc_", None)
    if parts is None:
        return complex(x)
    return complex(_part_float(parts[0]), _part_float(parts[1]))


def binary64(values) -> np.ndarray:
    """The array values rounded to binary64 entry by entry (_binary64), as a
    complex array of its shape: np.asarray(values, dtype=complex) bit for
    bit, without mpmath's complex() for each mpc."""
    values = np.asarray(values)
    if values.dtype != object:
        return values.astype(complex, copy=False)
    return np.array([_binary64(v) for v in values.flat], dtype=complex).reshape(values.shape)


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
    """m 2^e rounded once to binary64, +-inf beyond its range: where the
    result is normal, the builtin conversion of m rounds it once and
    math.ldexp scales it exactly; elsewhere the integer division rounds once
    (ldexp of a rounded m would round a subnormal result twice)."""
    try:
        if m.bit_length() < 1024 and m.bit_length() + e > -1021:
            return math.ldexp(m, e)
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
    factor; -x is exact at any width. A carried value has a reciprocal,
    1 / x, within 2^(1 - width) of the exact one; any other division, and
    any division of an exact value, raises TypeError, as does mixing widths,
    a power or a rounding scalar. complex()
    rounds each part once to binary64, abs is the context's size, and
    context is the mpmath context of the values it was read from, so
    context_of and ctx.sizes read it as they read those values.

    Kernels take their inputs through ctx.exact or ctx.carried once, run
    their generic code, and leave with sizes, ctx.convert or ctx.rounded,
    one rounding each. Exact integers grow with every product (Kulisch,
    Computer Arithmetic and Validity, 2008: an exact dot product rounded
    once), which for the short Horner passes and products of this package
    costs less than an mpmath product rounded at every step on its
    pure-Python backend."""

    __slots__ = ("re", "im", "exp", "context", "width")

    def __init__(self, re: int, im: int, exp: int, context, width: int | None = None):
        if width is not None:
            # the longer part's bits past the width, by a conditional: the
            # builtin max() call costs more than the rest of a cut
            bits, other = re.bit_length(), im.bit_length()
            if (cut := (bits if bits > other else other) - width) > 0:
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
        # not cut again: a floor cut can leave a part at -2^width, whose
        # negation passes the width by one bit
        out = Dyadic(-self.re, -self.im, self.exp, self.context)
        out.width = self.width
        return out

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
        # three integer products (Knuth, TAOCP vol. 2, 4.6.4): with k1 = c (a + b),
        # ac - bd = k1 - b (c + d) and ad + bc = k1 + a (d - c), exactly
        a, b, c, d = self.re, self.im, other.re, other.im
        k1 = c * (a + b)
        return Dyadic(k1 - b * (c + d), k1 + a * (d - c), self.exp + other.exp, self.context, self.width)

    __rmul__ = __mul__

    def __truediv__(self, other):
        raise TypeError("Dyadic arithmetic divides only 1 by a carried value; round with ctx.convert first")

    def __rtruediv__(self, other):
        """1 / self at its width: conj(self) 2^s over |self|^2, one integer
        division a part rounded to nearest (Brent & Zimmermann, Modern
        Computer Arithmetic, 2010, ch. 1), within 2^(1 - width) of 1 / self."""
        if self.width is None or type(other) is not int or other != 1:
            return self.__truediv__(other)
        den = self.re * self.re + self.im * self.im
        # |quotient| in (2^(width - 3/2), 2^(width - 1/2)]: no part passes the width
        s = self.width + den.bit_length() // 2 - 1
        re, im = (((part << s + 1) + den) // (2 * den) for part in (self.re, -self.im))
        return Dyadic(re, im, -self.exp - s, self.context, self.width)

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
