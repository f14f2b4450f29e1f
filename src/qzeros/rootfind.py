"""Simultaneous zero finding with a distinctness certificate.

find_zeros runs the Aberth-Ehrlich simultaneous iteration (cubic local
convergence) from a geometric-spiral initial configuration tuned to the
quasi-geometric spread of this polynomial family's zeros, then polishes each
root with one Newton step. With extended coefficients the spiral start is
first solved in binary64, and the extended sweeps only finish from there.
companion_zeros is the independent cross-check oracle: eigenvalues of the
balanced companion matrix through the package's one eigensolve
(isospectral.certified_eigenvalues), which certifies, and if need be
escalates, on that matrix. balanced_companion builds it from the powers of
two of LAPACK zgebal's scaling loop, ported to the companion matrix's 2N - 1
nonzeros (_balancing_scale), so zeros needs no scipy. The two routes share
no code beyond polynomial evaluation. pairwise_gaps is the one array
every separation test of the package reads, of zeros and of eigenvalues.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DegenerateZeros, NoConvergence, OverflowRisk
from .params import ParamSet
from .precision import F64, TINY, PrecisionContext, context_of
from .qseries import Poly, eval_poly_deriv

MAX_SWEEPS = 500
SEPARATION_FLOOR = 1e-8
F64_DEGREE_WARN = 12
F64_DEGREE_CAP = 16


@dataclass(frozen=True)
class ZeroSet:
    """N zeros plus the certificates downstream formulas rely on.

    min_separation: smallest pairwise distance over the largest zero magnitude.
    max_residual:   largest relative Newton correction |p/p'| / max(1, |zero|).
    """

    zeros: Tuple
    min_separation: float
    max_residual: float

    def __len__(self):
        return len(self.zeros)

    def __iter__(self):
        return iter(self.zeros)


def _modulus(z):
    """|z|; inf where a binary64 modulus overflows, as DLAPY2 reads it."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _canonical_order(zs) -> List:
    return sorted(zs, key=lambda z: (_modulus(z), cmath.phase(complex(z))))


@functools.cache
def _pairs(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of the pairs i < j of n values and the n x n index of
    each entry's pair, n (n - 1) / 2 on the diagonal; np.triu_indices: 30 us."""
    i, j = np.triu_indices(n, 1)
    slots = np.full((n, n), len(i))
    slots[i, j] = slots[j, i] = range(len(i))
    return i, j, slots


def pairwise_gaps(values) -> np.ndarray:
    """ctx.sizes of one difference v_i - v_j per unordered pair of the
    values, as a symmetric N x N array with inf on the diagonal: the array
    every separation test reads, each written so that a NaN gap fails it."""
    ctx = context_of(values[0])
    values = np.asarray(values, dtype=ctx.dtype)
    i, j, slots = _pairs(len(values))
    return np.concatenate((ctx.sizes(values[i] - values[j]), [math.inf]))[slots]


def relative_separation(zs, gaps=None) -> float:
    """Smallest entry of gaps (default pairwise_gaps(zs)) over the largest
    zero size: inf for one zero, NaN at a NaN zero wherever it sits (taken
    in floats: the minimum of an object array skips a NaN unless it is first)."""
    ctx = context_of(zs[0])
    scale = max(ctx.sizes(np.asarray(zs, dtype=ctx.dtype)).max(), TINY)
    return float(np.asarray((pairwise_gaps(zs) if gaps is None else gaps) / scale, dtype=float).min())


def _certify(zs, p: Poly) -> ZeroSet:
    """The ZeroSet of zs; DegenerateZeros when a zero is not finite or two
    zeros cannot be certified apart. A point of an unresolved cluster
    carries an error of about twice its Newton correction (which contracts
    by 1/2 toward a double zero), so a pair's certified gap is its gap less
    both bounds, gap_ij - 2 (step_i + step_j), from one pairwise_gaps; a NaN
    step (binary64 only) stays NaN in the minimum, its gaps being floats."""
    ctx = context_of(p.coeffs[0])
    z = np.asarray(zs, dtype=ctx.dtype)
    mags = ctx.sizes(z)
    if not (mags < math.inf).all():
        raise DegenerateZeros("a zero is not finite; the zero set is not resolved")
    val, der = eval_poly_deriv(p, z)
    steps = np.asarray(ctx.sizes(val) / np.maximum(ctx.sizes(der), TINY), dtype=float)
    gaps, scale = pairwise_gaps(z), max(mags.max(), TINY)
    certified = float((gaps - 2.0 * (steps[:, None] + steps)).min() / scale)
    if not certified > SEPARATION_FLOOR:
        raise DegenerateZeros(
            f"certified relative zero separation {certified:.3e} <="
            f" {SEPARATION_FLOOR:.0e}; near-coincident zeros are rejected,"
            " not resolved"
        )
    worst = float((steps / np.maximum(mags, 1.0)).max())
    return ZeroSet(tuple(zs), min_separation=float(gaps.min() / scale), max_residual=worst)


def _spiral_init(p: Poly, q, N: int, ctx: PrecisionContext) -> List:
    # |constant term|^(1/N) estimates the geometric mean of the zero moduli;
    # the |q|^{-(n-1)/2} ladder matches their quasi-geometric spread and the
    # 0.37 phase offset breaks symmetry locks of the simultaneous iteration.
    mag0 = abs(p.coeffs[0])
    if mag0 < TINY:
        mag0 = max(abs(c) for c in p.coeffs[:-1]) + 1.0
    # the root in the scalar type: an extended constant term beyond the
    # binary64 range would make rho inf and every start NaN
    rho = float(mag0 ** (1.0 / N))
    absq = float(abs(q))
    out = []
    for n in range(1, N + 1):
        radius = rho * absq ** (-(n - 1) / 2.0)
        angle = 2.0 * cmath.pi * (n + 0.37) / N
        out.append(ctx.convert(complex(radius * cmath.cos(angle), radius * cmath.sin(angle))))
    return out


def _aberth(p: Poly, zs: List, ctx: PrecisionContext) -> List:
    """Aberth-Ehrlich sweeps from the start zs in the scalars of ctx, then one
    Newton polish per root that the last sweep did not find at its noise
    floor (a root found there has not moved since, so its polish would
    evaluate p at the same point and skip the step); raises NoConvergence
    when the budget runs out."""
    zs = list(zs)
    N = len(zs)
    tol = ctx.root_step_tol
    size = ctx.size
    # sizes keep coefficients beyond the binary64 range in the scalar type,
    # or a float floor would be inf and settle every root
    abs_coeffs = [size(c) for c in p.coeffs]
    # a root is settled once |p(z)| sits at the Horner rounding floor; past
    # that point further corrections only shuffle noise (clustered zeros of
    # high-N small-|q| polynomials never reach the step tolerance otherwise)
    noise_factor = 4.0 * N * ctx.eps

    def noise_floor(z) -> float:
        for f in (size, abs):  # abs once float powers overflow
            mag, bound, power = f(z), 0.0, 1.0
            for cm in abs_coeffs:
                bound += cm * power
                power *= mag
            if bound < math.inf:
                break
        return noise_factor * bound

    converged = False
    for _ in range(MAX_SWEEPS):
        max_step = 0.0
        all_settled = True
        moving = []
        for n in range(N):
            val, der = eval_poly_deriv(p, zs[n])
            if size(val) <= noise_floor(zs[n]):
                continue
            moving.append(n)
            if der == 0:
                zs[n] = zs[n] * (1 + 1e-8) + 1e-8
                max_step = float("inf")
                all_settled = False
                continue
            w = val / der
            rep = 0 * w
            for m in range(N):
                if m != n:
                    rep = rep + 1 / (zs[n] - zs[m])
            denom = 1 - w * rep
            corr = w if denom == 0 else w / denom
            zs[n] = zs[n] - corr
            step = float(size(corr) / max(1.0, size(zs[n])))
            max_step = max(max_step, step)
            if step >= tol:
                all_settled = False
        if all_settled or max_step < tol:
            converged = True
            break
    if not converged:
        raise NoConvergence(
            f"Aberth-Ehrlich sweep budget {MAX_SWEEPS} exhausted (last step {max_step:.3e})"
        )

    for n in moving:
        val, der = eval_poly_deriv(p, zs[n])
        if der != 0 and size(val) > noise_floor(zs[n]):
            zs[n] = zs[n] - val / der
    return zs


def _binary64_start(p: Poly, spiral: List) -> List | None:
    """Zeros of p rounded to binary64, found from the spiral, as a start for
    the extended sweeps; None when they cannot serve as one (coefficients
    or zeros that are not finite, no convergence, or two zeros closer than
    SEPARATION_FLOOR, which the extended 1 / (z_n - z_m) cannot pull apart)."""
    p64 = Poly(tuple(complex(c) for c in p.coeffs), monic=True)
    if not all(cmath.isfinite(c) for c in p64.coeffs):
        return None
    try:
        zs = _aberth(p64, [complex(z) for z in spiral], F64)
    except NoConvergence:
        return None
    if not all(cmath.isfinite(z) for z in zs) or not relative_separation(zs) > SEPARATION_FLOOR:
        return None
    return zs


def find_zeros(p: Poly, params: ParamSet) -> ZeroSet:
    """All N zeros of the monic polynomial by Aberth-Ehrlich simultaneous iteration,
    in the precision of its coefficients.

    Converged when the largest relative correction drops below the context's
    step tolerance (1e-14 at binary64); budget MAX_SWEEPS sweeps; one Newton
    polish per root afterwards; output canonically ordered by (magnitude,
    phase) so repeated runs are deterministic.

    Extended coefficients are first rounded to binary64 and solved there
    from the spiral; the sweeps at the extended digits then start from
    those zeros, which the cubic convergence carries to the extended step
    tolerance in two or three sweeps (the float start, multiprecision
    finish of MPSolve; Bini & Fiorentino, Numer. Algorithms 23, 2000). When
    the binary64 zeros cannot serve as a start, the extended sweeps start
    from the spiral, as binary64 does.
    """
    if not p.monic:
        raise ValueError("find_zeros expects a monic polynomial")
    N = p.degree
    if N < 1:
        raise ValueError("degree must be at least 1")
    ctx = context_of(p.coeffs[0])
    if ctx.mp is None:
        if N > F64_DEGREE_CAP:
            raise OverflowRisk(
                f"degree {N} above the binary64 desk-scale cap {F64_DEGREE_CAP};"
                " use extended precision"
            )
        if N > F64_DEGREE_WARN:
            warnings.warn(
                f"degree {N} above {F64_DEGREE_WARN}: binary64 coefficient dynamic"
                " range degrades zero accuracy",
                RuntimeWarning,
                stacklevel=2,
            )

    zs = _spiral_init(p, params.q, N, ctx)
    if N == 1:
        zs = [-p.coeffs[0]]
        return _certify(_canonical_order(zs), p)
    if ctx.mp is not None:
        start = _binary64_start(p, zs)
        if start is not None:
            zs = [ctx.convert(z) for z in start]
    return _certify(_canonical_order(_aberth(p, zs, ctx)), p)


# LAPACK zgebal's limits for binary64: SFMIN1 = dlamch('S') / dlamch('P')
# = 2^-1022 / 2^-52, SFMIN2 = SFMIN1 times the radix, SFMAX = 1 / SFMIN
_SFMIN1 = 2.0**-970
_SFMAX1 = 2.0**970
_SFMIN2 = 2.0**-969
_SFMAX2 = 2.0**969


def _balancing_scale(low: Sequence[complex]) -> List[float]:
    """The powers of two d_i that LAPACK zgebal (job 'S', no permutation)
    picks for the companion matrix with last column -low, low the finite
    binary64 coefficients c_0..c_{N-1} of a monic polynomial.

    The scaling loop of zgebal verbatim (Parlett & Reinsch, Numer. Math. 13,
    1969, in the form LAPACK has used since 3.5; James, Langou & Lowery,
    arXiv:1401.5766): radix 2; the 2-norms c and r of column and row i,
    diagonal included (DZNRM2); ca and ra the moduli of their entries of
    largest |re| + |im|, the first on a tie (IZAMAX); the SFMIN/SFMAX guards;
    and the scaling kept only when it brings c + r below 0.95 of its old
    value. The entries are scaled in place, row i by 1/f and then column i
    by f, each part of an entry on its own (ZDSCAL), as LAPACK does. The
    matrix has 2N - 1 nonzeros: B[i, i - 1], held in sub[i], is the one entry
    of column i - 1, and row i holds it and B[i, N - 1], held in re[i] and
    im[i], only; so a visit costs O(1), the last column's O(N), and a
    sweep O(N). Those entries are finite, and so are their norms' sums,
    which makes zgebal's NaN exit unreachable.
    """
    n = len(low)
    sub = [1.0] * n  # sub[0] is no entry of the matrix
    re = [-c.real for c in low]
    im = [-c.imag for c in low]
    scale = [1.0] * n
    noconv = True
    while noconv:
        noconv = False
        for i in range(n):
            if i < n - 1:
                c = ca = sub[i + 1]
            else:
                c = math.hypot(*re, *im)
                sizes = [abs(x) + abs(y) for x, y in zip(re, im)]
                k = sizes.index(max(sizes))
                ca = _modulus(complex(re[k], im[k]))
            if i == 0:
                r = math.hypot(re[0], im[0])
                ra = _modulus(complex(re[0], im[0]))
            else:
                r = math.hypot(sub[i], re[i], im[i])
                if sub[i] >= abs(re[i]) + abs(im[i]):
                    ra = sub[i]
                else:
                    ra = _modulus(complex(re[i], im[i]))
            if c == 0 or r == 0:
                continue
            g = r / 2
            f = 1.0
            s = c + r
            # MAX(F, C, CA) < SFMAX2 and MIN(R, G, RA) > SFMIN2, spelt out
            while (
                c < g
                and f < _SFMAX2 and c < _SFMAX2 and ca < _SFMAX2
                and r > _SFMIN2 and g > _SFMIN2 and ra > _SFMIN2
            ):
                f *= 2
                c *= 2
                ca *= 2
                r /= 2
                g /= 2
                ra /= 2
            g = c / 2
            while (
                g >= r
                and r < _SFMAX2 and ra < _SFMAX2
                and f > _SFMIN2 and c > _SFMIN2 and g > _SFMIN2 and ca > _SFMIN2
            ):
                f /= 2
                c /= 2
                g /= 2
                ca /= 2
                r *= 2
                ra *= 2
            if c + r >= 0.95 * s:
                continue
            if f < 1 and scale[i] < 1 and f * scale[i] <= _SFMIN1:
                continue
            if f > 1 and scale[i] > 1 and scale[i] >= _SFMAX1 / f:
                continue
            g = 1 / f
            scale[i] *= f
            noconv = True
            sub[i] *= g
            re[i] *= g
            im[i] *= g
            if i < n - 1:
                sub[i + 1] *= f
            else:
                re = [v * f for v in re]
                im = [v * f for v in im]
    return scale


def balanced_companion(p: Poly) -> np.ndarray:
    """The companion matrix A of the monic p balanced, B = D^-1 A D, as an
    N x N array in the dtype of the coefficients' context.

    D holds the powers of two of _balancing_scale for the binary64 rounding
    of the coefficients, and B is built from its 2N - 1 nonzeros in the
    coefficients' own scalars: B[i, i - 1] = d_{i-1} / d_i and
    B[i, N - 1] = -c_i d_{N-1} / d_i, each part of -c_i scaled once by the
    exponent difference of d_{N-1} and d_i (in binary64 the product
    -c_i d_{N-1} can leave the normal range before the division brings it
    back, and d_{N-1} / d_i itself can overflow). Powers of two scale
    exactly, so B has A's spectrum exactly; in binary64 each entry is
    correctly rounded, and B is LAPACK's balanced matrix bit for bit
    wherever zgebal's in-place scaling stays in the normal range. A
    polynomial whose coefficients do not round to finite binary64 numbers
    is left unbalanced (D = I): no scaling brings such an entry into range.
    """
    if not p.monic:
        raise ValueError("balanced_companion expects a monic polynomial")
    N = p.degree
    ctx = context_of(p.coeffs[0])
    low = [complex(c) for c in p.coeffs[:-1]]
    scale = _balancing_scale(low) if all(cmath.isfinite(c) for c in low) else [1.0] * N
    d = np.array([ctx.convert(v) for v in scale], dtype=ctx.dtype)
    out = np.full((N, N), ctx.convert(0.0), dtype=ctx.dtype)
    out[range(1, N), range(N - 1)] = d[:-1] / d[1:]
    shift = [math.frexp(scale[-1])[1] - math.frexp(v)[1] for v in scale]
    ldexp, pair = (math.ldexp, complex) if ctx.mp is None else (ctx.mp.ldexp, ctx.mp.mpc)
    out[:, -1] = [pair(ldexp(-c.real, k), ldexp(-c.imag, k)) for c, k in zip(p.coeffs[:-1], shift)]
    return out


def companion_zeros(p: Poly) -> List:
    """Eigenvalues of the balanced companion matrix (independent oracle for
    find_zeros), in the precision of the coefficients.

    Balancing keeps the spectrum exactly and, for coefficients that span
    dozens of decades, is what makes the binary64 eigenpairs good enough to
    certify or to refine (Edelman & Murakami 1995): over the 50 suite cases
    2 balanced certificates exceed EIG_TARGET instead of 21 unbalanced, and
    unbalanced, the extended refinement fails on 14 of the 45 suite
    companion matrices with N > 1."""
    from .isospectral import certified_eigenvalues

    return _canonical_order(certified_eigenvalues(balanced_companion(p)))
