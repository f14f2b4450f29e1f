"""Simultaneous zero finding with a distinctness certificate.

find_zeros runs the Aberth-Ehrlich simultaneous iteration (cubic local
convergence) from a geometric-spiral initial configuration tuned to the
quasi-geometric spread of this polynomial family's zeros; each root stops
once its own relative step falls below the context's step tolerance or it
sits at its noise floor, and the sweeps end when none is left moving. One
scalar pass, horner_floor, forms p, p' and that floor for the sweeps and
every Newton bound (_certify, the companion oracle). With extended
coefficients the spiral start is first solved in binary64, and Newton
finishes from there at the extended digits (_newton_finish): each pass
forms p and p' exactly on Gaussian integers, rounds their quotient once to
binary64 and subtracts it at the context's digits, so the zeros are those
of the extended polynomial to a unit or two of their last bit, and
_certify reads that last exact pass. Where a correction is not finite or
does not contract, extended Aberth sweeps finish the same start instead.
Every zero set find_zeros returns, in either precision and by either
route, passes _certify; a case at more digits (isospectral.Case of the
parameters in that context) takes its zeros from find_zeros too.
companion_zeros is the independent cross-check oracle: the eigenvalues of
the companion matrix, the zeros of p, finished by the same Newton where
their bounds ask for it. Its independence lies in the start, LAPACK's
QR iteration against Aberth from the spiral; reconstruction_gap (Vieta)
shares neither start nor finish. The start balances the matrix once, in
zgeev behind np.linalg.eigvals; only the oracle's eigenvalue fallback
builds the balanced rows itself (balanced_companion), from the powers of
two of scipy's LAPACK zgebal, so no zeros run that does not reach that
fallback imports scipy. The fallback's eigenvalues, by mpmath.eig, are
the start of a second Newton finish, and are returned raw only where
that finish declines too. pairwise_gaps is the one array every separation
test of the package reads, of zeros and of eigenvalues;
relative_separation reads each gap at its pair's scale.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from mpmath.libmp import from_float, mpf_add, round_nearest

from .errors import DegenerateZeros, NoConvergence, OverflowRisk
from .params import ParamSet
from .precision import F64, TINY, PrecisionContext, _aligned, _binary64, _part_float, _parts, binary64, context_of
from .qseries import Poly

MAX_SWEEPS = 500
SEPARATION_FLOOR = 1e-8
F64_DEGREE_WARN = 12
F64_DEGREE_CAP = 16
# the Newton finish: a correction above the settling level must be at most
# CONTRACTION times the one before it; a pass doubles a zero's correct bits,
# adding at most the 53 of its binary64 correction, so 3 + prec / NEWTON_BITS
# passes carry a binary64 start to the context's last bit with room to spare
CONTRACTION = 0.5
NEWTON_BITS = 48


@dataclass(frozen=True)
class ZeroSet:
    """N zeros plus the certificates downstream formulas rely on.

    min_separation: smallest pairwise distance over its pair's larger modulus.
    max_residual:   largest relative Newton correction |p/p'| / |zero|.
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


def _canonical_key(z) -> Tuple[float, float]:
    return _modulus(z), cmath.phase(_binary64(z))


def _canonical_order(zs) -> List:
    return sorted(zs, key=_canonical_key)


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


def _pair_scale(mags) -> np.ndarray:
    """max(|z_i|, |z_j|, TINY) for the sizes mags, N x N: the one scale."""
    return np.maximum(np.maximum.outer(mags, mags), TINY)


def relative_separation(zs, gaps=None, scale=None) -> float:
    """Smallest entry of gaps (default pairwise_gaps(zs)) over scale (default
    the zeros' _pair_scale), the one scale of every separation test: inf
    for one zero, NaN at a NaN zero wherever it sits (taken in floats: the
    minimum of an object array skips a NaN unless it is first)."""
    if scale is None:
        ctx = context_of(zs[0])
        scale = _pair_scale(ctx.sizes(np.asarray(zs, dtype=ctx.dtype)))
    return float(np.asarray((pairwise_gaps(zs) if gaps is None else gaps) / scale, dtype=float).min())


def horner_floor(p: Poly):
    """The zero finder's kernel, a function of z: p(z) and p'(z) of the
    monic p, qseries.eval_poly_deriv's scalar pass bit for bit, and in the
    same loop the rounding floor of that pass, 4 N eps sum_k |c_k| |z|^k
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 5), in
    ctx.size floats, or again in the scalar type (abs) once a float power
    overflows, so that an extended floor stays finite."""
    ctx = context_of(p.coeffs[0])
    size, factor = ctx.size, 4.0 * p.degree * ctx.eps
    sizes = [size(c) for c in p.coeffs]
    lead, below = p.coeffs[-1], p.coeffs[-2]
    # c_{N-2}..c_0 for Horner beside |c_0|..|c_{N-2}| for the floor, whose
    # sum ends at |c_{N-1}| and |c_N|
    terms, (below_size, lead_size) = list(zip(p.coeffs[-3::-1], sizes)), sizes[-2:]

    def point(z):
        acc, dacc, mag = z + below, lead, size(z)
        bound, power = 0.0, 1.0
        for c, cm in terms:
            dacc = z * dacc + acc
            acc = z * acc + c
            bound, power = bound + cm * power, power * mag
        bound, power = bound + below_size * power, power * mag
        bound = bound + lead_size * power
        if not bound < math.inf:
            bound, power, mag = 0.0, 1.0, abs(z)
            for cm in sizes:
                bound, power = bound + cm * power, power * mag
        return acc, dacc, factor * bound

    return point


def _newton_bounds(p: Poly, zs: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """|p/p'| at each of zs and its first-order bound on the distance to a
    zero of p, (|p| + floor) / |p'|, from one horner_floor pass a value."""
    ctx = context_of(p.coeffs[0])
    val, der, floor = zip(*map(horner_floor(p), zs))
    val, der = ctx.sizes(val), np.maximum(ctx.sizes(der), TINY)
    return val / der, (val + floor) / der


def _certify(zs, p: Poly, steps: Sequence[float] | None = None) -> ZeroSet:
    """The ZeroSet of zs in canonical order (by modulus, then phase), so
    repeated runs are deterministic; DegenerateZeros when a zero is not
    finite or two zeros cannot be certified apart. steps are the Newton
    corrections |p/p'| at zs where the caller has them (the Newton finish's
    last exact pass), else taken here, one horner_floor pass a zero, with
    their bounds (_newton_bounds).
    A point of an unresolved cluster carries an error of about twice its
    bound (the correction contracts by 1/2 toward a double zero), so a
    pair's certified gap is gap_ij - 2 (bound_i + bound_j), read with the
    raw gap at the pair's scale (_pair_scale, formed once), and max_residual
    each step at its zero's modulus. A NaN step (binary64 only) stays NaN."""
    ctx = context_of(p.coeffs[0])
    order = sorted(range(len(zs)), key=lambda n: _canonical_key(zs[n]))
    zs = [zs[n] for n in order]
    z = np.asarray(zs, dtype=ctx.dtype)
    mags = ctx.sizes(z)
    if not (mags < math.inf).all():
        raise DegenerateZeros("a zero is not finite; the zero set is not resolved")
    if steps is None:
        steps, bounds = _newton_bounds(p, zs)
    else:
        steps = bounds = np.array([steps[n] for n in order], dtype=float)
    gaps, scale = pairwise_gaps(z), _pair_scale(mags)
    certified = relative_separation(z, gaps - 2.0 * (bounds[:, None] + bounds), scale)
    if not certified > SEPARATION_FLOOR:
        raise DegenerateZeros(
            f"certified relative zero separation {certified:.3e} <="
            f" {SEPARATION_FLOOR:.0e}; near-coincident zeros are rejected,"
            " not resolved"
        )
    worst = float(np.asarray(steps / np.maximum(mags, TINY), dtype=float).max())
    return ZeroSet(tuple(zs), min_separation=relative_separation(z, gaps, scale), max_residual=worst)


def _spiral_init(p: Poly, q, N: int) -> List[complex]:
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
        out.append(complex(radius * cmath.cos(angle), radius * cmath.sin(angle)))
    return out


def _aberth(p: Poly, zs: List, ctx: PrecisionContext) -> List:
    """Aberth-Ehrlich sweeps from the start zs in the scalars of ctx over
    the roots still moving (Bini & Fiorentino, Numer. Algorithms 23, 2000).
    A root stops, and is not evaluated again, once |p| sits at its noise
    floor (horner_floor; clustered zeros of high-N small-|q| polynomials
    never reach the step tolerance otherwise) or its own step at its
    modulus is below ctx.root_step_tol or NaN. Returns when none is left
    moving; NoConvergence when the budget runs out."""
    zs = list(zs)
    N = len(zs)
    tol, size, point = ctx.root_step_tol, ctx.size, horner_floor(p)
    moving = range(N)
    for _ in range(MAX_SWEEPS):
        still = []
        for n in moving:
            z = zs[n]
            val, der, floor = point(z)
            if size(val) <= floor:
                continue
            if der == 0:
                zs[n] = z * (1 + 1e-8) + 1e-8
                still.append(n)
                continue
            w = val / der
            rep = 0 * w
            for m in range(N):
                if m != n:
                    rep = rep + 1 / (z - zs[m])
            denom = 1 - w * rep
            corr = w if denom == 0 else w / denom
            zs[n] = z - corr
            if float(size(corr) / max(size(zs[n]), TINY)) >= tol:
                still.append(n)
        moving = still
        if not moving:
            return zs
    raise NoConvergence(f"Aberth-Ehrlich sweep budget {MAX_SWEEPS} exhausted ({len(moving)} of {N} roots moving)")


def _binary64_start(p: Poly, spiral: List) -> List | None:
    """Zeros of p rounded to binary64, found from the spiral, as a start for
    the extended finish; None when they cannot serve as one (coefficients
    or zeros that are not finite, no convergence, or two zeros closer than
    SEPARATION_FLOOR at their scale, which extended sweeps cannot part)."""
    p64 = Poly(tuple(_binary64(c) for c in p.coeffs), monic=True)
    if not all(cmath.isfinite(c) for c in p64.coeffs):
        return None
    try:
        zs = _aberth(p64, spiral, F64)
    except NoConvergence:
        return None
    if not all(cmath.isfinite(z) for z in zs) or not relative_separation(zs) > SEPARATION_FLOOR:
        return None
    return zs


def _quotient(a_re: int, a_im: int, b_re: int, b_im: int, e: int) -> complex:
    """(a / b) 2^e for the Gaussian integers a and b, each part rounded once
    to binary64: a conj(b) / |b|^2, both parts scaled by one power of two
    2^s that brings the larger near 2^64, divided by the builtin integer
    division (correctly rounded) and scaled back by 2^(e - s), which is
    exact unless the part is subnormal. A part beyond the binary64 range
    is inf, and b = 0 gives nan."""
    den = b_re * b_re + b_im * b_im
    if not den:
        return complex(math.nan, math.nan)
    num = (a_re * b_re + a_im * b_im, a_im * b_re - a_re * b_im)
    s = den.bit_length() - max(abs(v).bit_length() for v in num) + 64
    try:
        return complex(*(math.ldexp((v << s) / den if s >= 0 else v / (den << -s), e - s) for v in num))
    except OverflowError:
        return complex(math.inf, math.inf)


def _newton_finish(p: Poly, start: Sequence, ctx: PrecisionContext) -> Tuple[List, List[float]] | None:
    """The zeros of p at the digits of ctx, finished by Newton from start
    (p's zeros to a few digits, in any scalars, rounded into ctx first),
    and the size of each one's last Newton correction |p/p'|, which it was
    not moved by; None where the finish cannot vouch for them.

    Each pass forms p(z) and p'(z) exactly, in one Horner pass on Gaussian
    integers over the zeros still moving: p's coefficients are read once
    (precision._aligned), the zeros at each pass over one power of two 2^e,
    e <= 0, and with u = 2^-e the pass forms
        A_N = c_N,  A_j = A_{j+1} Z + c_j u^(N-j),  B_j = B_{j+1} Z + A_{j+1},
    so that p(z) = A_0 2^(Ec + N e) and p'(z) = B_0 2^(Ec + (N-1) e). The
    correction p/p' = (A_0 / B_0) 2^e is rounded once to binary64
    (_quotient) and subtracted at the context's precision, to nearest, by
    mpmath's raw addition (the refined witness of isospectral._witnessed
    does the same; Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal. 20,
    1983).
    The residual is exact, so the zeros are those of p itself: a zero
    settles once its correction is within 2^(1 - prec) of its modulus, two
    units of its last bit, and is not moved by it.

    None, so that the caller falls back to the sweeps, when a start or a
    correction is not finite in binary64, when a correction above the
    settling level is more than CONTRACTION times the one before it (a
    start that settled in binary64 only because p underflows there, or a
    multiple zero, where Newton converges linearly), when
    3 + prec / NEWTON_BITS passes do not settle every zero, or when a zero
    moved by half its distance to another start or more (otherwise the N
    disks of the moves are disjoint, and the N zeros are distinct).
    """
    start64 = binary64(start)
    if not np.isfinite(start64).all():
        return None
    mp, prec, N = ctx.mp, ctx.mp.prec, p.degree
    C, Ec = _aligned([part for c in p.coeffs for part in _parts(c, mp)])
    c_re, c_im = C[0::2], C[1::2]
    parts = [list(ctx.convert(z)._mpc_) for z in start]
    steps, last, moved = [0.0] * N, [math.inf] * N, [0.0] * N
    settle = 2.0 ** (1 - prec)
    moving = list(range(N))
    for _ in range(3 + prec // NEWTON_BITS):
        Z, e = _aligned([x for n in moving for x in parts[n]])
        if e > 0:
            Z, e = [v << e for v in Z], 0
        # c_j u^(N-j), high to low
        low = [(c_re[j] << (-e * (N - j)), c_im[j] << (-e * (N - j))) for j in range(N - 1, -1, -1)]
        still = []
        for n, z_re, z_im in zip(moving, Z[0::2], Z[1::2]):
            a_re, a_im, b_re, b_im = c_re[N], c_im[N], 0, 0
            for l_re, l_im in low:
                b_re, b_im = b_re * z_re - b_im * z_im + a_re, b_re * z_im + b_im * z_re + a_im
                a_re, a_im = a_re * z_re - a_im * z_im + l_re, a_re * z_im + a_im * z_re + l_im
            w = _quotient(a_re, a_im, b_re, b_im, e)
            step = _modulus(w)
            if not step < math.inf:
                return None
            if step <= settle * math.hypot(*map(_part_float, parts[n])):
                steps[n] = step
                continue
            if not step <= CONTRACTION * last[n]:
                return None
            last[n] = step
            moved[n] += step
            parts[n] = [mpf_add(x, from_float(-d), prec, round_nearest) for x, d in zip(parts[n], (w.real, w.imag))]
            still.append(n)
        moving = still
        if not moving:
            break
    else:
        return None
    if not (np.array(moved) < pairwise_gaps(start64).min(axis=1) / 2).all():
        return None
    return [mp.make_mpc(tuple(x)) for x in parts], steps


def find_zeros(p: Poly, params: ParamSet) -> ZeroSet:
    """All N zeros of the monic polynomial by Aberth-Ehrlich simultaneous iteration,
    in the precision of its coefficients.

    Converged when each root's relative correction has dropped below the
    context's step tolerance (1e-14 at binary64) or its residual to its
    noise floor (_aberth); budget MAX_SWEEPS sweeps; output
    canonically ordered by (magnitude, phase) so repeated runs are
    deterministic.

    Extended coefficients are first rounded to binary64 and solved there
    from the spiral (the float start of MPSolve; Bini & Fiorentino, Numer.
    Algorithms 23, 2000), and Newton on exact residuals finishes those
    zeros (_newton_finish), whose last corrections _certify reads. Where
    there is no start, or the finish cannot vouch for its zeros, Aberth
    sweeps run at the context's digits, from the start if there is one,
    else from the spiral, and _certify takes their corrections itself.
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

    if N == 1:
        return _certify([-p.coeffs[0]], p)
    spiral = _spiral_init(p, params.q, N)
    start = None if ctx.mp is None else _binary64_start(p, spiral)
    finished = None if start is None else _newton_finish(p, start, ctx)
    if finished is not None:
        return _certify(finished[0], p, finished[1])
    return _certify(_aberth(p, [ctx.convert(z) for z in start or spiral], ctx), p)


def _companion64(p: Poly) -> np.ndarray:
    """The companion matrix of the monic p from its coefficients' binary64
    rounding: ones below the diagonal, -c_0..-c_{N-1} down the last column."""
    out = np.eye(p.degree, k=-1, dtype=complex)
    out[:, -1] = [-_binary64(c) for c in p.coeffs[:-1]]
    return out


def balanced_companion(p: Poly) -> np.ndarray:
    """The companion matrix A of the monic p balanced, B = D^-1 A D, as an
    N x N array in the dtype of the coefficients' context.

    D holds the powers of two LAPACK zgebal picks (job 'S', no permutation)
    for the binary64 companion matrix (_companion64), and B is built from
    its 2N - 1 nonzeros in the coefficients' own scalars:
    B[i, i - 1] = d_{i-1} / d_i and B[i, N - 1] = -c_i d_{N-1} / d_i, each
    part of -c_i scaled once by the exponent difference of d_{N-1} and d_i
    (in binary64 the product -c_i d_{N-1} can leave the normal range before
    the division brings it back, and d_{N-1} / d_i itself can overflow).
    Powers of two scale exactly, so B has A's spectrum exactly; in binary64
    each entry is correctly rounded, and B is LAPACK's balanced matrix bit
    for bit wherever zgebal's in-place scaling stays in the normal range. A
    polynomial whose coefficients do not round to finite binary64 numbers
    is left unbalanced (D = I): no scaling brings such an entry into range.
    Only the oracle's eigenvalue fallback builds B, so scipy is imported
    here, when it is first needed.
    """
    if not p.monic:
        raise ValueError("balanced_companion expects a monic polynomial")
    N = p.degree
    ctx = context_of(p.coeffs[0])
    arr = _companion64(p)
    if np.isfinite(arr).all():
        from scipy.linalg.lapack import zgebal

        scale = zgebal(arr, scale=1, permute=0)[3].tolist()
    else:
        scale = [1.0] * N
    d = np.array([ctx.convert(v) for v in scale], dtype=ctx.dtype)
    out = np.full((N, N), ctx.convert(0.0), dtype=ctx.dtype)
    out[range(1, N), range(N - 1)] = d[:-1] / d[1:]
    shift = [math.frexp(scale[-1])[1] - math.frexp(v)[1] for v in scale]
    ldexp, pair = (math.ldexp, complex) if ctx.mp is None else (ctx.mp.ldexp, ctx.mp.mpc)
    out[:, -1] = [pair(ldexp(-c.real, k), ldexp(-c.imag, k)) for c, k in zip(p.coeffs[:-1], shift)]
    return out


def companion_zeros(p: Poly) -> List:
    """Eigenvalues of the companion matrix (independent oracle for
    find_zeros) in the precision of the coefficients, finished as the zeros
    of p: the binary64 eigenvalues of the companion matrix of the
    coefficients' rounding (_companion64; zgeev, behind np.linalg.eigvals,
    balances it), returned in binary64 where each one's Newton bound over
    its modulus (_newton_bounds) is within EIG_TARGET, else carried by
    _newton_finish to the digits that bring the worst bound below it
    (isospectral._escalated; the context's at extended digits, where
    binary64 cannot meet EIG_TARGET eps / eps64) and rounded once. Where the
    rounding is not finite, QR does not converge or the finish fails, the
    balanced rows (balanced_companion) at those digits are solved as
    eigenvalues by mpmath.eig (isospectral._eig_extended), and
    _newton_finish finishes those as zeros of p; they are returned raw
    only where that finish declines. A linear p's zero is -c_0, returned
    before any matrix is built."""
    from .isospectral import EIG_TARGET, _eig_extended, _escalated

    if not p.monic:
        raise ValueError("companion_zeros expects a monic polynomial")
    ctx, N = context_of(p.coeffs[0]), p.degree
    if N == 1:
        return [ctx.convert(-p.coeffs[0])]
    try:
        zs = np.linalg.eigvals(_companion64(p)).tolist()
    except np.linalg.LinAlgError:  # entries beyond binary64, or no convergence
        zs = [complex(math.nan, math.nan)] * N
    ext = ctx
    if ctx.mp is None:
        try:
            worst = float((_newton_bounds(p, zs)[1] / np.maximum(ctx.sizes(zs), TINY)).max())
        except OverflowError:  # a modulus beyond binary64, which builtin abs raises on
            worst = math.inf
        if worst <= EIG_TARGET:
            return _canonical_order(zs)
        ext = _escalated(worst)
    finished = _newton_finish(p, zs, ext)
    if finished is None:
        vals = _eig_extended([[ext.convert(v) for v in row] for row in balanced_companion(p)], ext)
        finished = _newton_finish(p, vals, ext) or (vals,)
    return _canonical_order(finished[0] if ctx.mp else binary64(finished[0]).tolist())
