"""Simultaneous zero finding with a distinctness certificate.

find_zeros runs the Aberth-Ehrlich simultaneous iteration (cubic local
convergence) from a geometric-spiral initial configuration tuned to the
quasi-geometric spread of this polynomial family's zeros, then polishes each
root with one Newton step. With extended coefficients the spiral start is
first solved in binary64, and the extended sweeps only finish from there.
companion_zeros is the independent cross-check oracle: eigenvalues of the
companion matrix through the dense eigensolver (isospectral.eigenvalues_dense),
which balances the matrix and then certifies, and if need be escalates, on
the balanced matrix. The two routes share no code beyond polynomial
evaluation.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from typing import List, Tuple

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


def _canonical_order(zs) -> List:
    return sorted(zs, key=lambda z: (abs(z), cmath.phase(complex(z))))


def relative_separation(zs) -> float:
    """Smallest pairwise distance over the largest zero magnitude."""
    n = len(zs)
    if n < 2:
        return float("inf")
    scale = max(abs(z) for z in zs)
    best = float("inf")
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, abs(zs[i] - zs[j]))
    return float(best / max(scale, TINY))


def _certify(zs, p: Poly) -> ZeroSet:
    sep = relative_separation(zs)
    steps = []
    worst = 0.0
    for z in zs:
        val, der = eval_poly_deriv(p, z)
        step = abs(val) / max(abs(der), TINY)
        steps.append(float(step))
        worst = max(worst, float(step / max(1.0, abs(z))))
    # a point of an unresolved cluster carries an error of about twice its
    # Newton correction (the correction contracts linearly with factor 1/2
    # toward a double zero), so the certifiable part of each pair gap is the
    # computed gap minus both points' error bounds
    scale = max((abs(z) for z in zs), default=1.0)
    certified = sep
    n = len(zs)
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(zs[i] - zs[j]) - 2.0 * (steps[i] + steps[j])
            certified = min(certified, float(gap / max(scale, TINY)))
    if certified <= SEPARATION_FLOOR:
        raise DegenerateZeros(
            f"certified relative zero separation {certified:.3e} <="
            f" {SEPARATION_FLOOR:.0e}; near-coincident zeros are rejected,"
            " not resolved"
        )
    return ZeroSet(zeros=tuple(zs), min_separation=sep, max_residual=worst)


def _spiral_init(p: Poly, q, N: int, ctx: PrecisionContext) -> List:
    # |constant term|^(1/N) estimates the geometric mean of the zero moduli;
    # the |q|^{-(n-1)/2} ladder matches their quasi-geometric spread and the
    # 0.37 phase offset breaks symmetry locks of the simultaneous iteration.
    mag0 = abs(p.coeffs[0])
    if mag0 < TINY:
        mag0 = max(abs(c) for c in p.coeffs[:-1]) + 1.0
    rho = float(mag0) ** (1.0 / N)
    absq = float(abs(q))
    out = []
    for n in range(1, N + 1):
        radius = rho * absq ** (-(n - 1) / 2.0)
        angle = 2.0 * cmath.pi * (n + 0.37) / N
        out.append(ctx.convert(complex(radius * cmath.cos(angle), radius * cmath.sin(angle))))
    return out


def _aberth(p: Poly, zs: List, ctx: PrecisionContext) -> List:
    """Aberth-Ehrlich sweeps from the start zs in the scalars of ctx, then one
    Newton polish per root; raises NoConvergence when the budget runs out."""
    zs = list(zs)
    N = len(zs)
    tol = ctx.root_step_tol
    # magnitudes in the scalar type: an extended coefficient beyond the
    # binary64 range would make a float floor inf and settle every root
    abs_coeffs = [abs(c) for c in p.coeffs]
    # a root is settled once |p(z)| sits at the Horner rounding floor; past
    # that point further corrections only shuffle noise (clustered zeros of
    # high-N small-|q| polynomials never reach the step tolerance otherwise)
    noise_factor = 4.0 * N * ctx.eps

    def noise_floor(z) -> float:
        mag = abs(z)
        bound, power = 0.0, 1.0
        for cm in abs_coeffs:
            bound += cm * power
            power *= mag
        return noise_factor * bound

    converged = False
    for _ in range(MAX_SWEEPS):
        max_step = 0.0
        all_settled = True
        for n in range(N):
            val, der = eval_poly_deriv(p, zs[n])
            if abs(val) <= noise_floor(zs[n]):
                continue
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
            step = float(abs(corr) / max(1.0, abs(zs[n])))
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

    for n in range(N):
        val, der = eval_poly_deriv(p, zs[n])
        if der != 0 and abs(val) > noise_floor(zs[n]):
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
    if not all(cmath.isfinite(z) for z in zs) or relative_separation(zs) <= SEPARATION_FLOOR:
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


def companion_zeros(p: Poly) -> List:
    """Eigenvalues of the companion matrix (independent oracle for find_zeros),
    in the precision of the coefficients."""
    from .isospectral import eigenvalues_dense

    if not p.monic:
        raise ValueError("companion_zeros expects a monic polynomial")
    N = p.degree
    ctx = context_of(p.coeffs[0])
    rows = [[ctx.convert(0.0) for _ in range(N)] for _ in range(N)]
    for i in range(1, N):
        rows[i][i - 1] = ctx.convert(1.0)
    for i in range(N):
        rows[i][N - 1] = -ctx.convert(p.coeffs[i])
    return _canonical_order(eigenvalues_dense(rows))
