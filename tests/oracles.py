"""Test-only oracles: specialised forms of general formulas.

f_n, f_nm and g_n are the shift kernels as direct products and sums, one
factor at a time, the oracle for KernelCache's array tables; build_M_addends
assembles the spectral matrix from them one velocity_terms addend at a time,
with a g_n sum per shift, and the matrix assemblies for (r, s) = (1, 1),
(2, 1), (2, 2) read them too: separate code paths that pin the general
build_M, which groups the addends by shift and never tables g_n;
expanded_residual is the expanded q-difference route on its own;
prop1_residuals_r1s1 is the printed r = s = 1 form of the zero identity;
flow_rhs_from_products is the zero flow built from the zero identities;
eval_phi sums the hypergeometric series itself, an oracle for the
coefficient recurrence of coeffs_P; reduce cancels equal trailing
alpha/beta pairs, which leaves the polynomial unchanged; spectrum_match
adds to match_spectrum's pairs the trace, power-trace and determinant gaps;
companion_rows is the companion matrix of a monic polynomial and
eig_bound_lapack the eigenvalue certificate of _eig_with_bound computed
from LAPACK's own left eigenvectors, one pair of unit vectors at a time.
"""

import cmath
from types import SimpleNamespace
from typing import List, Sequence

import numpy as np
import scipy.linalg

from qzeros.errors import DegreeMismatch, IndexCollision, NoConvergence, QZerosError
from qzeros.flow import FlowState
from qzeros.isospectral import match_spectrum
from qzeros.params import GENERICITY_TOL, ParamSet
from qzeros.precision import TINY, context_of
from qzeros.qdiff import _expanded_terms, qde_terms
from qzeros.qseries import Poly
from qzeros.zero_algebra import _prop1_terms, _shift_magnitudes, _shift_products, velocity_terms


def _kernel_product(p: int, n: int, left_out, zeros: Sequence, q):
    """prod over l not in left_out of (q^p z_n - z_l)/(z_n - z_l); 1 at p = 0."""
    out = 1 + 0 * q
    if p == 0:
        return out
    qp, zn = q**p, zeros[n]
    for l, zl in enumerate(zeros):
        if l not in left_out:
            out = out * ((qp * zn - zl) / (zn - zl))
    return out


def f_n(p: int, n: int, zeros: Sequence, q):
    """prod over l != n of (q^p z_n - z_l)/(z_n - z_l); 1 for N = 1 (0-based n)."""
    return _kernel_product(p, n, {n}, zeros, q)


def f_nm(p: int, n: int, m: int, zeros: Sequence, q):
    """Same product excluding both n and m (0-based); 1 for N = 2."""
    if n == m:
        raise IndexCollision(f"kernel excluding two indices needs n != m, got n = m = {n}")
    return _kernel_product(p, n, {n, m}, zeros, q)


def g_n(p: int, n: int, zeros: Sequence, q):
    """sum over k != n of f_nk(p) z_k/(z_n - z_k)^2; 0 for N = 1 (0-based n)."""
    zn = zeros[n]
    out = 0 * q
    for k, zk in enumerate(zeros):
        if k != n:
            out = out + f_nm(p, n, k, zeros, q) * zk / (zn - zk) ** 2
    return out


def build_M_addends(zeros, params: ParamSet):
    """Rows of the spectral matrix summed over the velocity_terms addends
    (k, c, e) with d = c (q^k - 1) z_n^e:

        M_nm = z_n / (z_n - z_m)^2 sum d f_nm(k),   m != n,
        M_nn = sum [e c f_n(k) - d g_n(k)].
    """
    zs = tuple(zeros)
    q = params.q
    terms = velocity_terms(params)
    rows = []
    for n, zn in enumerate(zs):
        row = []
        for m, zm in enumerate(zs):
            val = 0
            for k, c, e in terms:
                d = c * (q**k - 1) * zn if e else c * (q**k - 1)
                if m != n:
                    val = val + d * f_nm(k, n, m, zs, q) * zn / (zn - zm) ** 2
                else:
                    val = val - d * g_n(k, n, zs, q)
                    if e:
                        val = val + c * f_n(k, n, zs, q)
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def build_M_r1s1(zeros, params: ParamSet):
    zs = tuple(zeros)
    q, N = params.q, params.N
    a1, b1 = params.alpha[0], params.beta[0]
    qN = q ** (-N)
    rows = []
    for n in range(N):
        zn = zs[n]
        row = []
        for m in range(N):
            if m == n:
                val = (q - 1) ** 2 * g_n(1, n, zs, q) * (-1 - b1 / q + zn * (qN + a1))
                val = val + (q**2 - 1) ** 2 * g_n(2, n, zs, q) * (b1 / q - zn * a1 * qN)
                val = val + (q - 1) * f_n(1, n, zs, q) * (-qN - a1)
                val = val + (q**2 - 1) * f_n(2, n, zs, q) * a1 * qN
                row.append(val)
            else:
                pref = zn / (zn - zs[m]) ** 2
                val = pref * (
                    (q - 1) ** 2 * f_nm(1, n, m, zs, q) * (1 + b1 / q - zn * (qN + a1))
                    + (q**2 - 1) ** 2 * f_nm(2, n, m, zs, q) * (-b1 / q + zn * a1 * qN)
                )
                row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def build_M_r2s1(zeros, params: ParamSet):
    zs = tuple(zeros)
    q, N = params.q, params.N
    a1 = params.alpha[0] + params.alpha[1]
    a2 = params.alpha[0] * params.alpha[1]
    b1 = params.beta[0]
    qN = q ** (-N)
    rows = []
    for n in range(N):
        zn = zs[n]
        row = []
        for m in range(N):
            if m == n:
                val = (q - 1) ** 2 * g_n(1, n, zs, q) * (-1 - b1 / q + zn * (a1 * qN + a2))
                val = val + (q**2 - 1) ** 2 * g_n(2, n, zs, q) * (b1 / q - zn * a2 * qN)
                val = val + (q ** (-1) - 1) ** 2 * g_n(-1, n, zs, q) * zn
                val = val - (q ** (-1) - 1) * f_n(-1, n, zs, q)
                val = val + (q - 1) * f_n(1, n, zs, q) * (-a1 * qN - a2)
                val = val + (q**2 - 1) * f_n(2, n, zs, q) * a2 * qN
                row.append(val)
            else:
                pref = zn / (zn - zs[m]) ** 2
                val = pref * (
                    (q - 1) ** 2 * f_nm(1, n, m, zs, q) * (1 + b1 / q - zn * (a1 * qN + a2))
                    + (q**2 - 1) ** 2 * f_nm(2, n, m, zs, q) * (-b1 / q + zn * a2 * qN)
                    - (q ** (-1) - 1) ** 2 * f_nm(-1, n, m, zs, q) * zn
                )
                row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def build_M_r2s2(zeros, params: ParamSet):
    zs = tuple(zeros)
    q, N = params.q, params.N
    a1 = params.alpha[0] + params.alpha[1]
    a2 = params.alpha[0] * params.alpha[1]
    b1 = params.beta[0] + params.beta[1]
    b2 = params.beta[0] * params.beta[1]
    qN = q ** (-N)
    rows = []
    for n in range(N):
        zn = zs[n]
        row = []
        for m in range(N):
            if m == n:
                val = (q - 1) ** 2 * g_n(1, n, zs, q) * (1 + b1 / q - zn * (qN + a1))
                val = val + (q**2 - 1) ** 2 * g_n(2, n, zs, q) * (
                    -b1 / q - b2 / q**2 + zn * (qN * a1 + a2)
                )
                val = val + (q**3 - 1) ** 2 * g_n(3, n, zs, q) * (b2 / q**2 - zn * a2 * qN)
                val = val + (q - 1) * f_n(1, n, zs, q) * (qN + a1)
                val = val + (q**2 - 1) * f_n(2, n, zs, q) * (-a1 * qN - a2)
                val = val + (q**3 - 1) * f_n(3, n, zs, q) * a2 * qN
                row.append(val)
            else:
                pref = zn / (zn - zs[m]) ** 2
                val = pref * (
                    (q - 1) ** 2 * f_nm(1, n, m, zs, q) * (-1 - b1 / q + zn * (qN + a1))
                    + (q**2 - 1) ** 2
                    * f_nm(2, n, m, zs, q)
                    * (b1 / q + b2 / q**2 - zn * (a1 * qN + a2))
                    + (q**3 - 1) ** 2 * f_nm(3, n, m, zs, q) * (-b2 / q**2 + zn * a2 * qN)
                )
                row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def prop1_residuals_r1s1(zeros: Sequence, params: ParamSet) -> List:
    """Specialized two-bracket form of the identity for r = s = 1.

    Returns the raw (unnormalized) left-hand sides. As printed, this form is
    the negative of the general identity specialized to r = s = 1; the
    equality test accounts for that overall sign.
    """
    if (params.r, params.s) != (1, 1):
        raise DegreeMismatch(f"specialized form needs r = s = 1, got ({params.r}, {params.s})")
    zs = tuple(zeros)
    q = params.q
    alpha1, beta1 = params.alpha[0], params.beta[0]
    q_minus_N = q ** (-params.N)
    out = []
    for n in range(len(zs)):
        prods = _shift_products(zs, n, q, [1, 2])
        zn = zs[n]
        lhs = (1 - zn * q_minus_N + beta1 / q - alpha1 * zn) * prods[1] + (
            -beta1 / q + alpha1 * zn * q_minus_N
        ) * prods[2]
        out.append(lhs)
    return out


def prop1_scale(zeros: Sequence, params: ParamSet, n: int) -> float:
    """Largest term-magnitude bound of the n-th identity (the normalization
    scale used by prop1_residuals)."""
    zs = tuple(zeros)
    terms = _prop1_terms(qde_terms(params), zs[n])
    mags = _shift_magnitudes(zs, n, params.q, [k for _, k in terms])
    largest = TINY
    for coef, k in terms:
        largest = max(largest, float(abs(coef)) * mags[k])
    return largest


def flow_rhs_from_products(state, params: ParamSet) -> List:
    """Dual route: the n-th velocity is (-1)^s times the n-th zero identity,
    built from shifted full products over the configuration, divided by
    z_n prod_{l != n} (z_n - z_l). Algebraically identical to flow_rhs."""
    zs = state.z if isinstance(state, FlowState) else tuple(state)
    sign = (-1) ** params.s
    out = []
    for n, zn in enumerate(zs):
        terms = _prop1_terms(qde_terms(params), zs[n])
        prods = _shift_products(zs, n, params.q, [k for _, k in terms])
        total = 0
        for coef, k in terms:
            total = total + coef * prods[k]
        denom = zn
        for l, zl in enumerate(zs):
            if l != n:
                denom = denom * (zn - zl)
        out.append(sign * total / denom)
    return out


def expanded_residual(p: Poly, params: ParamSet, zs: Sequence) -> List:
    """Normalized residual of the expanded shifted-argument route at each sample point."""
    if p.degree != params.N:
        raise DegreeMismatch(f"polynomial degree {p.degree} != N = {params.N}")
    size = context_of(params.q).size
    terms = qde_terms(params)
    qk = {k: params.q**k for k, _, _ in terms}
    out = []
    for z in zs:
        total, largest = _expanded_terms(p, terms, qk, z, size)
        out.append(total / max(largest, TINY))
    return out


MAX_SERIES_TERMS = 10000


def eval_phi(alphas_full, params: ParamSet, z, tol: float):
    """Truncated series evaluation with numerator parameters alphas_full
    (length r+1; the extra leading entry plays the terminating role when it
    equals q^{-N} exactly).

    Terminates when three consecutive term magnitudes fall below tol * |partial
    sum| (or exactly, when a term ratio vanishes). Requires |q| < 1 for decay
    unless the series terminates.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if len(alphas_full) != params.r + 1:
        raise DegreeMismatch(
            f"expected {params.r + 1} numerator parameters, got {len(alphas_full)}"
        )
    q = params.q
    terminating = alphas_full[0] == q ** (-params.N)
    if abs(q) >= 1 and not terminating:
        raise ValueError("series evaluation requires |q| < 1 unless it terminates")

    diff = params.s - params.r
    total = 1.0 + 0.0 * q
    term = total
    qpow = 1.0 + 0.0 * q  # q^{p-1} while forming term p
    small_streak = 0
    for p in range(1, MAX_SERIES_TERMS + 1):
        if terminating and p > params.N:
            # the (alphas_full[0]; q)_p factor vanishes from here on
            return total
        num = 1.0 + 0.0 * q
        for a in alphas_full:
            num = num * (1 - a * qpow)
        den = 1 - qpow * q
        for b in params.beta:
            den = den * (1 - b * qpow)
        ratio = (num / den) * z
        if diff:
            ratio = ratio * (-qpow) ** diff
        if ratio == 0:
            return total
        term = term * ratio
        total = total + term
        qpow = qpow * q
        if abs(term) < tol * abs(total):
            small_streak += 1
            if small_streak == 3:
                return total
        else:
            small_streak = 0
    raise NoConvergence(f"series did not settle within {MAX_SERIES_TERMS} terms")


class ReductionMismatch(QZerosError):
    """Trailing alpha/beta pairs requested for cancellation are not equal."""


class ReductionTooDeep(QZerosError):
    """Cancellation depth u would leave fewer than one alpha or beta."""


def reduce(params: ParamSet, u: int) -> ParamSet:
    """Drop u trailing alpha/beta pairs that are equal (they cancel in every
    coefficient, so the reduced tuple generates the identical polynomial).

    u = 0 is the identity for any params. Otherwise requires u <= min(r-1, s-1)
    and alpha[r-u+i] == beta[s-u+i] within GENERICITY_TOL for i = 0..u-1.
    """
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    if u == 0:
        return params
    if u > min(params.r - 1, params.s - 1):
        raise ReductionTooDeep(
            f"u={u} would leave r={params.r - u} or s={params.s - u} below 1"
        )
    for i in range(u):
        av = params.alpha[params.r - u + i]
        bv = params.beta[params.s - u + i]
        if abs(av - bv) > GENERICITY_TOL * max(1.0, abs(av)):
            raise ReductionMismatch(
                f"alpha_{params.r - u + i + 1} = {av!r} != beta_{params.s - u + i + 1} = {bv!r}"
            )
    return ParamSet(
        r=params.r - u,
        s=params.s - u,
        N=params.N,
        q=params.q,
        alpha=params.alpha[: params.r - u],
        beta=params.beta[: params.s - u],
    )


MATCH_TOL = 1e-6


def spectrum_match(numerical, closed) -> SimpleNamespace:
    """match_spectrum's pairs with the aggregate gaps the tests judge a
    spectrum by: the trace, the power traces p = 1..3 and the determinant
    (accumulated in log space from the per-pair ratios to dodge product
    overflow), all with the max(1, |.|) denominator guard. is_match holds
    when every pair gap and every aggregate gap is below MATCH_TOL."""
    pairs = match_spectrum(numerical, closed)
    lam, mu = list(numerical), list(closed)

    def rel_gap(a, b):
        return float(abs(a - b) / max(1.0, abs(b)))

    trace_gap = rel_gap(sum(lam), sum(mu))
    power_gaps = tuple(rel_gap(sum(v**p for v in lam), sum(v**p for v in mu)) for p in (1, 2, 3))
    log_ratio = sum(cmath.log(complex(lv) / complex(mv)) for lv, mv, _, _ in pairs)
    det_gap = float(abs(cmath.exp(log_ratio) - 1.0))
    gaps = [pair[3] for pair in pairs] + [trace_gap, det_gap, *power_gaps]
    return SimpleNamespace(
        matched_pairs=pairs,
        trace_gap=trace_gap,
        det_gap=det_gap,
        power_trace_gaps=power_gaps,
        is_match=all(g < MATCH_TOL for g in gaps),
    )


def companion_rows(p):
    """Rows of the companion matrix of the monic p, in its scalars."""
    n = p.degree
    zero = p.coeffs[0] * 0
    rows = [[zero + (1 if j == i - 1 else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][n - 1] = -p.coeffs[i]
    return rows


def eig_bound_lapack(arr):
    """Eigenvalues of the binary64 array arr and the worst relative forward
    error estimate eps ||arr||_2 / (|y_i^H x_i| |lambda_i|), x_i and y_i the
    unit right and left eigenvectors LAPACK returns (scipy.linalg.eig)."""
    vals, vl, vr = scipy.linalg.eig(arr, left=True, right=True)
    norm = float(np.linalg.norm(arr, 2))
    eps = float(np.finfo(float).eps)
    worst = 0.0
    for i in range(len(vals)):
        align = abs(np.vdot(vl[:, i], vr[:, i]))
        err = eps * norm / max(align, TINY)
        worst = max(worst, err / max(abs(vals[i]), TINY))
    return vals, worst
