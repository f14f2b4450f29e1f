"""Test-only oracles: specialised forms of general formulas.

f_n, f_nm and g_n are the shift kernels as direct products and sums, one
factor at a time, the oracle for KernelCache's array tables; build_M_addends
assembles the spectral matrix from them one velocity_terms addend at a time,
with a g_n sum per shift, and the matrix assemblies for (r, s) = (1, 1),
(2, 1), (2, 2) read them too: separate code paths that pin the general
build_M, which groups the addends by shift and never tables g_n;
expanded_residual is the expanded q-difference route on its own;
prop1_residuals_r1s1 is the printed r = s = 1 form of the zero identity;
closed_trace_r1s1 and closed_trace_r2s1 are the explicit trace formulas
for (r, s) = (1, 1) and (2, 1) that closed_trace's general sum replaced;
flow_rhs_from_products is the zero flow built from the zero identities;
eval_phi sums the hypergeometric series itself, an oracle for the
coefficient recurrence of coeffs_P; reduce cancels equal trailing
alpha/beta pairs, which leaves the polynomial unchanged; spectrum_match
adds to match_spectrum's pairs the trace, power-trace and determinant gaps;
companion_rows is the companion matrix of a monic polynomial and
eig_bound_lapack the eigenvalue certificate of _eig_with_bound computed
from LAPACK's own left eigenvectors, one pair of unit vectors at a time,
and refined_eigenvalues_fdot is the Newton refinement of
_refined_eigenvalues in mpmath scalars, one fdot per residual component.
qde_checks_scalar, prop1_residuals_scalar and prop1_residuals_qde_scalar
are the two identity families checked one point, zero, shift and qde_terms
addend at a time with the scalar eval_poly, the oracles of the array passes
qdiff.qde_checks and zero_algebra.prop1_residuals(_qde): _horner_terms,
_operator_route and _expanded_terms take the two q-difference routes at one
point, _shift_products, decancelled_size and _shift_magnitudes the shifted
products of one zero and their scales, _prop1_terms and _normalized one
zero identity. horner and horner_deriv are Horner's rule from the leading
coefficient whatever it is, the oracle of the monic start of
qseries.eval_poly and eval_poly_deriv. relative_separation_pairs and
certify_pairs take the separations of rootfind.relative_separation and
rootfind._certify one pair at a time, the oracles of their one
pairwise_gaps array. sample_points_loop forms the verify command's sample
points one at a time, the oracle of cli._sample_points' one array pass.
"""

import cmath
import math
from types import SimpleNamespace
from typing import Dict, List, Sequence

import numpy as np
import scipy.linalg

from qzeros.errors import DegenerateZeros, DegreeMismatch, EigenNoConvergence, IndexCollision, NoConvergence, QZerosError
from qzeros.isospectral import EIG_TARGET, REFINE_STEPS, _eigenpairs, _norm, match_spectrum
from qzeros.params import GENERICITY_TOL, ParamSet
from qzeros.precision import F64, TINY, context_of
from qzeros.qdiff import _operator_sides, qde_terms
from qzeros.qseries import Poly, eval_poly, eval_poly_deriv
from qzeros.rootfind import SEPARATION_FLOOR, ZeroSet
from qzeros.zero_algebra import velocity_terms


def horner(p: Poly, z):
    """p(z) by Horner's rule from the leading coefficient, a monic p's 1 too."""
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = z * acc + c
    return acc


def horner_deriv(p: Poly, z):
    """p(z) and p'(z) in one Horner pass from the leading coefficient."""
    acc = p.coeffs[-1]
    dacc = 0 * acc
    for c in reversed(p.coeffs[:-1]):
        dacc = z * dacc + acc
        acc = z * acc + c
    return acc, dacc


def sample_points_loop(zeros, rng, count: int = 20) -> List[complex]:
    """The points of cli._sample_points, each its scale times its radius
    times the complex unit of its phase, from np.cos and np.sin of it."""
    scale = max(1.0, max(abs(complex(z)) for z in zeros))
    radii = rng.uniform(0.3, 1.7, size=count)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return [scale * rho * complex(np.cos(th), np.sin(th)) for rho, th in zip(radii, phases)]


def relative_separation_pairs(zs) -> float:
    """Smallest pairwise distance over the largest zero magnitude, one pair
    at a time; builtin min skips a NaN unless it comes first."""
    n = len(zs)
    if n < 2:
        return float("inf")
    size = context_of(zs[0]).size
    scale = max(size(z) for z in zs)
    best = float("inf")
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, size(zs[i] - zs[j]))
    return float(best / max(scale, TINY))


def certify_pairs(zs, p: Poly) -> ZeroSet:
    """rootfind._certify one zero and one pair at a time: the smallest raw
    gap and the smallest certified gap, gap less twice both Newton steps,
    each over the largest zero magnitude; DegenerateZeros as _certify."""
    size = context_of(p.coeffs[0]).size
    if not all(size(z) < math.inf for z in zs):
        raise DegenerateZeros("a zero is not finite")
    steps = []
    worst = 0.0
    for z in zs:
        val, der = eval_poly_deriv(p, z)
        step = size(val) / max(size(der), TINY)
        steps.append(float(step))
        worst = max(worst, float(step / max(1.0, size(z))))
    scale = max(max(size(z) for z in zs), TINY)
    raw = certified = math.inf
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            gap = size(zs[i] - zs[j])
            raw = min(raw, gap)
            certified = min(certified, gap - 2.0 * (steps[i] + steps[j]))
    if not float(certified / scale) > SEPARATION_FLOOR:
        raise DegenerateZeros("near-coincident zeros")
    return ZeroSet(zeros=tuple(zs), min_separation=float(raw / scale), max_residual=worst)


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


def closed_trace_r1s1(params: ParamSet):
    """sum_n mu_n for (r, s) = (1, 1), in the scalars of params."""
    q, N, a1 = params.q, params.N, params.alpha[0]
    return (
        -a1 * q ** (N + 2) / (q**2 - 1) * (1 - q ** (-2 * N - 2))
        + (q + a1 * q ** (N + 1)) / (q - 1) * (1 - q ** (-N - 1))
        - N
        - 1
    )


def closed_trace_r2s1(params: ParamSet):
    """sum_n mu_n for (r, s) = (2, 1), in the scalars of params."""
    q, N = params.q, params.N
    a1, a2 = params.alpha
    return (
        q ** (-N)
        / (q**2 - 1)
        * (
            -N * (q**2 - 1) * (1 + q**N * (a1 + a2))
            + (q**N - 1) * (q**2 + a1 + a2 - a1 * a2 + q ** (1 + N) * a1 * a2 + q * (1 + a1 + a2))
        )
    )


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


def flow_rhs_from_products(zs, params: ParamSet) -> List:
    """Dual route: the n-th velocity is (-1)^s times the n-th zero identity,
    built from shifted full products over the configuration, divided by
    z_n prod_{l != n} (z_n - z_l). Algebraically identical to flow_rhs."""
    zs = tuple(zs)
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


def refined_eigenvalues_fdot(rows, eps_out: float):
    """isospectral._refined_eigenvalues with its residual in mpmath scalars,
    one fdot per row (exact products, rounded once to the entries' digits,
    then to binary64), and x and lambda updated by the context's addition;
    the same pairs, steps, stopping rules and acceptance otherwise."""
    ctx = context_of(rows[0][0])
    fdot = ctx.mp.fdot
    arr = np.array(rows, dtype=complex)
    if not np.isfinite(arr).all():
        return None
    n = len(rows)
    try:
        vals, vr, left, cond = _eigenpairs(arr)
    except EigenNoConvergence:
        return None
    if cond is None:
        return None
    target = EIG_TARGET * (eps_out / F64.eps)
    lams, certs = [], []
    for i in range(n):
        y_h, y_norm = left[i], float(cond[i])
        s = int(np.argmax(np.abs(vr[:, i])))
        lam = ctx.convert(vals[i])
        x = [ctx.convert(v) for v in vr[:, i] / vr[s, i]]
        x[s] = ctx.convert(1)
        best = prev = None
        for step in range(REFINE_STEPS + 1):
            res = np.array(
                [complex(fdot(list(zip(row, x)) + [(-lam, x[j])])) for j, row in enumerate(rows)]
            )
            x64 = np.array([complex(v) for v in x])
            cert = _norm(res) * y_norm / max(abs(y_h @ x64), TINY)
            if best is None or cert < best[0]:
                best = (cert, lam)
            if step > 1 and cert >= prev:
                break
            prev = cert
            if cert <= eps_out * abs(complex(lam)) or step == REFINE_STEPS:
                break
            bordered = arr - complex(lam) * np.eye(n)
            bordered[:, s] = -x64
            try:
                delta = np.linalg.solve(bordered, -res)
            except np.linalg.LinAlgError:
                break
            lam = lam + ctx.convert(delta[s])
            delta[s] = 0
            x = [v + ctx.convert(d) for v, d in zip(x, delta)]
        cert, lam = best
        if not cert <= target * abs(complex(lam)):
            return None
        lams.append(lam)
        certs.append(cert)
    for i in range(n):
        for j in range(i + 1, n):
            if not float(abs(lams[i] - lams[j])) > certs[i] + certs[j]:
                return None
    return lams


def _horner_terms(poly: Poly, z, shift: int, scales, size):
    """Value of poly(z)*z^shift and its largest intermediate-term magnitude, from size(z)."""
    value = eval_poly(poly, z) * z**shift if shift else eval_poly(poly, z)
    for f in (size, abs):  # abs once float powers overflow
        mag = f(z)
        largest, power = 0.0, mag**shift
        for s in scales:
            largest = max(largest, s * power)
            power = power * mag
        if largest < math.inf:
            break
    return value, largest


def _operator_route(p: Poly, params: ParamSet, zs: Sequence, size) -> List:
    """(value, largest intermediate-term magnitude) of the operator-route
    residual A(z) - z*B(z) at each sample point."""
    if p.degree != params.N:
        raise DegreeMismatch(f"polynomial degree {p.degree} != N = {params.N}")
    a_side, a_marks, b_side, b_marks = _operator_sides(p, params)
    out = []
    for z in zs:
        a_val, a_scale = _horner_terms(a_side, z, 0, a_marks, size)
        b_val, b_scale = _horner_terms(b_side, z, 1, b_marks, size)
        out.append((a_val - b_val, max(a_scale, b_scale)))
    return out


def _expanded_terms(p: Poly, terms, qk, z, size):
    """Sum of the qde_terms addends at z and the largest addend magnitude (qk[k] = q^k)."""
    values = {k: eval_poly(p, z * qp) for k, qp in qk.items()}
    total = 0
    largest = 0.0
    for k, w, e in terms:
        weight = w * z if e else w
        addend = weight * values[k]
        total = total + addend
        largest = max(largest, size(addend))
    return total, largest


def qde_checks_scalar(p: Poly, params: ParamSet, zs: Sequence):
    """qdiff.qde_checks one point at a time: the operator route by two
    Horner passes, A(z) and z B(z), the expanded route addend by addend."""
    size = context_of(params.q).size
    orient = (-1) ** (params.s + 1)
    terms = qde_terms(params)
    qk = {k: params.q**k for k, _, _ in terms}
    residuals, agreements = [], []
    for z, (op_val, op_scale) in zip(zs, _operator_route(p, params, zs, size)):
        residuals.append(op_val / max(op_scale, TINY))
        exp_val, exp_scale = _expanded_terms(p, terms, qk, z, size)
        agreements.append(size(op_val - orient * exp_val) / max(op_scale, exp_scale, 1.0))
    return residuals, agreements


def _shift_products(zeros: Sequence, n: int, q, powers: Sequence[int]) -> Dict:
    """prod_m (z_n q^k - z_m) over the full configuration, for each power k."""
    zn = zeros[n]
    out = {}
    for k in set(powers):
        acc = 1 + 0 * q
        zk = zn * q**k
        for zm in zeros:
            acc = acc * (zk - zm)
        out[k] = acc
    return out


def decancelled_size(zk, zs):
    """The scale of zero_algebra.shifted_products for the one product
    prod_l (zk - z_l): max(|product|, |product with its most-cancelling
    factor replaced by |zk| + |z_l*||)."""
    size = context_of(zk).size
    mags = [size(zk - zl) for zl in zs]
    i_min = min(range(len(mags)), key=mags.__getitem__)
    rest = 1.0
    for i, m in enumerate(mags):
        if i != i_min:
            rest *= m
    return max(rest * mags[i_min], (size(zk) + size(zs[i_min])) * rest)


def _shift_magnitudes(zeros: Sequence, n: int, q, powers: Sequence[int]) -> Dict:
    """decancelled_size of each shifted product prod_m (z_n q^k - z_m)."""
    zn = zeros[n]
    return {k: float(decancelled_size(zn * q**k, zeros)) for k in set(powers)}


def _prop1_terms(terms, zn) -> List:
    """(coefficient, shift) pairs of the zero identity at z_n, sum over pairs
    of coefficient * [shifted product at q^shift]: the qde_terms addends
    (terms) at z = z_n, less the constant p(z) addend, which vanishes there."""
    return [(w * zn if e else w, k) for k, w, e in terms if (k, e) != (0, 0)]


def _normalized(terms, values, magnitudes, size) -> float:
    total = 0
    largest = TINY
    for coef, k in terms:
        total = total + coef * values[k]
        largest = max(largest, float(size(coef)) * magnitudes[k])
    return float(size(total) / largest)


def prop1_residuals_scalar(zeros: Sequence, params: ParamSet) -> List[float]:
    """zero_algebra.prop1_residuals one zero, shift and addend at a time."""
    zs = tuple(zeros)
    size = context_of(params.q).size
    out = []
    for n in range(len(zs)):
        terms = _prop1_terms(qde_terms(params), zs[n])
        powers = [k for _, k in terms]
        prods = _shift_products(zs, n, params.q, powers)
        mags = _shift_magnitudes(zs, n, params.q, powers)
        out.append(_normalized(terms, prods, mags, size))
    return out


def prop1_residuals_qde_scalar(zeros: Sequence, params: ParamSet, p: Poly) -> List[float]:
    """zero_algebra.prop1_residuals_qde one zero, shift and addend at a time,
    by the scalar eval_poly_deriv."""
    zs = tuple(zeros)
    q = params.q
    size = context_of(q).size
    out = []
    for zn in zs:
        terms = _prop1_terms(qde_terms(params), zn)
        values, mags = {}, {}
        for k in {k for _, k in terms}:
            zk = zn * q**k
            val, der = eval_poly_deriv(p, zk)
            values[k] = val
            mags[k] = float(max(size(val), 2.0 * size(zk) * size(der)))
        out.append(_normalized(terms, values, mags, size))
    return out
