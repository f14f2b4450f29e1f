"""Test-only oracles: specialised forms of general formulas.

The matrix assemblies for (r, s) = (1, 1), (2, 1), (2, 2) are separate code
paths that pin the sign conventions of the general build_M;
prop1_residuals_r1s1 is the printed r = s = 1 form of the zero identity;
flow_rhs_from_products is the zero flow built from the zero identities.
"""

from typing import List, Sequence

from qzeros.errors import DegreeMismatch
from qzeros.flow import FlowState
from qzeros.isospectral import IsoMatrix
from qzeros.params import ParamSet
from qzeros.precision import TINY
from qzeros.zero_algebra import (
    KernelCache,
    _prop1_terms,
    _shift_magnitudes,
    _shift_products,
)


def build_M_r1s1(zeros, params: ParamSet) -> IsoMatrix:
    zs = tuple(zeros)
    q, N = params.q, params.N
    a1, b1 = params.alpha[0], params.beta[0]
    cache = KernelCache(zs, q, 1, 1)
    qN = q ** (-N)
    rows = []
    for n in range(N):
        zn = zs[n]
        row = []
        for m in range(N):
            if m == n:
                val = (q - 1) ** 2 * cache.g[1][n] * (-1 - b1 / q + zn * (qN + a1)) + (
                    q**2 - 1
                ) ** 2 * cache.g[2][n] * (b1 / q - zn * a1 * qN)
                val = val + (q - 1) * cache.f[1][n] * (-qN - a1) + (q**2 - 1) * cache.f[2][
                    n
                ] * a1 * qN
                row.append(val)
            else:
                pref = zn / (zn - zs[m]) ** 2
                val = pref * (
                    (q - 1) ** 2 * cache.fnm[1][n][m] * (1 + b1 / q - zn * (qN + a1))
                    + (q**2 - 1) ** 2 * cache.fnm[2][n][m] * (-b1 / q + zn * a1 * qN)
                )
                row.append(val)
        rows.append(tuple(row))
    return IsoMatrix(entries=tuple(rows))


def build_M_r2s1(zeros, params: ParamSet) -> IsoMatrix:
    zs = tuple(zeros)
    q, N = params.q, params.N
    a1 = params.alpha[0] + params.alpha[1]
    a2 = params.alpha[0] * params.alpha[1]
    b1 = params.beta[0]
    cache = KernelCache(zs, q, 2, 1)
    qN = q ** (-N)
    rows = []
    for n in range(N):
        zn = zs[n]
        row = []
        for m in range(N):
            if m == n:
                val = (q - 1) ** 2 * cache.g[1][n] * (-1 - b1 / q + zn * (a1 * qN + a2))
                val = val + (q**2 - 1) ** 2 * cache.g[2][n] * (b1 / q - zn * a2 * qN)
                val = val + (q ** (-1) - 1) ** 2 * cache.g[-1][n] * zn
                val = val - (q ** (-1) - 1) * cache.f[-1][n]
                val = val + (q - 1) * cache.f[1][n] * (-a1 * qN - a2)
                val = val + (q**2 - 1) * cache.f[2][n] * a2 * qN
                row.append(val)
            else:
                pref = zn / (zn - zs[m]) ** 2
                val = pref * (
                    (q - 1) ** 2 * cache.fnm[1][n][m] * (1 + b1 / q - zn * (a1 * qN + a2))
                    + (q**2 - 1) ** 2 * cache.fnm[2][n][m] * (-b1 / q + zn * a2 * qN)
                    - (q ** (-1) - 1) ** 2 * cache.fnm[-1][n][m] * zn
                )
                row.append(val)
        rows.append(tuple(row))
    return IsoMatrix(entries=tuple(rows))


def build_M_r2s2(zeros, params: ParamSet) -> IsoMatrix:
    zs = tuple(zeros)
    q, N = params.q, params.N
    a1 = params.alpha[0] + params.alpha[1]
    a2 = params.alpha[0] * params.alpha[1]
    b1 = params.beta[0] + params.beta[1]
    b2 = params.beta[0] * params.beta[1]
    cache = KernelCache(zs, q, 2, 2)
    qN = q ** (-N)
    rows = []
    for n in range(N):
        zn = zs[n]
        row = []
        for m in range(N):
            if m == n:
                val = (q - 1) ** 2 * cache.g[1][n] * (1 + b1 / q - zn * (qN + a1))
                val = val + (q**2 - 1) ** 2 * cache.g[2][n] * (
                    -b1 / q - b2 / q**2 + zn * (qN * a1 + a2)
                )
                val = val + (q**3 - 1) ** 2 * cache.g[3][n] * (b2 / q**2 - zn * a2 * qN)
                val = val + (q - 1) * cache.f[1][n] * (qN + a1)
                val = val + (q**2 - 1) * cache.f[2][n] * (-a1 * qN - a2)
                val = val + (q**3 - 1) * cache.f[3][n] * a2 * qN
                row.append(val)
            else:
                pref = zn / (zn - zs[m]) ** 2
                val = pref * (
                    (q - 1) ** 2 * cache.fnm[1][n][m] * (-1 - b1 / q + zn * (qN + a1))
                    + (q**2 - 1) ** 2
                    * cache.fnm[2][n][m]
                    * (b1 / q + b2 / q**2 - zn * (a1 * qN + a2))
                    + (q**3 - 1) ** 2 * cache.fnm[3][n][m] * (-b2 / q**2 + zn * a2 * qN)
                )
                row.append(val)
        rows.append(tuple(row))
    return IsoMatrix(entries=tuple(rows))


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
    terms = _prop1_terms(zs, n, params)
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
        terms = _prop1_terms(zs, n, params)
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
