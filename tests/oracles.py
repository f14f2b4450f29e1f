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
build_C, fixed_point and evolve_coeffs are PAPER.md's equivalent
coefficient-space linear flow: the lower-bidiagonal C whose diagonal is the
closed-form spectrum, its fixed point, the equilibrium polynomial's
coefficients, and its exact evolution by eigen decomposition, the oracle of
integrate_flow's trajectory; mu_closed_exact is the closed-form spectrum
over exact rationals, the oracle of closed_trace and the certified spectra;
eval_phi sums the hypergeometric series itself, an oracle for the
coefficient recurrence of coeffs_P; reduce cancels equal trailing
alpha/beta pairs, which leaves the polynomial unchanged; spectrum_match
adds to match_spectrum's pairs the trace, power-trace and determinant gaps;
forward_spectrum is M's certified eigenvalues, escalated by rebuilding the
case at more digits, the forward spectrum the tests pair with mu;
certified_eigenvalues is the eigensolve the companion oracle used before it
finished its eigenvalues as zeros of p, escalated by converting the
matrix's entries, the oracle of companion_zeros and of forward_spectrum;
extended_eigenvalues is its solve at extended digits, the certified
eigenpair refinement refined_eigenvalues_fdot (Newton on eigenpairs in
mpmath scalars, one fdot per residual component, which the package ran
before its spectrum verdict became a backward error) or else mpmath.eig;
companion_rows is the companion matrix of a monic polynomial and
eig_bound_lapack the eigenvalue certificate of _eig_with_bound computed
from LAPACK's own left eigenvectors, one pair of unit vectors at a time.
qde_coefficient_checks takes qdiff.qde_checks one coefficient and one
qde_terms addend at a time in the case's scalars. qde_point_checks is the
q-difference equation judged at sample points, as verify judged it before
it compared coefficients (spiral_points are those points): _horner_terms,
_operator_route and _expanded_terms take its two routes at one point.
prop1_residuals_scalar and prop1_residuals_qde_scalar are the zero
identities checked one zero, shift and qde_terms addend at a time with the
scalar eval_poly, the oracles of the array passes
zero_algebra.prop1_residuals(_qde): _shift_products, decancelled_size and
_shift_magnitudes the shifted products of one zero and their scales,
_prop1_terms and _normalized one zero identity. horner_deriv is Horner's
rule for p and p' from the leading coefficient whatever it is, the oracle
of the monic start of qseries.eval_poly_deriv, whose value eval_poly takes
alone. relative_separation_pairs and certify_pairs take the separations of
rootfind.relative_separation and rootfind._certify one pair at a time, each
gap at its pair's scale, the oracles of their one pairwise_gaps array.
Gaussian is x + iy with Fraction parts, gaussian the exact value of a
kernel scalar (Dyadic, mpc, mpf, complex or int), and rounded_once and
size64 its one rounding to mpc and to a binary64 modulus:
exact_qde_coefficients, exact_prop1_totals and exact_traces evaluate the
division-free checks (qdiff.qde_checks, zero_algebra.prop1_residuals(_qde)
and isospectral.matrix_power_traces) in those Gaussian rationals, from the
same values the kernels read, by power sums and triple sums instead of
running products, Horner passes and matrix products. mpc_kernel_route
runs the kernel route (KernelCache and build_M, and flow.jacobian_fd's
dual numbers) with every product rounded in mpc, as before it carried
precision.Dyadic values at a width, the reference of its carried products.
"""

import cmath
import math
from fractions import Fraction
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.linalg
from mpmath.libmp import from_rational, round_nearest

from qzeros.errors import (
    DegenerateZeros,
    DegreeMismatch,
    EigenNoConvergence,
    LengthMismatch,
    NoConvergence,
    OverflowRisk,
    QZerosError,
)
from qzeros import isospectral
from qzeros.flow import jacobian_fd
from qzeros.isospectral import (
    EIG_TARGET,
    REFINE_STEPS,
    Case,
    _eig_with_bound,
    _escalated,
    build_M,
    match_spectrum,
    mu_n,
)
from qzeros.params import GENERICITY_TOL, ParamSet, in_context
from qzeros.precision import F64, TINY, Dyadic, PrecisionContext, binary64, context_of
from qzeros.qdiff import _operator_sides, qde_terms
from qzeros.qseries import Poly, eval_poly_deriv
from qzeros.rootfind import SEPARATION_FLOOR, ZeroSet, pairwise_gaps
from qzeros.zero_algebra import velocity_terms


def eval_poly(p: Poly, z):
    """p(z) alone, the value of qseries.eval_poly_deriv's pass, for the
    tests and oracles that evaluate p at points."""
    return eval_poly_deriv(p, z)[0]


def horner_deriv(p: Poly, z):
    """p(z) and p'(z) in one Horner pass from the leading coefficient."""
    acc = p.coeffs[-1]
    dacc = 0 * acc
    for c in reversed(p.coeffs[:-1]):
        dacc = z * dacc + acc
        acc = z * acc + c
    return acc, dacc


def spiral_points(zeros, count: int = 20) -> List[complex]:
    """count points on a golden-angle spiral over the annulus 0.3 to 1.7
    times the zeros' scale, the points the q-difference checks were once
    evaluated at: point j is that scale times its radius 0.3 + 1.4 (j + 1/2)
    / count times the complex unit of its phase (j + 1/2) pi (3 - sqrt 5)."""
    scale = max(1.0, max(abs(complex(z)) for z in zeros))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    points = []
    for j in range(count):
        rho = 0.3 + 1.4 * (j + 0.5) / count
        th = (j + 0.5) * golden
        points.append(scale * rho * complex(np.cos(th), np.sin(th)))
    return points


def relative_separation_pairs(zs) -> float:
    """Smallest pairwise distance over the larger magnitude of its pair,
    one pair at a time; builtin min skips a NaN unless it comes first."""
    size = context_of(zs[0]).size
    best = float("inf")
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            scale = max(size(zs[i]), size(zs[j]), TINY)
            best = min(best, float(size(zs[i] - zs[j]) / scale))
    return best


def certify_pairs(zs, p: Poly) -> ZeroSet:
    """rootfind._certify one zero and one pair at a time: a zero's bound is
    its Newton step |p/p'| plus its Horner rounding floor
    4 N eps sum_k |c_k| |z|^k over |p'|; the smallest raw gap and the
    smallest certified gap, gap less twice both bounds, each over the
    larger magnitude of its pair, and the largest step over its zero's
    magnitude; DegenerateZeros as _certify."""
    ctx = context_of(p.coeffs[0])
    size = ctx.size
    if not all(size(z) < math.inf for z in zs):
        raise DegenerateZeros("a zero is not finite")
    bounds = []
    worst = 0.0
    for z in zs:
        val, der = eval_poly_deriv(p, z)
        der = max(size(der), TINY)
        floor = 4 * p.degree * ctx.eps * sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs))
        bounds.append((size(val) + floor) / der)
        worst = max(worst, float(size(val) / der / max(size(z), TINY)))
    raw = certified = math.inf
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            gap, scale = size(zs[i] - zs[j]), max(size(zs[i]), size(zs[j]), TINY)
            raw = min(raw, float(gap / scale))
            certified = min(certified, float((gap - 2 * (bounds[i] + bounds[j])) / scale))
    if not certified > SEPARATION_FLOOR:
        raise DegenerateZeros("near-coincident zeros")
    return ZeroSet(zeros=tuple(zs), min_separation=raw, max_residual=worst)


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


class IndexCollision(QZerosError):
    """f_nm was called with n == m."""


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
    terms = velocity_terms(Case(params))
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


class RepeatedEigenvalue(QZerosError):
    """Two closed-form eigenvalues coincide; the eigenvector basis degenerates."""


def mu_closed_exact(q: Fraction, alphas: Sequence[Fraction], N: int, r: int, s: int) -> List[Fraction]:
    """isospectral.mu_n over exact rationals (always lowest terms)."""
    if len(alphas) != r:
        raise LengthMismatch(f"got {len(alphas)} alphas for r = {r}")
    return [Fraction(mu_n(n, q, alphas, N, s - r)) for n in range(1, N + 1)]


@dataclass(frozen=True)
class CoeffState:
    """Coefficients c_1..c_N at time t (c_0 = 1 is implicit, never stored)."""

    c: Tuple
    t: float = 0.0


@dataclass(frozen=True)
class TriangularC:
    """Lower-bidiagonal coefficient-evolution matrix plus its eigen machinery.

    diag[n-1] is the eigenvalue mu_n; sub[n-1] is S_n (sub[0] is the c_0 = 1
    forcing on the first equation). Eigenvectors come from forward
    substitution: u^(n) has u_n = 1 and u_m = S_m u_{m-1} / (mu_n - mu_m) for
    m > n.
    """

    diag: Tuple
    sub: Tuple

    @property
    def n(self) -> int:
        return len(self.diag)


def build_C(params: ParamSet) -> TriangularC:
    """The coefficients c_m of psi(z, t) = prod (z - z_n(t)) = z^N + sum c_m z^{N-m}
    under the zero flow obey the lower-bidiagonal affine system

        cdot_m = S_m c_{m-1} + mu_m c_m,   c_0 = 1 (forcing on m = 1),
        S_m  = (q^{N-m+1} - 1) prod_k (beta_k q^{N-m} - 1),

    mu_m the closed-form eigenvalue (isospectral.mu_n); its diagonal and
    subdiagonal, in the precision of params.q."""
    params = in_context(params, context_of(params.q))
    q, N, diff = params.q, params.N, params.s - params.r
    diag, sub = [], []
    for n in range(1, N + 1):
        diag.append(mu_n(n, q, params.alpha, N, diff))
        sval = q ** (N - n + 1) - 1
        for b in params.beta:
            sval = sval * (b * q ** (N - n) - 1)
        sub.append(sval)
    scale = max(max(abs(d) for d in diag), 1.0)
    close = np.argwhere(~(pairwise_gaps(diag) >= 1e-12 * scale))
    if len(close):
        i, j = close[0]
        raise RepeatedEigenvalue(
            f"eigenvalues {i + 1} and {j + 1} coincide within 1e-12; "
            "the eigenvector basis degenerates (non-generic q)"
        )
    return TriangularC(diag=tuple(diag), sub=tuple(sub))


def fixed_point(C: TriangularC) -> Tuple:
    """Stationary coefficients: c*_m = -S_m c*_{m-1} / mu_m with c*_0 = 1.

    Equals the z^{N-m} coefficients of the equilibrium monic polynomial.
    """
    out = []
    prev = 1
    for m in range(C.n):
        cur = -C.sub[m] * prev / C.diag[m]
        out.append(cur)
        prev = cur
    return tuple(out)


def _eigenvector(C: TriangularC, n: int) -> List:
    # forward substitution; component indices are 0-based, eigen index n 0-based
    vec = [0 * C.diag[0] for _ in range(C.n)]
    vec[n] = 1 + 0 * C.diag[0]
    for m in range(n + 1, C.n):
        vec[m] = C.sub[m] * vec[m - 1] / (C.diag[n] - C.diag[m])
    return vec


def evolve_coeffs(C: TriangularC, c0: CoeffState, t: float) -> CoeffState:
    """Exact evolution via eigen decomposition (no time stepping).

    The affine system is shifted to the fixed point, the deviation is expanded
    in the triangular eigenbasis by forward substitution, each mode carries
    exp(mu_n (t - t0)), and the fixed point is added back. Raises OverflowRisk
    when a mode's exponential leaves binary64 (Re mu_n (t - t0) above about
    709).
    """
    if len(c0.c) != C.n:
        raise ValueError(f"state has {len(c0.c)} coefficients, matrix order is {C.n}")
    star = fixed_point(C)
    dev = [c0.c[m] - star[m] for m in range(C.n)]
    vecs = [_eigenvector(C, n) for n in range(C.n)]
    eta = []
    for n in range(C.n):
        acc = dev[n]
        for k in range(n):
            acc = acc - eta[k] * vecs[k][n]
        eta.append(acc)
    dt = t - c0.t
    out = list(star)
    for n in range(C.n):
        factor = eta[n]
        if abs(dt) > 0:
            rate = complex(C.diag[n]) * dt
            try:
                factor = factor * cmath.exp(rate)
            except OverflowError:
                raise OverflowRisk(
                    f"mode {n + 1}: exp(mu_{n + 1} (t - t0)) overflows binary64 at"
                    f" t = {t}, Re mu_{n + 1} (t - t0) = {rate.real:.4g}"
                ) from None
        for m in range(n, C.n):
            out[m] = out[m] + factor * vecs[n][m]
    return CoeffState(c=tuple(out), t=float(t))


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


def forward_spectrum(case: Case) -> Tuple:
    """case.M and its eigenvalues, each certified below EIG_TARGET relative
    forward error, which the tests pair with mu (the commands judge the
    backward error, Case.backward): certified_eigenvalues(case.M), except
    that where the binary64 certificate fails, M is rebuilt at the digits
    _escalated derives instead of having its entries converted, as the
    case of the parameters in that context (Case(in_context(params, ext)),
    whose zeros extended find_zeros finds), and its eigenvalues are refined
    there to eps64 (extended_eigenvalues). The binary64 M carries
    the rounding of the series coefficients as well as the eigensolve's
    backward error, and the same eigenvalue conditions amplify both."""
    M = case.M
    if len(M) == 1 or context_of(M[0, 0]).mp is not None:
        return M, certified_eigenvalues(M)
    vals, bounds = _eig_with_bound(M)
    if bounds.max() <= EIG_TARGET:
        return M, [complex(v) for v in vals]
    rows = Case(in_context(case.params, _escalated(bounds.max()))).M
    return M, binary64(extended_eigenvalues(rows, F64.eps)).tolist()


def certified_eigenvalues(A) -> List:
    """All eigenvalues of the square matrix A (an array or nested rows), in
    the precision of its entries, each certified below EIG_TARGET relative
    forward error in binary64 and EIG_TARGET (eps / eps64) at extended
    digits (first-order estimates, which leave out the backward error's
    dimension constant): the companion oracle's eigensolve before
    rootfind.companion_zeros finished its eigenvalues as zeros of p.

    Binary64: when the worst _eig_with_bound estimate exceeds EIG_TARGET,
    A's entries are converted to the digits that bring that bound below it
    (_escalated), and its eigenvalues are refined there to eps64. The
    digits come from A's bound, so A must be conditioned as its caller
    wants its eigenvalues read: at those digits an unbalanced companion
    matrix can misplace its smallest eigenvalues. Extended: they are
    refined to the entries' eps (extended_eigenvalues). A 1 x 1 matrix's
    eigenvalue is its entry, returned before any solve.
    """
    ctx = context_of(A[0][0])
    if len(A) == 1:
        return [ctx.convert(A[0][0])]
    if ctx.mp is not None:
        return extended_eigenvalues(A, ctx.eps)
    arr = np.asarray(A, dtype=complex)
    vals, bounds = _eig_with_bound(arr)
    worst = bounds.max()
    if worst <= EIG_TARGET:
        return [complex(v) for v in vals]
    ext = _escalated(worst)
    rows = [[ext.convert(v) for v in row] for row in arr]
    return binary64(extended_eigenvalues(rows, ctx.eps)).tolist()


def extended_eigenvalues(rows, eps_out: float) -> List:
    """Eigenvalues of the extended matrix rows (2 x 2 or larger): refined
    from its binary64 eigenpairs to eps_out (refined_eigenvalues_fdot), or,
    where that refinement cannot certify them, solved by mpmath.eig at the
    entries' digits (isospectral._eig_extended), uncertified."""
    refined = refined_eigenvalues_fdot(rows, eps_out)
    return isospectral._eig_extended(rows, context_of(rows[0][0])) if refined is None else refined


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


def _eigenpairs(arr):
    """Binary64 eigenvalues of arr, its unit right eigenvectors (the columns
    of V), V^-1 and the norms of the rows of V^-1, the condition of each
    eigenvalue (isospectral._eig_with_bound); V^-1 and the norms are None
    where V is singular or a row norm overflows. Raises EigenNoConvergence
    when the QR iteration does not converge."""
    try:
        vals, right = np.linalg.eig(arr)
    except np.linalg.LinAlgError as exc:
        raise EigenNoConvergence(str(exc)) from exc
    try:
        left = np.linalg.inv(right)
    except np.linalg.LinAlgError:
        return vals, right, None, None
    with np.errstate(over="ignore"):
        cond = np.linalg.norm(left, axis=1)
    if not np.isfinite(cond).all():
        return vals, right, None, None
    return vals, right, left, cond


def _norm(v) -> float:
    """||v||_2 of the binary64 vector v, scaled by its largest part only where
    the squared parts leave the binary64 range and np.linalg.norm reads 0 or inf."""
    norm = float(np.linalg.norm(v))
    scale = float(np.abs(np.concatenate([v.real, v.imag])).max())
    if norm in (0, math.inf) and 0 < scale < math.inf:
        return scale * float(np.linalg.norm(v / scale))
    return norm


def refined_eigenvalues_fdot(rows, eps_out: float):
    """Eigenvalues of the extended matrix rows refined from its binary64
    eigenpairs (_eigenpairs), or None where they cannot be certified that
    way. Newton on (x, lambda) with x normalised to 1 at its largest
    component s (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal. 20(1),
    1983): the residual r = M x - lambda x one fdot per row (exact
    products, rounded once to the entries' digits, then to binary64), the
    correction solved in binary64 on the bordered matrix A - lambda I with
    column s replaced by -x, and x and lambda updated by the context's
    addition. lambda is an exact eigenvalue of M - r x^H / ||x||^2, so to
    first order it lies within ||r|| ||y|| / |y^H x| of one of M's, y^H
    row i of V^-1. A pair stops once that certificate reaches
    eps_out |lambda|, once it stops decreasing after the first correction,
    or after REFINE_STEPS corrections; the result is accepted only if every
    best certificate is below EIG_TARGET (eps_out / eps64) |lambda| and
    every two eigenvalues lie farther apart than the sum of their
    certificates."""
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
    residual A(z) - z*B(z) at each sample point, in the exact arithmetic of
    the sides' coefficients (ctx.exact), the value rounded once."""
    if p.degree != params.N:
        raise DegreeMismatch(f"polynomial degree {p.degree} != N = {params.N}")
    ctx = context_of(params.q)
    a_side, a_marks, b_side, b_marks = _operator_sides(p, params)
    a_side, b_side = (Poly(tuple(side), monic=False) for side in (a_side, b_side))
    out = []
    for z in ctx.exact(zs).tolist():
        a_val, a_scale = _horner_terms(a_side, z, 0, a_marks, size)
        b_val, b_scale = _horner_terms(b_side, z, 1, b_marks, size)
        out.append((ctx.convert(a_val - b_val), max(a_scale, b_scale)))
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


def qde_point_checks(case: Case, zs: Sequence):
    """The q-difference checks at the points zs, one point at a time, as
    verify judged them before it compared coefficients: the operator route
    by two Horner passes, A(z) and z B(z), over its largest intermediate
    term, and its defect from the expanded route over the case's qde_terms,
    addend by addend, over the larger scale."""
    params, p = case.params, case.monic
    size = context_of(params.q).size
    orient = (-1) ** (params.s + 1)
    terms = case.qde_terms
    residuals, agreements = [], []
    for z, (op_val, op_scale) in zip(zs, _operator_route(p, params, zs, size)):
        residuals.append(op_val / max(op_scale, TINY))
        exp_val, exp_scale = _expanded_terms(p, terms, case.flow_powers, z, size)
        agreements.append(size(op_val - orient * exp_val) / max(op_scale, exp_scale, 1.0))
    return residuals, agreements


def qde_coefficient_checks(case: Case):
    """qdiff.qde_checks one coefficient and one qde_terms addend at a time
    in the case's scalars: R_m = A_m - B_(m-1) over max(a_marks[m],
    b_marks[m-1]), and |R_m - (-1)^(s+1) E_m| over the larger of that and
    E_m's largest addend |w| |q^k|^(m-e) |c_(m-e)|, E_m summing the addends
    w (q^k)^(m-e) c_(m-e)."""
    params, p = case.params, case.monic
    ctx = context_of(params.q)
    size, N = ctx.size, params.N
    a_side, a_marks, b_side, b_marks = _operator_sides(p, params)
    A, a_marks = [*map(ctx.convert, a_side), 0], [*a_marks, 0.0]
    B, b_marks = [0, *map(ctx.convert, b_side)], [0.0, *b_marks]
    orient = (-1) ** (params.s + 1)
    residuals, agreements = [], []
    for m in range(N + 2):
        op_val, op_scale = A[m] - B[m], max(a_marks[m], b_marks[m])
        total, largest = 0, 0.0
        for k, w, e in case.qde_terms:
            if 0 <= m - e <= N:
                qk, c = case.flow_powers[k], p.coeffs[m - e]
                total = total + w * qk ** (m - e) * c
                largest = max(largest, size(w) * size(qk) ** (m - e) * size(c))
        residuals.append(op_val / max(op_scale, TINY))
        agreements.append(size(op_val - orient * total) / max(op_scale, largest, 1.0))
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


class Gaussian:
    """x + iy with Fraction parts: exact +, -, * and negation, and == on
    the value."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        other = gaussian(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = gaussian(other)
        return Gaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return gaussian(other) - self

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __mul__(self, other):
        other = gaussian(other)
        return Gaussian(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = gaussian(other)
        return (self.re, self.im) == (other.re, other.im)

    def __repr__(self):
        return f"Gaussian({self.re}, {self.im})"


def _fraction(part) -> Fraction:
    """The finite raw mpf value part, (sign, man, exp, bc), as a Fraction."""
    sign, man, exp, _ = part
    return (-1) ** sign * man * Fraction(2) ** exp


def gaussian(x) -> Gaussian:
    """The exact value of a Gaussian, Dyadic, mpc, mpf, complex or int."""
    if isinstance(x, Gaussian):
        return x
    if isinstance(x, Dyadic):
        return Gaussian(x.re * Fraction(2) ** x.exp, x.im * Fraction(2) ** x.exp)
    if hasattr(x, "_mpc_"):
        return Gaussian(*map(_fraction, x._mpc_))
    if hasattr(x, "_mpf_"):
        return Gaussian(_fraction(x._mpf_))
    x = complex(x)
    return Gaussian(x.real, x.imag)


def rounded_once(g: Gaussian, ctx):
    """g rounded once to ctx's mpc, each part to nearest."""
    prec = ctx.mp.prec
    return ctx.mp.make_mpc(tuple(from_rational(v.numerator, v.denominator, prec, round_nearest) for v in (g.re, g.im)))


def size64(g: Gaussian) -> float:
    """|g| from the binary64 roundings of its parts (each correctly rounded)."""
    return abs(complex(float(g.re), float(g.im)))


def _power_sum(coeffs, z: Gaussian) -> Gaussian:
    """sum_m coeffs[m] z^m, power by power."""
    total, power = Gaussian(0), Gaussian(1)
    for c in coeffs:
        total, power = total + c * power, power * z
    return total


def _grouped(params: ParamSet, terms):
    """The addends (k, w, e) summed per (k, e) in the scalars of w, in their
    order, as Gaussians, and the powers q^k in q's scalars as Gaussians:
    the weights and powers the kernels read."""
    sums = {}
    for k, w, e in terms:
        sums[k, e] = sums.get((k, e), 0) + w
    powers = {k: gaussian(params.q**k if k else 1) for k, _ in sums}
    return {key: gaussian(w) for key, w in sums.items()}, powers


def exact_qde_coefficients(case: Case):
    """The coefficients R_m = A_m - B_(m-1) of the operator route and
    E_m = sum_(k, e) w_(k, e) (q^k)^(m - e) c_(m - e) of the expanded
    route of qdiff.qde_checks, in exact Gaussian rationals of the operator
    sides' coefficients, p's, the grouped qde_terms weights and the powers
    of q, by power sums over each group."""
    params, p = case.params, case.monic
    a_side, _, b_side, _ = _operator_sides(p, params)
    a = [*map(gaussian, a_side), Gaussian(0)]
    b = [Gaussian(0), *map(gaussian, b_side)]
    weights, powers = _grouped(params, case.qde_terms)
    expanded = [Gaussian(0)] * (params.N + 2)
    for (k, e), w in weights.items():
        power = Gaussian(1)
        for m, c in enumerate(map(gaussian, p.coeffs)):
            expanded[m + e] = expanded[m + e] + w * power * c
            power = power * powers[k]
    return [x - y for x, y in zip(a, b)], expanded


def exact_prop1_totals(zeros: Sequence, params: ParamSet, p: Poly):
    """The N zero identities of zero_algebra.prop1_residuals and
    prop1_residuals_qde before normalisation, sum_k (a_k + b_k z_n) v_k with
    v_k = prod_l (z_n q^k - z_l) and with v_k = p(z_n q^k), in exact
    Gaussian rationals of the zeros, p's coefficients, the grouped weights
    (less p(z)'s) and the powers of q."""
    weights, powers = _grouped(params, [t for t in qde_terms(params) if t[0] or t[2]])
    zs = [gaussian(z) for z in zeros]
    coeffs = [gaussian(c) for c in p.coeffs]
    products, evaluations = [], []
    for zn in zs:
        prods, values = {}, {}
        for k, qk in powers.items():
            zk = zn * qk
            prods[k] = math.prod((zk - zl for zl in zs), start=Gaussian(1))
            values[k] = _power_sum(coeffs, zk)
        for out, v in ((products, prods), (evaluations, values)):
            out.append(sum((w * zn if e else w) * v[k] for (k, e), w in weights.items()))
    return products, evaluations


def exact_traces(M) -> List[Gaussian]:
    """tr M, tr M^2 and tr M^3 of the array M in exact Gaussian rationals of
    its entries, as sums over index pairs and triples."""
    E = [[gaussian(v) for v in row] for row in M.tolist()]
    n = range(len(E))
    return [
        sum(E[i][i] for i in n),
        sum(E[i][j] * E[j][i] for i in n for j in n),
        sum(E[i][j] * E[j][k] * E[k][i] for i in n for j in n for k in n),
    ]


def mpc_kernel_route(params: ParamSet, zeros: Sequence):
    """build_M and jacobian_fd over Case(params, zeros), the same formulas
    with every product rounded in the context's scalars: carried read as
    those scalars themselves (ctx.convert), so M's kernel tables and the
    Jacobian's one dual pass of the moved velocity are mpc products and
    reciprocals at extended digits."""

    def scalars(ctx, values):
        values = np.asarray(values, dtype=object)
        return np.array([ctx.convert(v) for v in values.flat], dtype=object).reshape(values.shape)

    carried = PrecisionContext.carried
    PrecisionContext.carried = scalars
    try:
        case = Case(params, zeros)
        return build_M(case), np.array(jacobian_fd(case), dtype=object)
    finally:
        PrecisionContext.carried = carried
