"""The spectral matrix over a zero configuration and its closed-form spectrum.

build_M assembles the dense N x N matrix whose linearization role is verified
in the flow module and whose spectrum is claimed in closed form:

    mu_n = -q^{(s-r)(N-n)} (q^{-n} - 1) prod_j (alpha_j q^{N-n} - 1),  n = 1..N.

The eigenvalues depend only on q, N and the alphas, never on the betas: the
matrix family is isospectral under beta deformations, and with rational q and
alphas the spectrum is exactly rational (the exact path uses
fractions.Fraction end to end).

The matrix is the Jacobian of the zero flow, so its entries carry the flow's
weights (zero_algebra.velocity_terms, read from the one table of the
expanded q-difference equation, qdiff.qde_terms) times the derivatives of
the shift kernels. mu_n is the one home of the closed form; mu_closed,
mu_closed_exact, closed_trace and the coefficient flow's build_C all
evaluate it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import mpmath
import numpy as np
import scipy.linalg

from .errors import EigenNoConvergence, LengthMismatch
from .params import ParamSet, in_context
from .precision import F64, TINY, PrecisionContext, context_of, extended
from .qseries import coeffs_P, eval_poly_deriv, to_monic
from .rootfind import ZeroSet, find_zeros
from .zero_algebra import KernelCache, velocity_terms

MATCH_TOL = 1e-6


@dataclass(frozen=True)
class IsoMatrix:
    entries: Tuple  # row-major tuple of N tuples

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SpectrumReport:
    """Hungarian-matched (numerical, closed-form) pairs with scale-guarded gaps."""

    matched_pairs: Tuple  # (numerical, closed, abs_gap, rel_gap) per row
    trace_gap: float
    det_gap: float
    power_trace_gaps: Tuple[float, float, float]
    is_match: bool


def _zero_list(zeros) -> Tuple:
    return tuple(zeros.zeros) if isinstance(zeros, ZeroSet) else tuple(zeros)


def build_M(zeros, params: ParamSet, cache: KernelCache | None = None) -> IsoMatrix:
    """General assembly of the spectral matrix from a certified zero set.

    M is the Jacobian of the zero flow velocity_n = sum c z_n^e f_n(k) over
    the velocity_terms addends (k, c, e). By the kernel derivative identities
    (zero_algebra), with d = c (q^k - 1),

        M_nm = z_n / (z_n - z_m)^2 sum d z_n^e f_nm(k),   m != n,
        M_nn = sum [e c f_n(k) - d z_n^e g_n(k)].
    """
    zs = _zero_list(zeros)
    q = params.q
    if cache is None:
        cache = KernelCache(zs, q, params.r, params.s)
    terms = [(k, c, e, c * (q**k - 1)) for k, c, e in velocity_terms(params)]
    rows = []
    for n, zn in enumerate(zs):
        scaled = [(k, d * zn if e else d) for k, _, e, d in terms]
        diag = 0
        for (k, c, e, _), (_, w) in zip(terms, scaled):
            diag = diag - w * cache.g[k][n]
            if e:
                diag = diag + c * cache.f[k][n]
        row = []
        for m, zm in enumerate(zs):
            if m == n:
                row.append(diag)
                continue
            acc = 0
            for k, w in scaled:
                acc = acc + w * cache.fnm[k][n][m]
            row.append(zn / (zn - zm) ** 2 * acc)
        rows.append(tuple(row))
    return IsoMatrix(entries=tuple(rows))


def mu_n(n: int, q, alphas: Sequence, N: int, diff: int):
    """The closed-form eigenvalue mu_n (1-based n, diff = s - r).

    Generic over the scalar type: complex, mpmath and Fraction values alike.
    """
    val = -(q ** (diff * (N - n))) * (q ** (-n) - 1)
    for a in alphas:
        val = val * (a * q ** (N - n) - 1)
    return val


def mu_closed(params: ParamSet) -> List:
    """Closed-form eigenvalues mu_n, n = 1..N, in the precision of params.q."""
    ctx = context_of(params.q)
    q = ctx.convert(params.q)
    alpha = [ctx.convert(a) for a in params.alpha]
    diff = params.s - params.r
    return [mu_n(n, q, alpha, params.N, diff) for n in range(1, params.N + 1)]


def mu_closed_exact(q: Fraction, alphas: Sequence[Fraction], N: int, r: int, s: int) -> List[Fraction]:
    """The same formula over exact rationals (always lowest terms)."""
    if len(alphas) != r:
        raise LengthMismatch(f"got {len(alphas)} alphas for r = {r}")
    return [Fraction(mu_n(n, q, alphas, N, s - r)) for n in range(1, N + 1)]


# relative forward error bound demanded of the returned eigenvalues; three
# orders below the 1e-6 match threshold, which is also the margin for the
# dimension constant the _eig_with_bound estimate leaves out (the true error
# reached 5.7 times the estimate on benchmark-stream companion matrices)
EIG_TARGET = 1e-9
# Newton corrections per eigenpair before _refined_eigenvalues gives up; no
# pair it certifies on the first 625 benchmark stream cases takes more than 4,
# nor more than 3 to reach 50 digits on the 175 N <= 5 ones
REFINE_STEPS = 6


def _dense(rows) -> np.ndarray:
    return np.array([[complex(v) for v in row] for row in rows], dtype=complex)


def _eig_extended(rows, ctx: PrecisionContext) -> List:
    """Eigenvalues at the digits of the extended context ctx, as its scalars.

    The one use of mpmath's own global context, scoped by workdps.
    """
    if len(rows) == 1:
        # mpmath.eig returns (E, ER, EL) for 1 x 1 input, whatever left/right say
        return [ctx.convert(rows[0][0])]
    with mpmath.workdps(ctx.mp.dps):
        mat = mpmath.matrix([[mpmath.mpc(v) for v in row] for row in rows])
        try:
            vals = mpmath.eig(mat, left=False, right=False)
        except Exception as exc:  # mpmath raises bare exceptions on breakdown
            raise EigenNoConvergence(str(exc)) from exc
    return [ctx.convert(v) for v in vals]


def _eig_with_bound(arr):
    """Binary64 eigenvalues plus the worst relative forward error estimate.

    QR iteration is backward stable (exact for a perturbation of size
    O(eps ||M||)), and the forward error of eigenvalue i is that backward
    error amplified by 1 / |y_i^H x_i| (first order, simple eigenvalues).
    The estimate takes the backward error as exactly eps ||M||_2 and leaves
    out the modest dimension-dependent constant of the rigorous bound, so
    it is not a strict upper bound: on the benchmark-stream companion
    matrices the true error reached 5.7 times it. EIG_TARGET sits 1000x
    below MATCH_TOL to cover that. The estimate is a property of the matrix
    alone; no reference values enter.
    """
    try:
        vals, vl, vr = scipy.linalg.eig(arr, left=True, right=True)
    except np.linalg.LinAlgError as exc:
        raise EigenNoConvergence(str(exc)) from exc
    norm = float(np.linalg.norm(arr, 2))
    eps = float(np.finfo(float).eps)
    worst = 0.0
    for i in range(len(vals)):
        align = abs(np.vdot(vl[:, i], vr[:, i]))
        err = eps * norm / max(align, TINY)
        worst = max(worst, err / max(abs(vals[i]), TINY))
    return vals, worst


def _refined_eigenvalues(rows, eps_out: float) -> List | None:
    """Eigenvalues of the extended matrix rows, refined from its binary64
    eigenpairs, or None when they cannot be certified that way. eps_out is
    the eps of the precision the caller returns them in: eps64 when they
    are rounded to binary64, the entries' own eps when they are kept.

    Newton on (x, lambda) with x normalised to 1 at its largest component s
    (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal. 20(1), 1983): the
    residual r = M x - lambda x is computed in the digits of the entries,
    one fdot per row, and the correction solves, in binary64, the bordered
    matrix A - lambda I with column s replaced by -x, A being M rounded to
    binary64. Each correction gains about as many digits as binary64
    holds, less the eigenvalue's condition, so two or three reach 50
    digits. The bordered matrix is rebuilt at each correction: with one
    factorisation the iteration converges only linearly, at a rate set by
    the start's eigenvalue error times the eigenvalue's condition, which
    on suite case 19 takes eight corrections to reach EIG_TARGET where
    Newton takes three.

    lambda is an exact eigenvalue of M - r x^H / ||x||^2, so to first order
    it lies within ||r|| ||y|| / |y^H x| of one of M's, y being the binary64
    left eigenvector. That certificate stops a pair once it reaches
    eps_out |lambda|, once it stops decreasing, or after REFINE_STEPS
    corrections; it may rise at the first correction, since the binary64
    start has a backward-stable residual but a poor eigenvector when the
    eigenvalue is ill-conditioned. The result is accepted only if every
    certificate is below EIG_TARGET (eps_out / eps64) |lambda|, the margin
    above round-off that EIG_TARGET gives binary64, and every two
    eigenvalues lie farther apart than the sum of their certificates, so
    that no two starts converged to one eigenvalue of M.
    """
    ctx = context_of(rows[0][0])
    fdot = ctx.mp.fdot
    arr = _dense(rows)
    n = len(rows)
    try:
        vals, vl, vr = scipy.linalg.eig(arr, left=True, right=True)
    except np.linalg.LinAlgError:
        return None
    target = EIG_TARGET * (eps_out / F64.eps)
    lams, certs = [], []
    for i in range(n):
        y = vl[:, i]
        y_norm = float(np.linalg.norm(y))
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
            cert = float(np.linalg.norm(res)) * y_norm / max(abs(np.vdot(y, x64)), TINY)
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


def _eig_escalated(rows, eps_out: float | None = None) -> List:
    """Eigenvalues of the extended matrix rows: refined from binary64
    eigenpairs when that certifies, else mpmath.eig at the entries' digits.
    eps_out is the eps of the precision they are returned in, by default
    that of the entries."""
    ctx = context_of(rows[0][0])
    vals = _refined_eigenvalues(rows, ctx.eps if eps_out is None else eps_out)
    if vals is None:
        vals = _eig_extended(rows, ctx)
    return vals


def _escalated(worst: float) -> PrecisionContext:
    # digits that bring the conditioning bound under the target, plus slack
    return extended(max(16 + int(math.ceil(math.log10(worst / EIG_TARGET))) + 8, 24))


def eigenvalues_dense(rows: Sequence[Sequence]) -> List:
    """All eigenvalues of a dense matrix given as nested rows, in the
    precision of its entries.

    The f64 path first balances the matrix (scipy.linalg.matrix_balance
    without permutation, LAPACK zgebal; Parlett & Reinsch 1969): B = D^-1 A D
    with D diagonal of exact powers of two, so B is A's spectrum exactly and
    the _eig_with_bound certificate on B holds for A as well. Like every
    _eig_with_bound certificate it is an estimate that leaves out the
    backward error's dimension constant, not a strict bound. For the
    companion matrices of rootfind.companion_zeros, whose coefficients span
    dozens of decades, it is far tighter (Edelman & Murakami 1995): over the
    50 suite cases 2 certificates exceed EIG_TARGET instead of 21. When the
    certificate still fails, the solve is redone on B in just enough extra
    digits that the same bound lands below it. The digits are derived from
    B's bound, so the escalation must solve B too: at those digits the
    unbalanced A can misplace its smallest eigenvalues.

    Extended entries are solved as given, at their digits.
    """
    ctx = context_of(rows[0][0])
    if ctx.mp is not None:
        return _eig_extended(rows, ctx)
    balanced, _ = scipy.linalg.matrix_balance(_dense(rows), permute=False)
    vals, worst = _eig_with_bound(balanced)
    if worst > EIG_TARGET:
        vals = _eig_extended(balanced, _escalated(worst))
    return [complex(v) for v in vals]


def certified_spectrum(params: ParamSet, zeros: Sequence | None = None):
    """Matrix and eigenvalues for the spectrum identity, with the
    eigenvalues certified below EIG_TARGET relative forward error in
    binary64 and EIG_TARGET (eps / eps64) at extended digits (first-order
    estimates, which leave out the backward error's dimension constant).

    The precision is that of params.q. zeros is the caller's zero set of
    params, found in that precision; when omitted, the zeros are found
    here. With extended params the matrix is built at their digits from
    those zeros, and its eigenvalues are refined from its binary64
    eigenpairs to the eps of those digits (_refined_eigenvalues, each
    certified below EIG_TARGET (eps / eps64) |lambda|); mpmath.eig solves
    it only when that fails (none of the 175 N <= 5 benchmark stream
    cases).

    The binary64 pipeline carries two error sources into the eigenvalues:
    the eigensolver backward error and the matrix contamination inherited
    from rounding the series coefficients (the computed zeros are near-exact
    roots of an already-rounded polynomial). Both are amplified by the same
    per-eigenvalue condition numbers, so one _eig_with_bound certificate
    covers the decision: when it exceeds EIG_TARGET, the zeros are refined
    in extended digits and the matrix rebuilt there. Its eigenvalues are
    then refined by Newton from the binary64 eigenpairs of that matrix,
    with the residuals in the extended digits, to the binary64 eps they
    are returned in (_refined_eigenvalues); only when that cannot certify
    them does mpmath.eig solve it at those digits (1 of the 19 escalations
    of the first 625 benchmark stream cases). The decision never consults
    the closed-form spectrum, so escalation is a property of the assembled
    matrix alone. M is not balanced the way eigenvalues_dense balances:
    over the first 625 benchmark stream cases its certificate fails 19
    times with balancing and 19 times without, and an escalation rebuilds
    M in extended digits, where the scaling would have to follow.

    Returns (M, lam). In binary64, M always comes from the binary64 pipeline
    (its consumers, the entrywise and trace checks, are well conditioned);
    lam may come from the escalated rebuild.
    """
    if zeros is None:
        zeros = find_zeros(to_monic(coeffs_P(params)), params).zeros
    M = build_M(zeros, params)
    ctx = context_of(params.q)
    if ctx.mp is not None:
        return M, _eig_escalated(M.entries)
    vals, worst = _eig_with_bound(_dense(M.entries))
    if worst > EIG_TARGET:
        # six Newton sweeps refine the zeros to the escalated digits: binary64
        # zeros sit ~1e-11 relative from the true ones, far inside the basin
        # since neighboring zeros are never that close for generic parameters
        ext = _escalated(worst)
        # q, alpha and beta in the escalated digits too, or binary64 roundings
        # of the q powers re-contaminate the matrix
        ext_params = in_context(params, ext)
        pe = to_monic(coeffs_P(ext_params))
        zs = [ext.convert(z) for z in _zero_list(zeros)]
        for _ in range(6):
            refined = []
            for z in zs:
                val, der = eval_poly_deriv(pe, z)
                refined.append(z - val / der if der != 0 else z)
            zs = refined
        vals = _eig_escalated(build_M(zs, ext_params).entries, F64.eps)
    return M, [complex(v) for v in vals]


def _rel_gap(a, b) -> float:
    return float(abs(a - b) / max(1.0, abs(b)))


def match_spectrum(numerical: Sequence, closed: Sequence) -> SpectrumReport:
    """Minimum-total-distance bijection between the two eigenvalue lists.

    Complex spectra admit no stable total order, so pairing is by assignment
    on the |lambda_i - mu_j| cost matrix, never by sorting. All gaps use the
    max(1, |.|) denominator guard; the determinant gap is accumulated in
    log space from per-pair ratios to dodge product overflow.
    """
    lam = list(numerical)
    mu = list(closed)
    if len(lam) != len(mu):
        raise LengthMismatch(f"{len(lam)} numerical vs {len(mu)} closed eigenvalues")
    n = len(lam)
    from scipy.optimize import linear_sum_assignment

    cost = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(n):
            cost[i, j] = abs(complex(lam[i]) - complex(mu[j]))
    row_ind, col_ind = linear_sum_assignment(cost)
    order = sorted(range(n), key=lambda i: col_ind[i])
    pairs = []
    log_ratio = 0.0 + 0.0j
    for i in order:
        lv, mv = lam[row_ind[i]], mu[col_ind[i]]
        pairs.append((lv, mv, float(abs(lv - mv)), _rel_gap(lv, mv)))
        log_ratio += cmath.log(complex(lv) / complex(mv))

    tr_gap = _rel_gap(sum(lam), sum(mu))
    power_gaps = tuple(
        _rel_gap(sum(v**p for v in lam), sum(v**p for v in mu)) for p in (1, 2, 3)
    )
    det_gap = float(abs(cmath.exp(log_ratio) - 1.0))
    gaps = [pair[3] for pair in pairs] + [tr_gap, det_gap, *power_gaps]
    return SpectrumReport(
        matched_pairs=tuple(pairs),
        trace_gap=tr_gap,
        det_gap=det_gap,
        power_trace_gaps=power_gaps,
        is_match=all(g < MATCH_TOL for g in gaps),
    )


def matrix_power_trace(M: IsoMatrix, p: int):
    """Trace of M^p computed from the matrix itself (independent of eigenvalues)."""
    arr = _dense(M.entries)
    acc = arr
    for _ in range(p - 1):
        acc = acc @ arr
    return complex(np.trace(acc))


def matrix_logdet(M: IsoMatrix):
    """log |det M| and phase, via LU (sign, logabsdet) plus angle accumulation."""
    sign, logabs = np.linalg.slogdet(_dense(M.entries))
    return float(logabs), cmath.phase(complex(sign))


def logdet_gap(M: IsoMatrix, closed: Sequence) -> float:
    """|exp(log det M - sum log mu) - 1|, the scale-free determinant defect."""
    logabs, phase = matrix_logdet(M)
    target = 0.0 + 0.0j
    for mv in closed:
        target += cmath.log(complex(mv))
    diff = complex(logabs, phase) - target
    # collapse the phase to the principal branch before exponentiating
    wrapped = complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))
    return float(abs(cmath.exp(wrapped) - 1.0))


def closed_trace(params: ParamSet):
    """Closed-form trace: explicit formulas for (r, s) = (1, 1) and (2, 1),
    the eigenvalue sum otherwise (valid for every case).

    Works over complex scalars and exact Fractions alike.
    """
    q = params.q
    N = params.N
    if (params.r, params.s) == (1, 1):
        a1 = params.alpha[0]
        return (
            -a1 * q ** (N + 2) / (q**2 - 1) * (1 - q ** (-2 * N - 2))
            + (q + a1 * q ** (N + 1)) / (q - 1) * (1 - q ** (-N - 1))
            - N
            - 1
        )
    if (params.r, params.s) == (2, 1):
        a1, a2 = params.alpha
        return (
            q ** (-N)
            / (q**2 - 1)
            * (
                -N * (q**2 - 1) * (1 + q**N * (a1 + a2))
                + (q**N - 1)
                * (q**2 + a1 + a2 - a1 * a2 + q ** (1 + N) * a1 * a2 + q * (1 + a1 + a2))
            )
        )
    total = 0
    for n in range(1, N + 1):
        total = total + mu_n(n, q, params.alpha, N, params.s - params.r)
    return total
