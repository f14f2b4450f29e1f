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

The trace and determinant checks read M in its own scalars, never rounded to
binary64: matrix_power_trace on an array in the context's dtype, logdet_gap
from the pivots of the one elimination (_eliminate), which _lost_digits reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import mpmath
import numpy as np

from .errors import EigenNoConvergence, LengthMismatch
from .params import ParamSet, in_context
from .precision import F64, TINY, PrecisionContext, context_of, extended, rel_gap
from .qseries import coeffs_P, to_monic
from .rootfind import ZeroSet, _aberth, find_zeros
from .zero_algebra import KernelCache, velocity_terms


@dataclass(frozen=True)
class IsoMatrix:
    entries: Tuple  # row-major tuple of N tuples

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SpectrumReport:
    """Nearest-first matched (numerical, closed-form) pairs with scale-guarded gaps."""

    matched_pairs: Tuple  # (numerical, closed, abs_gap, rel_gap) per row


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
            row.append(zn * cache.inv_sq[n][m] * acc)
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
    params = in_context(params, context_of(params.q))
    diff = params.s - params.r
    return [mu_n(n, params.q, params.alpha, params.N, diff) for n in range(1, params.N + 1)]


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


def _eigenpairs(arr):
    """Binary64 eigenvalues of arr, its unit right eigenvectors (the columns
    of V), V^-1 and the norms of the rows of V^-1.

    Row i of V^-1 is y_i^H for the left eigenvector y_i scaled to
    y_i^H x_i = 1 (Wilkinson, The Algebraic Eigenvalue Problem, ch. 2; Golub
    & Van Loan, Matrix Computations, 7.2.2), so its norm is the condition of
    eigenvalue i, ||x_i|| ||y_i|| / |y_i^H x_i|. When V is singular, or so
    nearly singular that a row norm overflows (a defective matrix, such as
    a nilpotent Jordan block), there is no first-order certificate and
    V^-1 and the norms are None. Raises EigenNoConvergence when the QR
    iteration does not converge.
    """
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


def _eig_with_bound(arr):
    """Binary64 eigenvalues plus the worst relative forward error estimate.

    QR iteration is backward stable (exact for a perturbation of size
    O(eps ||M||)), and the forward error of eigenvalue i is that backward
    error amplified by the eigenvalue's condition, the norm of row i of V^-1
    (_eigenpairs; first order, simple eigenvalues). The estimate takes the
    backward error as exactly eps ||M||_2 and leaves out the modest
    dimension-dependent constant of the rigorous bound, so it is not a
    strict upper bound: on the benchmark-stream companion matrices the true
    error reached 5.7 times it. EIG_TARGET sits 1000x below the 1e-6
    spectrum_gap_max threshold to cover that. Without a condition (a
    singular V) the estimate is infinite. It is a property of the matrix
    alone; no reference values enter.
    """
    vals, _, _, cond = _eigenpairs(arr)
    if cond is None:
        return vals, math.inf
    with np.errstate(over="ignore"):
        err = F64.eps * np.linalg.norm(arr, 2) * cond
        return vals, float((err / np.maximum(np.abs(vals), TINY)).max())


def _refined_eigenvalues(rows, eps_out: float) -> List | None:
    """Eigenvalues of the extended matrix rows, refined from its binary64
    eigenpairs, or None when they cannot be certified that way: when the
    entries rounded to binary64 are not finite, when the binary64 QR
    iteration does not converge or its eigenvectors V are singular, or when
    a certificate fails. eps_out is the eps of the precision the caller
    returns them in: eps64 when they are rounded to binary64, the entries'
    own eps when they are kept.

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
    it lies within ||r|| ||y|| / |y^H x| of one of M's, y^H being row i of
    V^-1 (_eigenpairs), the binary64 left eigenvector (the certificate does
    not depend on how y is scaled). That certificate stops a pair once it
    reaches eps_out |lambda|, once it stops decreasing, or after REFINE_STEPS
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
            cert = float(np.linalg.norm(res)) * y_norm / max(abs(y_h @ x64), TINY)
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
    that of the entries.

    Every extended solve goes through here: M's escalated and extended
    solves (certified_spectrum) and the companion matrix's
    (eigenvalues_dense). mpmath.eig runs only as this fallback."""
    ctx = context_of(rows[0][0])
    vals = _refined_eigenvalues(rows, ctx.eps if eps_out is None else eps_out)
    if vals is None:
        vals = _eig_extended(rows, ctx)
    return vals


def _escalated(worst: float) -> PrecisionContext:
    # digits that bring the conditioning bound under the target, plus slack;
    # an infinite bound (a defective matrix) takes the 1/TINY cap
    excess = min(worst / EIG_TARGET, 1 / TINY)
    return extended(max(16 + int(math.ceil(math.log10(excess))) + 8, 24))


def _eliminate(rows) -> Tuple[List, bool]:
    """Pivots of partial-pivoting elimination of the square matrix rows (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 9) in its scalars, and
    the parity of the row swaps: det = (-1)^odd prod(pivots), 0 where a column
    has nothing left to pivot on."""
    ctx = context_of(rows[0][0])
    a = np.array(rows, dtype=ctx.dtype)
    pivots, odd = [], False
    for i in range(len(a)):
        k = max(range(i, len(a)), key=lambda j: ctx.size(a[j, i]))
        if k != i:
            a[[i, k]] = a[[k, i]]
            odd = not odd
        pivots.append(a[i, i])
        if a[i, i] != 0:
            a[i + 1 :, i + 1 :] -= np.outer(a[i + 1 :, i] / a[i, i], a[i, i + 1 :])
    return pivots, odd


def _lost_digits(rows, ctx: PrecisionContext) -> int:
    """Digits a backward-stable eigensolve of A = rows loses from its smallest
    eigenvalue, log10(||A||^N / |det A|) at most (0 for a singular A), det A
    from the pivots of _eliminate, which keeps the small pivots mpmath's det
    zeroes."""
    pivots, mag = _eliminate(rows)[0], ctx.mp.mag
    if not all(pivots):
        return 0
    norm_bits = max(mag(v) for row in rows for v in row) + len(rows).bit_length()
    return max(0, math.ceil((len(rows) * norm_bits - sum(mag(v) for v in pivots)) * math.log10(2)))


def eigenvalues_dense(rows: Sequence[Sequence]) -> List:
    """All eigenvalues of a dense matrix given as nested rows, in the
    precision of its entries.

    Both precisions first balance the matrix (Parlett & Reinsch 1969):
    B = D^-1 A D, D the powers of two that scipy.linalg.matrix_balance
    (LAPACK zgebal, no permutation; the only scipy.linalg routine the
    package calls, imported here) picks for A's binary64 rounding, applied
    to an array of A's own scalars. That is exact at any digits, so B has
    A's spectrum exactly (in binary64, B is LAPACK's balanced matrix bit for
    bit).
    For the companion matrices of rootfind.companion_zeros, whose
    coefficients span dozens of decades, that is what makes binary64
    eigenpairs of B good enough to certify or to refine (Edelman & Murakami
    1995).

    In binary64 the _eig_with_bound certificate on B holds for A as well;
    it reads the left eigenvectors of B as the rows of V^-1, V the right
    ones from numpy.linalg.eig, not as a separate LAPACK solve.
    Like every _eig_with_bound certificate it is an estimate that leaves out
    the backward error's dimension constant, not a strict bound. Over the 50
    suite cases 2 certificates exceed EIG_TARGET instead of 21 unbalanced.
    When the certificate still fails, B is taken to just enough extra digits
    that the same bound lands below it, and its eigenvalues are refined
    there from binary64 eigenpairs to eps64 (_eig_escalated). The digits are
    derived from B's bound, so the escalation must solve B too: at those
    digits the unbalanced A can misplace its smallest eigenvalues.

    Extended B's eigenvalues are refined to the entries' eps
    (_eig_escalated); unbalanced, the refinement fails on 14 of the 45 suite
    companion matrices with N > 1. Entries whose rounding is not finite are
    solved by mpmath.eig with _lost_digits added: no scaling brings a
    diagonal entry into range, and without them it returns 0 for the zero 3
    of z^2 - (1e400 + 3) z + 3e400.
    """
    ctx = context_of(rows[0][0])
    arr = _dense(rows)
    if ctx.mp is not None and not np.isfinite(arr).all():
        wide = extended(ctx.mp.dps + _lost_digits(rows, ctx))
        return [ctx.convert(v) for v in _eig_extended(rows, wide)]
    from scipy.linalg import matrix_balance  # loaded by the companion oracle only

    _, (scale, _) = matrix_balance(arr, permute=False, separate=True)
    d = np.array([ctx.convert(v) for v in scale], dtype=ctx.dtype)
    balanced = np.array(rows, dtype=ctx.dtype) * d / d[:, None]
    if ctx.mp is not None:
        return _eig_escalated(balanced)
    vals, worst = _eig_with_bound(balanced)
    if worst > EIG_TARGET:
        ext = _escalated(worst)
        vals = _eig_escalated([[ext.convert(v) for v in row] for row in balanced], F64.eps)
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
        # Aberth sweeps finish the binary64 zeros at the escalated digits, as in
        # extended find_zeros; they sit ~1e-11 off, where the sweeps converge cubically
        ext = _escalated(worst)
        # q, alpha and beta in the escalated digits too, or binary64 roundings
        # of the q powers re-contaminate the matrix
        ext_params = in_context(params, ext)
        pe = to_monic(coeffs_P(ext_params))
        zs = _aberth(pe, [ext.convert(z) for z in _zero_list(zeros)], ext)
        vals = _eig_escalated(build_M(zs, ext_params).entries, F64.eps)
    return M, [complex(v) for v in vals]


def match_spectrum(numerical: Sequence, closed: Sequence) -> SpectrumReport:
    """Nearest pairs first: a bijection between the two value lists.

    Complex values admit no stable total order (a conjugate pair has equal
    moduli to the last bit), so the lists are never sorted. The N^2
    distances |lambda_i - mu_j| of the binary64 roundings are visited in
    increasing order, an exact tie by the lower numerical, then closed
    index, and each pair is taken while both its ends are free. That is the
    minimum-total-distance assignment whenever each value lies closer to
    its partner than half the distance between any two closed values. Pairs
    come in the order of closed, with the gaps of the values themselves
    (rel_gap, with its max(1, |.|) guard).
    """
    lam = list(numerical)
    mu = list(closed)
    if len(lam) != len(mu):
        raise LengthMismatch(f"{len(lam)} numerical vs {len(mu)} closed eigenvalues")
    n = len(lam)
    dist = np.abs(np.subtract.outer(np.array(lam, dtype=complex), np.array(mu, dtype=complex)))
    partner, free = [None] * n, [True] * n
    for flat in np.argsort(dist, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n)
        if free[i] and partner[j] is None:
            free[i], partner[j] = False, i
            if None not in partner:
                break
    pairs = [(lam[i], mv, float(abs(lam[i] - mv)), rel_gap(lam[i], mv)) for mv, i in zip(mu, partner)]
    return SpectrumReport(matched_pairs=tuple(pairs))


def matrix_power_trace(M: IsoMatrix, p: int):
    """tr(M^p) = sum_ij (M^{p-1})_ij M_ji from the entries of M in their own
    scalars (independent of the eigenvalues): no product for p = 2, one for 3."""
    ctx = context_of(M.entries[0][0])
    arr = np.array(M.entries, dtype=ctx.dtype)
    if p == 1:
        return ctx.convert(arr.trace())
    return ctx.convert((np.linalg.matrix_power(arr, p - 1) * arr.T).sum())


def logdet_gap(M: IsoMatrix, closed: Sequence) -> float:
    """|exp(log det M - sum log mu) - 1|, the scale-free determinant defect, in
    the scalars of M: log det M sums the logs of the pivots of _eliminate, plus
    i pi for an odd swap count, so it stays in log space; the branch is wrapped
    before exponentiating. A zero pivot, det M = 0, is a defect of 1."""
    ctx = context_of(M.entries[0][0])
    fn = ctx.elementary
    pivots, odd = _eliminate(M.entries)
    if not all(pivots):
        return 1.0
    diff = sum(fn.log(v) for v in pivots) - sum(fn.log(m) for m in closed) + odd * 1j * fn.pi
    turns = round(float(diff.imag / (2 * fn.pi)))
    return float(ctx.size(fn.exp(diff - turns * 2j * fn.pi) - 1))


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
