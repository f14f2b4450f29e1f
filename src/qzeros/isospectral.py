"""The spectral matrix over a zero configuration and its closed-form spectrum.

build_M assembles the dense N x N matrix, one array in the dtype of the
zeros' context, whose linearization role is verified in the flow module and
whose spectrum is claimed in closed form:

    mu_n = -q^{(s-r)(N-n)} (q^{-n} - 1) prod_j (alpha_j q^{N-n} - 1),  n = 1..N.

The eigenvalues depend only on q, N and the alphas, never on the betas: the
matrix family is isospectral under beta deformations, and with rational q and
alphas the spectrum is exactly rational (the exact path uses
fractions.Fraction end to end).

The matrix is the Jacobian of the zero flow, so its entries carry the flow's
weights (zero_algebra.velocity_weights, read from the one table of the
expanded q-difference equation, qdiff.qde_terms) times the derivatives of
the shift kernels, one kernel table a shift. mu_n is the one home of the
closed form; mu_closed, mu_closed_exact, closed_trace and the coefficient
flow's build_C all evaluate it.

Every check reads that array. The trace and determinant checks read it in
its own scalars, never rounded to binary64: matrix_power_trace by array
products, logdet_gap from the pivots of the one elimination (_eliminate),
which _lost_digits reads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, List, Sequence, Tuple

import mpmath
import numpy as np

from .errors import EigenNoConvergence, LengthMismatch
from .params import ParamSet, in_context
from .precision import F64, TINY, PrecisionContext, context_of, extended, rel_gap
from .qseries import coeffs_P, to_monic
from .rootfind import _aberth, find_zeros
from .zero_algebra import KernelCache, velocity_weights


def build_M(zeros, params: ParamSet) -> np.ndarray:
    """General assembly of the spectral matrix from a zero set, as an N x N
    array in the dtype of the zeros' context (complex128, or object holding
    mpc).

    M is the Jacobian of the zero flow velocity_n = sum_k (a_k + b_k z_n) f_n(k)
    over the shifts k of velocity_weights. By the kernel derivative
    identities (zero_algebra), with S = sum_k (q^k - 1) (a_k + b_k z_n) T_k,
    T_k the left_out_products table of shift k (one KernelCache table a
    shift),

        M_nm = z_n S_nm / (z_n - z_m)^2,   m != n,
        M_nn = sum_k b_k f_n(k) - sum_{m != n} z_m S_nm / (z_n - z_m)^2,

    the second sum being the g_n(k) of each shift against its weight,
    regrouped into one product with z and never divided by z_n.
    """
    zs = tuple(zeros)
    q = params.q
    z = np.asarray(zs, dtype=context_of(zs[0]).dtype)
    weights = velocity_weights(params)
    cache = KernelCache(z, q, weights)
    S = own = 0
    for k, (a, b) in weights.items():
        table = cache.fnm[k]
        # arrays on the left: an mpc on the left of an object array is slow
        S = S + table * ((z * b + a) * (q**k - 1))[:, None]
        own = own + table.diagonal() * b
    W = cache.inv * cache.inv * S
    M = W * z[:, None]
    M[np.eye(len(zs), dtype=bool)] = own - W @ z
    return M


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


def _eig_extended(rows, ctx: PrecisionContext) -> List:
    """Eigenvalues by mpmath.eig at the digits of the extended context ctx,
    as its scalars; entries that do not round to finite binary64 numbers
    add the digits the solve loses (_lost_digits): no diagonal scaling
    brings such an entry into range, and without them mpmath.eig returns 0
    for the zero 3 of z^2 - (1e400 + 3) z + 3e400.

    The one use of mpmath's own global context, scoped by workdps.
    """
    if len(rows) == 1:
        # mpmath.eig returns (E, ER, EL) for 1 x 1 input, whatever left/right say
        return [ctx.convert(rows[0][0])]
    dps = ctx.mp.dps
    if not np.isfinite(np.array(rows, dtype=complex)).all():
        dps += _lost_digits(rows, ctx)
    with mpmath.workdps(dps):
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


def certified_eigenvalues(A, rebuild: Callable[[PrecisionContext], Any] | None = None) -> List:
    """All eigenvalues of the square matrix A (an array or nested rows), in
    the precision of its entries, each certified below EIG_TARGET relative
    forward error in binary64 and EIG_TARGET (eps / eps64) at extended
    digits (first-order estimates, which leave out the backward error's
    dimension constant): the one eigensolve, of M and of the companion
    matrix.

    Binary64: when the _eig_with_bound estimate exceeds EIG_TARGET, the
    matrix is taken to the digits that bring that bound below it
    (_escalated), formed there by rebuild(ext) or else by converting A's
    entries, and its eigenvalues are refined there to eps64. The digits
    come from A's bound, so the escalated matrix must be conditioned as A
    is: at those digits an unbalanced companion matrix can misplace its
    smallest eigenvalues. Extended: they are refined to the entries' eps.
    Where the refinement cannot certify them (_refined_eigenvalues),
    mpmath.eig solves the matrix at its entries' digits (_eig_extended).
    """
    ctx = context_of(A[0][0])
    eps = ctx.eps
    if ctx.mp is None:
        arr = np.asarray(A, dtype=complex)
        vals, worst = _eig_with_bound(arr)
        if not worst > EIG_TARGET:
            return [complex(v) for v in vals]
        ext = _escalated(worst)
        A = rebuild(ext) if rebuild else [[ext.convert(v) for v in row] for row in arr]
    vals = _refined_eigenvalues(A, eps)
    if vals is None:
        vals = _eig_extended(A, context_of(A[0][0]))
    return vals if ctx.mp is not None else [complex(v) for v in vals]


def certified_spectrum(params: ParamSet, zeros: Sequence | None = None):
    """Matrix and eigenvalues for the spectrum identity, the eigenvalues
    from certified_eigenvalues in the precision of params.q.

    zeros is the caller's zero set of params, found in that precision; when
    omitted, the zeros are found here.

    The binary64 pipeline carries two error sources into the eigenvalues:
    the eigensolver backward error and the matrix contamination inherited
    from rounding the series coefficients (the computed zeros are near-exact
    roots of an already-rounded polynomial). The same per-eigenvalue
    conditions amplify both, so one _eig_with_bound certificate covers the
    decision, and an escalation rebuilds M at the escalated digits instead
    of converting its entries. The decision never consults the closed-form
    spectrum. M is not balanced: over the first 625 benchmark stream cases
    its certificate fails 19 times with balancing and 19 times without, and
    the scaling would have to follow the rebuild.

    Returns (M, lam). In binary64, M always comes from the binary64 pipeline
    (its consumers, the entrywise and trace checks, are well conditioned);
    lam may come from the escalated rebuild.
    """
    if zeros is None:
        zeros = find_zeros(to_monic(coeffs_P(params)), params).zeros

    def rebuild(ext: PrecisionContext) -> np.ndarray:
        # q, alpha and beta in the escalated digits too, or binary64 roundings
        # of the q powers re-contaminate the matrix
        ext_params = in_context(params, ext)
        # Aberth sweeps finish the binary64 zeros at the escalated digits, as in
        # extended find_zeros; they sit ~1e-11 off, where the sweeps converge cubically
        pe = to_monic(coeffs_P(ext_params))
        return build_M(_aberth(pe, [ext.convert(z) for z in zeros], ext), ext_params)

    M = build_M(zeros, params)
    return M, certified_eigenvalues(M, rebuild)


def match_spectrum(numerical: Sequence, closed: Sequence) -> Tuple:
    """Nearest pairs first: a bijection between the two value lists.

    Complex values admit no stable total order (a conjugate pair has equal
    moduli to the last bit), so the lists are never sorted. The N^2
    distances |lambda_i - mu_j| of the binary64 roundings are visited in
    increasing order, an exact tie by the lower numerical, then closed
    index, and each pair is taken while both its ends are free. That is the
    minimum-total-distance assignment whenever each value lies closer to
    its partner than half the distance between any two closed values. Pairs
    come in the order of closed, with the gaps of the values themselves
    (rel_gap, with its max(1, |.|) guard): a tuple of (numerical, closed,
    abs_gap, rel_gap) rows.
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
    return tuple((lam[i], mv, float(abs(lam[i] - mv)), rel_gap(lam[i], mv)) for mv, i in zip(mu, partner))


def matrix_power_trace(M: np.ndarray, p: int):
    """tr(M^p) = sum_ij (M^{p-1})_ij M_ji from the entries of the array M in
    their own scalars (independent of the eigenvalues): no product for p = 2,
    one for 3."""
    ctx = context_of(M[0, 0])
    if p == 1:
        return ctx.convert(M.trace())
    return ctx.convert((np.linalg.matrix_power(M, p - 1) * M.T).sum())


def logdet_gap(M: np.ndarray, closed: Sequence) -> float:
    """|exp(log det M - sum log mu) - 1|, the scale-free determinant defect, in
    the scalars of M: log det M sums the logs of the pivots of _eliminate, plus
    i pi for an odd swap count, so it stays in log space; the branch is wrapped
    before exponentiating. A zero pivot, det M = 0, is a defect of 1."""
    ctx = context_of(M[0, 0])
    fn = ctx.elementary
    pivots, odd = _eliminate(M)
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
