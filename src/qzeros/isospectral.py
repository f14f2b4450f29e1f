"""The spectral matrix over a zero configuration and its closed-form spectrum.

build_M assembles the dense N x N matrix, one array in the dtype of the
zeros' context, whose linearization role is verified in the flow module and
whose spectrum is claimed in closed form:

    mu_n = -q^{(s-r)(N-n)} (q^{-n} - 1) prod_j (alpha_j q^{N-n} - 1),  n = 1..N.

The eigenvalues depend only on q, N and the alphas, never on the betas: the
matrix family is isospectral under beta deformations, and with rational q and
alphas the spectrum is exactly rational: mu_n evaluates over
fractions.Fraction too, as the tests do.

The matrix is the Jacobian of the zero flow, so its entries carry the flow's
weights (zero_algebra.velocity_weights, read from the one table of the
expanded q-difference equation, qdiff.qde_terms) times the derivatives of
the shift kernels, one kernel table a shift. mu_n is the one home of the
closed form; mu_closed evaluates it, and so do the tests' exact rational
spectrum and coefficient flow (tests/oracles.py); closed_trace sums it over
n without evaluating it. build_M multiplies in the kernel tables' carried
arithmetic (precision.Dyadic at a width at extended digits: Gaussian
integers cut to 3 times the context's bits at each product, no mpc
product) and rounds M once into the context's scalars, which every check
then reads. build_M forms the kernel tables and their flow-weighted sum
(zero_algebra.KernelCache) itself, their one reader; the flow's Jacobian
check shares none of them. A Case holds one parameter set's stages, each
computed once, M among them; the same parameter set at more digits is
another Case, of the parameters in that context (params.in_context),
whose zeros come from find_zeros at those digits.

Every check reads that array. The spectrum verdict of verify and sweep
asks whether each mu_n is an exact eigenvalue of a matrix near M at mu_n's
own scale (Case.backward, a backward error that needs no eigenvalue of M,
read at more digits only where binary64 cannot resolve that scale;
certified_spectrum); verify reports M's eigenvalues from one binary64
solve in both precisions, which never escalates and is never judged
(Case.eigenpairs). The companion oracle of zeros reaches the refinement
(_extended_eigenvalues) only as the fallback of its Newton finish
(rootfind.companion_zeros). The trace and determinant checks
read M in its own scalars, never rounded to binary64: matrix_power_traces
by exact array products (precision.Dyadic at extended digits), each trace
rounded once, and logdet_gap by the ratio of det M to the closed
product, one running product of the pivots of an elimination
(_eliminate, which _lost_digits also reads) and the reciprocals of the
closed values, all in carried arithmetic (no logarithm).
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

import mpmath
import numpy as np
from mpmath.libmp import from_float, mpf_add, round_nearest

from .errors import DegreeMismatch, EigenNoConvergence, LengthMismatch
from .params import ParamSet, _elementary, in_context
from .precision import F64, TINY, PrecisionContext, _aligned, _float, _parts, binary64, context_of, extended, rel_gaps
from .qdiff import qde_terms
from .qseries import Poly, coeffs_P, to_monic
from .rootfind import ZeroSet, find_zeros, pairwise_gaps
from .zero_algebra import KernelCache, identity_grid, velocity_terms, velocity_weights


def build_M(case: Case) -> np.ndarray:
    """General assembly of the spectral matrix over the case's zeros, as an
    N x N array in the dtype of the zeros' context (complex128, or object
    holding mpc).

    M is the Jacobian of the zero flow velocity_n = sum_k (a_k + b_k z_n) f_n(k)
    over the shifts k of velocity_weights. By the kernel derivative
    identities (zero_algebra), with S = sum_k (q^k - 1) (a_k + b_k z_n) f_nm(k)
    and W = S / (z_n - z_m)^2, each N x (N - 1) over the other zeros (one
    KernelCache over the case's zeros and velocity_weights, one table a
    shift, and S the weighted sum it forms with them),

        M_nm = z_n W_nm,   m != n,
        M_nn = sum_k b_k f_n(k) - sum_{m != n} W_nm z_m,

    the second sum being the g_n(k) of each shift against its weight,
    regrouped into one product with z and never divided by z_n. Every
    product is taken in the tables' carried arithmetic and M is rounded
    once into the context's scalars (PrecisionContext.rounded).
    """
    cache = KernelCache(case.zeros, case.velocity_weights)
    z = cache.z
    own = sum(cache.fn[k] * b for k, (_, _, b) in case.velocity_weights.items())
    # W placed off a zero diagonal, so that one product with z sums each row
    W = np.zeros((len(z), len(z)), dtype=z.dtype)
    diagonal = np.eye(len(z), dtype=bool)
    W[~diagonal] = (cache.inv * cache.inv * cache.S).ravel()
    M = W * z[:, None]
    M[diagonal] = own - W @ z
    return context_of(case.params.q).rounded(M)


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


# relative forward error bound demanded of the returned eigenvalues; three
# orders below the 1e-6 match threshold, which is also the margin for the
# dimension constant the _eig_with_bound estimate leaves out (the true error
# reached 5.7 times the estimate on benchmark-stream companion matrices)
EIG_TARGET = 1e-9
# Newton corrections per eigenpair before _refined_eigenvalues gives up; on
# the first 625 benchmark stream cases case 199's pairs near 3.17e6 take 9
# (slow, then quadratic contraction), every other pair it certifies at most 4,
# and at most 3 to reach 50 digits on the 175 N <= 5 ones
REFINE_STEPS = 10


def _eig_extended(rows, ctx: PrecisionContext) -> List:
    """Eigenvalues by mpmath.eig at the digits of the extended context ctx,
    as its scalars; entries that do not round to finite binary64 numbers
    add the digits the solve loses (_lost_digits): no diagonal scaling
    brings such an entry into range, and without them mpmath.eig returns 0
    for the zero 3 of z^2 - (1e400 + 3) z + 3e400. rows is 2 x 2 or
    larger: mpmath.eig returns (E, ER, EL) for 1 x 1 input, whatever left
    and right say, and each caller takes a 1 x 1 entry itself.

    The one use of mpmath's own global context, scoped by workdps.
    """
    dps = ctx.mp.dps
    if not np.isfinite(binary64(rows)).all():
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


def _eig_with_bound(arr, norm: float | None = None):
    """Binary64 eigenvalues plus each one's relative forward error estimate.

    QR iteration is backward stable (exact for a perturbation of size
    O(eps ||M||)), and the forward error of eigenvalue i is that backward
    error amplified by the eigenvalue's condition, the norm of row i of V^-1
    (_eigenpairs; first order, simple eigenvalues). The estimate takes the
    backward error as exactly eps ||M||_2 (norm, where the caller has it)
    and leaves out the modest dimension-dependent constant of the rigorous
    bound, so it is not a strict upper bound: on the benchmark-stream
    companion matrices the true error reached 5.7 times it. EIG_TARGET sits
    1000x below the 1e-6 forward match threshold to cover that. Without a
    condition (a singular V) every estimate is infinite. It is a property
    of the matrix alone; no reference values enter.
    """
    vals, _, _, cond = _eigenpairs(arr)
    if cond is None:
        return vals, np.full(len(vals), math.inf)
    norm = np.linalg.norm(arr, 2) if norm is None else norm
    with np.errstate(over="ignore"):
        return vals, F64.eps * norm * cond / np.maximum(np.abs(vals), TINY)


def _complexes(re, im, e: int) -> np.ndarray:
    """(re + i im) 2^e for the integer arrays re and im, each part rounded
    once to binary64, as one flat complex array."""
    return np.array([complex(_float(a, e), _float(b, e)) for a, b in zip(re.flat, im.flat)])


def _aligned_array(parts) -> Tuple[np.ndarray, int]:
    """precision._aligned's integers as an object array, and their exponent."""
    ints, E = _aligned(parts)
    return np.array(ints, dtype=object), E


def _residual(A_re, A_im, eA: int, X_re, X_im, eX: int, L, eL: int) -> Tuple:
    """M X - X Lambda, exactly, for M = (A_re + i A_im) 2^eA, X = (X_re +
    i X_im) 2^eX and Lambda the diagonal of lambda_j = (L[2j] + i L[2j + 1])
    2^eL, one lambda a column of X (integer arrays, precision._aligned's):
    the integer parts of the residual and their exponent, the form
    _complexes rounds once."""
    E = min(eA, eL)
    L_re, L_im = L[0::2] << (eL - E), L[1::2] << (eL - E)
    M_re, M_im = A_re << (eA - E), A_im << (eA - E)
    R_re = M_re @ X_re - M_im @ X_im - X_re * L_re + X_im * L_im
    R_im = M_re @ X_im + M_im @ X_re - X_im * L_re - X_re * L_im
    return R_re, R_im, E + eX


def _norm(v) -> float:
    """||v||_2 of the binary64 vector v, scaled by its largest part only where
    the squared parts leave the binary64 range and np.linalg.norm reads 0 or inf."""
    norm = float(np.linalg.norm(v))
    scale = float(np.abs(np.concatenate([v.real, v.imag])).max())
    if norm in (0, math.inf) and 0 < scale < math.inf:
        return scale * float(np.linalg.norm(v / scale))
    return norm


def _refined_eigenvalues(rows, eps_out: float) -> Tuple[List, List[float]] | None:
    """Eigenvalues of the extended matrix rows, refined from its binary64
    eigenpairs, and each one's certificate over its modulus (a relative
    forward error bound, to first order), or None when they cannot be
    certified that way: when the entries rounded to binary64 are not
    finite, when the binary64 QR iteration does not converge or its
    eigenvectors V are singular, or when a certificate fails. eps_out is
    the eps of the precision the caller returns them in: eps64 when they
    are rounded to binary64, the entries' own eps when they are kept.

    Newton on (x, lambda) with x normalised to 1 at its largest component s
    (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal. 20(1), 1983): the
    residual r = M x - lambda x is exact and rounded once to binary64, and
    the correction solves, in binary64, the bordered matrix A - lambda I
    with column s replaced by -x, A being M rounded to binary64. Each
    correction gains about as many digits as binary64 holds, less the
    eigenvalue's condition, so two or three reach 50 digits. The bordered
    matrix is rebuilt at each correction: with one factorisation the
    iteration converges only linearly, at a rate set by the start's
    eigenvalue error times the eigenvalue's condition, which on suite case
    19 takes eight corrections to reach EIG_TARGET where Newton takes
    three.

    The arithmetic is on Python integers (README, Precision): M's entries
    read once over one power of two, x and lambda held as raw mpf values,
    R = M X - X Lambda formed exactly for all the pairs still refining and
    each component rounded once to binary64, each correction added by
    mpmath's raw addition at the entries' precision, to nearest. A pair
    whose residual leaves the binary64 range stops refining and keeps the
    best certificate it had; at the start, where it has none, the
    certificate fails.

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
    mp, prec = ctx.mp, ctx.mp.prec
    arr = binary64(rows)
    if not np.isfinite(arr).all():
        return None
    n = len(rows)
    try:
        vals, vr, left, cond = _eigenpairs(arr)
    except EigenNoConvergence:
        return None
    with np.errstate(over="ignore"):
        if cond is None or not (np.isfinite(np.abs(vals)).all() and np.isfinite(vr).all()):
            return None
    A, eA = _aligned_array([p for row in rows for v in row for p in _parts(v, mp)])
    A_re, A_im = A[0::2].reshape(n, n), A[1::2].reshape(n, n)
    target = EIG_TARGET * (eps_out / F64.eps)

    def plus(p, d: float):
        return mpf_add(p, from_float(d), prec, round_nearest)

    # per pair: the pivot s, lambda and x as raw mpf values, part by part
    # (x[2j], x[2j + 1] the parts of x_j), the best (certificate, lambda)
    # and the last certificate
    pivots, lams, xs = [], [], []
    for i in range(n):
        s = int(np.argmax(np.abs(vr[:, i])))
        x = vr[:, i] / vr[s, i]
        x[s] = 1
        pivots.append(s)
        lams.append([from_float(p) for p in (vals[i].real, vals[i].imag)])
        xs.append([from_float(p) for v in x for p in (v.real, v.imag)])
    best, prev = [None] * n, [None] * n
    active = list(range(n))
    for step in range(REFINE_STEPS + 1):
        X, eX = _aligned_array([p for i in active for p in xs[i]])
        X = X.reshape(len(active), n, 2)
        X_re, X_im = X[:, :, 0].T, X[:, :, 1].T
        L, eL = _aligned_array([p for i in active for p in lams[i]])
        x64s = _complexes(X_re, X_im, eX).reshape(n, len(active))
        lam64s = _complexes(L[0::2], L[1::2], eL)
        res = _complexes(*_residual(A_re, A_im, eA, X_re, X_im, eX, L, eL)).reshape(n, len(active))
        refining = []
        for c, i in enumerate(active):
            if not np.isfinite(res[:, c]).all():
                if best[i] is None:
                    return None
                continue
            s, x, x64, lam64 = pivots[i], xs[i], x64s[:, c], lam64s[c]
            cert = _norm(res[:, c]) * float(cond[i]) / max(abs(left[i] @ x64), TINY)
            if best[i] is None or cert < best[i][0]:
                best[i] = (cert, lams[i])
            if step > 1 and cert >= prev[i]:
                continue
            prev[i] = cert
            if cert <= eps_out * abs(lam64) or step == REFINE_STEPS:
                continue
            bordered = arr - lam64 * np.eye(n)
            bordered[:, s] = -x64
            try:
                delta = np.linalg.solve(bordered, -res[:, c])
            except np.linalg.LinAlgError:
                continue
            if not np.isfinite(delta).all():
                continue
            lams[i] = [plus(p, d) for p, d in zip(lams[i], (delta[s].real, delta[s].imag))]
            delta[s] = 0
            xs[i] = [plus(p, d) for p, d in zip(x, (d for v in delta for d in (v.real, v.imag)))]
            refining.append(i)
        active = refining
        if not active:
            break
    out = [mp.make_mpc(tuple(lam)) for _, lam in best]
    certs = np.array([cert for cert, _ in best])
    sizes = np.abs(binary64(out))
    if not ((certs <= target * sizes).all() and (pairwise_gaps(out) > certs[:, None] + certs).all()):
        return None
    return out, (certs / np.maximum(sizes, TINY)).tolist()


def _escalated(worst: float) -> PrecisionContext:
    # digits that bring the conditioning bound under the target, plus slack;
    # an infinite or NaN bound (a defective matrix, an overflow) takes the cap
    excess = worst / EIG_TARGET if worst / EIG_TARGET < 1 / TINY else 1 / TINY
    return extended(max(16 + int(math.ceil(math.log10(excess))) + 8, 24))


def _eliminate(rows) -> Tuple[List | None, bool]:
    """Pivots of partial-pivoting elimination of the square matrix rows (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 9) in its scalars,
    the context's own or carried ones (PrecisionContext.carried), each column
    below a pivot scaled by the pivot's reciprocal, the one division a
    carried value has; and the parity of the row swaps: det = (-1)^odd
    prod(pivots). The pivots are None where a column has nothing left to
    pivot on, det = 0."""
    ctx = context_of(rows[0][0])
    a = np.array(rows, dtype=ctx.dtype)
    pivots, odd = [], False
    for i in range(len(a)):
        k = max(range(i, len(a)), key=lambda j: ctx.size(a[j, i]))
        if not ctx.size(a[k, i]):
            return None, odd
        if k != i:
            a[[i, k]] = a[[k, i]]
            odd = not odd
        pivots.append(a[i, i])
        a[i + 1 :, i + 1 :] -= np.outer(a[i + 1 :, i] * (1 / a[i, i]), a[i, i + 1 :])
    return pivots, odd


def _lost_digits(rows, ctx: PrecisionContext) -> int:
    """Digits a backward-stable eigensolve of A = rows loses from its smallest
    eigenvalue, log10(||A||^N / |det A|) at most (0 for a singular A), det A
    from the pivots of _eliminate, which keeps the small pivots mpmath's det
    zeroes."""
    pivots, mag = _eliminate(rows)[0], ctx.mp.mag
    if pivots is None:
        return 0
    norm_bits = max(mag(v) for row in rows for v in row) + len(rows).bit_length()
    return max(0, math.ceil((len(rows) * norm_bits - sum(mag(v) for v in pivots)) * math.log10(2)))


def _extended_eigenvalues(rows, eps_out: float) -> Tuple[List, List]:
    """Eigenvalues of the extended matrix rows (2 x 2 or larger) and each
    one's relative certificate: refined to eps_out with the refinement's
    certificates, or, where the refinement cannot certify them
    (_refined_eigenvalues), solved by mpmath.eig at the entries' digits
    (_eig_extended) with None for each certificate."""
    refined = _refined_eigenvalues(rows, eps_out)
    if refined is not None:
        return refined
    vals = _eig_extended(rows, context_of(rows[0][0]))
    return vals, [None] * len(vals)


def _stacked_svd(M64: np.ndarray, nu64: np.ndarray, vectors: bool = False):
    """np.linalg.svd of the matrices M64 - nu_j I, one for each shift nu_j
    of nu64, in one stacked call, singular values only or with vectors; a
    solve that does not converge raises EigenNoConvergence."""
    n, k = len(M64), len(nu64)
    stack = np.empty((k, n, n), dtype=complex)
    stack[:] = M64
    # each shifted matrix's diagonal, a view of its flattened entries
    stack.reshape(k, n * n)[:, :: n + 1] -= nu64[:, None]
    try:
        return np.linalg.svd(stack, compute_uv=vectors)
    except np.linalg.LinAlgError as exc:
        raise EigenNoConvergence(str(exc)) from exc


def _witnessed(M: np.ndarray, closed: Sequence, S: np.ndarray, nu: np.ndarray, top: int) -> np.ndarray:
    """||(M - mu I) v|| / (||v|| |mu|) for each closed value mu, v the right
    singular vector of sigma_min(S - nu I), S and nu being M and mu rounded
    to binary64 and scaled by 2^-top (Case.backward): the residual is
    formed exactly on M's and mu's own values (_residual) and rounded once,
    so each value bounds sigma_min(M - mu I) / |mu| from above, free of the
    SVD's floor, up to the rounding of the norms (Kahan, Parlett & Jiang,
    SIAM J. Numer. Anal. 19, 1982: mu is an exact eigenvalue of
    M - r v^H / ||v||^2)."""
    n, k, mp = len(M), len(closed), context_of(M[0, 0]).mp
    V = _stacked_svd(S, nu, vectors=True)[2][:, -1].conj().T
    A, eA = _aligned_array([p for v in M.flat for p in _parts(v, mp)])
    L, eL = _aligned_array([p for v in closed for p in _parts(v, mp)])
    X, eX = _aligned_array([p for v in V.flat for p in _parts(v, mp)])
    R_re, R_im, e = _residual(
        A[0::2].reshape(n, n), A[1::2].reshape(n, n), eA, X[0::2].reshape(n, k), X[1::2].reshape(n, k), eX, L, eL
    )
    r = np.linalg.norm(_complexes(R_re, R_im, e - top).reshape(n, k), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return r / (np.linalg.norm(V, axis=0) * np.abs(nu))


def _read_eigenpairs(eta, indices, closed, ctx: PrecisionContext, lam: Sequence, certificates: Sequence) -> None:
    """eta[i] for each i in indices, read from the refined eigenvalues lam of
    M in ctx and their relative certificates: the least
    (|lambda - mu_i| + c |lambda|) / |mu_i|, which bounds
    sigma_min(M - mu_i I) / |mu_i| from above (Case.backward)."""
    for i in indices:
        mu = ctx.convert(closed[i])
        bound = min(abs(lv - mu) + (c or 0) * abs(lv) for lv, c in zip(lam, certificates))
        eta[i] = float(bound / abs(mu)) if mu else math.inf


class Case:
    """One parameter set in the precision of params.q, the one memo of its
    verdict: each stage computed on first use and held on the case, not
    keyed on values (mpc(0.5) at 30 digits equals mpc(0.5) at 50). The
    monic polynomial, its zeros (zeroset, or the caller's N zeros), the
    qde_terms table, its flow addends (velocity_terms), the powers q^k of
    its shifts (flow_powers, one a shift, the exact 1 at k = 0), which the
    flow addends and every shift grid read, their grouping by shift
    (velocity_weights), both zero-identity routes' shift grid, M (with the
    kernel tables it alone reads), the closed-form spectrum mu, the
    stacked SVD of M and of each M - mu_n I (shifted_svd), the spectrum
    verdict read from it (backward) and M's reported eigenvalues, solved
    in binary64 on the same scaled matrix (eigenpairs). A check of another
    polynomial sets monic. The same parameter set at more digits is
    Case(in_context(params, ctx)), whose zeros are find_zeros' at those
    digits: there is no other route to them."""

    def __init__(self, params: ParamSet, zeros: Sequence | None = None):
        self.params = params
        if zeros is not None:
            if len(zeros) != params.N:
                raise DegreeMismatch(f"got {len(zeros)} zeros for N = {params.N}")
            self.zeros = tuple(zeros)

    @functools.cached_property
    def monic(self) -> Poly:
        return to_monic(coeffs_P(self.params))

    @functools.cached_property
    def qde_terms(self) -> List:
        return qde_terms(self.params)

    @functools.cached_property
    def flow_powers(self) -> dict:
        return {k: self.params.q**k if k else 1 for k in {k for k, _, _ in self.qde_terms}}

    @functools.cached_property
    def velocity_terms(self) -> List:
        return velocity_terms(self)

    @functools.cached_property
    def velocity_weights(self) -> dict:
        return velocity_weights(self)

    @functools.cached_property
    def identity_grid(self) -> Tuple:
        return identity_grid(self)

    @functools.cached_property
    def zeroset(self) -> ZeroSet:
        return find_zeros(self.monic, self.params)

    @functools.cached_property
    def zeros(self) -> Tuple:
        return self.zeroset.zeros

    @functools.cached_property
    def M(self) -> np.ndarray:
        return build_M(self)

    @functools.cached_property
    def mu(self) -> List:
        return mu_closed(self.params)

    @functools.cached_property
    def shifted_svd(self) -> Tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """M and mu rounded to binary64 and scaled by 2^-top, top, and the
        singular values of that rounding S and of each S - nu_n I in one
        stacked SVD (_stacked_svd), which backward and eigenpairs read.
        top = 0 in binary64; at extended digits the largest of M's and mu's
        values comes near 1, so that entries beyond the binary64 range
        round to finite numbers."""
        M, closed = self.M, self.mu
        ctx = context_of(M[0, 0])
        if ctx.mp is None:
            S, nu, top = M, np.asarray(closed, dtype=complex), 0
        else:
            A, eA = _aligned_array([p for v in M.flat for p in _parts(v, ctx.mp)])
            L, eL = _aligned_array([p for v in closed for p in _parts(v, ctx.mp)])
            top = max(e + max(v.bit_length() for v in ints) for ints, e in ((A, eA), (L, eL)))
            S = _complexes(A[0::2], A[1::2], eA - top).reshape(M.shape)
            nu = _complexes(L[0::2], L[1::2], eL - top)
        # S itself is the shift 0, exactly: x - 0j = x
        return S, nu, top, _stacked_svd(S, np.concatenate(([0], nu)))

    @functools.cached_property
    def backward(self) -> np.ndarray:
        """The spectrum verdict: the backward error eta_n of each closed value
        mu_n as an eigenvalue of M.

        eta_n = sigma_min(M - mu_n I) / |mu_n| is the smallest perturbation
        of M, in the 2-norm and in units of |mu_n|, of which mu_n is an exact
        eigenvalue: the epsilon of the pseudospectrum that mu_n lies in
        (Trefethen & Embree, Spectra and Pseudospectra, 2005, ch. 2), taken
        at mu_n's own scale, so that the smallest |mu_n| of a wide spectrum
        is judged as closely as the largest. It needs no eigenvalue of M, so
        the conditioning of M's eigenproblem does not enter it. It never
        exceeds |lambda - mu_n| / |mu_n| for any eigenvalue lambda of M (a
        unit eigenvector is a witness). M is not balanced: that would take
        scipy.

        One formula in both precisions, read from shifted_svd. Binary64 is
        taken to hold M to about N eps64 ||M||_2 in the 2-norm: the
        pipeline's error in M, the rounding of its N^2 entries and the SVD's
        backward error are each of that order. So eta_n is resolved to
        N eps64 ||M||_2 / |mu_n|, its floor, which exceeds EIG_TARGET on
        wide spectra: on (r, s) = (3, 0) sets the binary64 M reads eta_n up
        to 3.6e-7 at the smallest |mu_n|, where M rebuilt at more digits
        reads below 3e-15. Where the floor exceeds EIG_TARGET, eta_n is read
        without it: from the exact residual of the SVD's own singular vector
        on M's and mu's values (_witnessed), an upper bound. Where that still
        exceeds EIG_TARGET for one of them, M may be off at those scales,
        and every eta_n beyond the floor is read from refined eigenpairs at
        digits that resolve it (_extended_eigenvalues, N > 1): at extended
        digits those of M itself, refined to its eps; in binary64 those of
        the M of the extended case, Case(in_context(params, ext)), at the
        digits ext that bring the floor below EIG_TARGET (_escalated),
        refined to eps64. That case's q, alpha and beta are this case's
        values at those digits (binary64 q powers would re-contaminate M),
        and its zeros are extended find_zeros', certified like every zero
        set. A refined pair (x, lambda) with certificate c has
        ||(M - mu_n I) x|| / ||x|| <= |lambda - mu_n| + c |lambda|, so eta_n
        is read as the least (|lambda - mu_n| + c |lambda|) / |mu_n| over
        them, an upper bound (_read_eigenpairs); eigenvalues that mpmath.eig
        solved, which carry no certificate, are taken as exact. On the first
        625 benchmark stream cases 12 read the witness and none rebuilds.
        """
        M, closed = self.M, self.mu
        ctx, n = context_of(M[0, 0]), len(M)
        S, nu, top, s = self.shifted_svd
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = s[1:, -1] / np.abs(nu)
            floor = n * F64.eps * s[0, 0] / np.abs(nu)
        unresolved = np.flatnonzero(~(floor <= EIG_TARGET))
        if unresolved.size:
            eta[unresolved] = _witnessed(M, [closed[i] for i in unresolved], S, nu[unresolved], top)
        if n == 1 or (eta[unresolved] <= EIG_TARGET).all():
            return eta
        ext = ctx if ctx.mp is not None else _escalated(floor[unresolved].max())
        rows = M if ext is ctx else Case(in_context(self.params, ext)).M
        _read_eigenpairs(eta, unresolved, closed, ext, *_extended_eigenvalues(rows, ctx.eps))
        return eta

    @functools.cached_property
    def eigenpairs(self) -> Tuple[List, List]:
        """M's eigenvalues, which verify reports and never judges, each with
        its relative forward error estimate (None where it is infinite):
        _eig_with_bound on shifted_svd's S, with sigma_max(S) from its SVD,
        in both precisions, the eigenvalues scaled back by 2^top exactly
        (ctx.ldexp). A 1 x 1 matrix's eigenvalue is its entry, certified 0."""
        M = self.M
        ctx = context_of(M[0, 0])
        if len(M) == 1:
            return [ctx.convert(M[0, 0])], [0.0]
        S, _, top, s = self.shifted_svd
        vals, bounds = _eig_with_bound(S, s[0, 0])
        return ctx.ldexp(vals, top), [float(b) if math.isfinite(b) else None for b in bounds]


def certified_spectrum(case: Case | ParamSet) -> Tuple[np.ndarray, np.ndarray]:
    """case.M and its spectrum verdict case.backward, which verify judges
    as spectrum_backward_max and sweep, over its beta perturbations, as
    spectrum_drift_max: a mu_n whose backward error exceeds EIG_TARGET is
    an eigenvalue of no matrix within EIG_TARGET |mu_n| of M. A bare
    ParamSet is taken as Case(params).
    """
    if isinstance(case, ParamSet):
        case = Case(case)
    return case.M, case.backward


def match_spectrum(numerical: Sequence, closed: Sequence, positions: bool = False) -> Tuple:
    """Nearest pairs first: a bijection between the two value lists.

    Complex values admit no stable total order (a conjugate pair has equal
    moduli to the last bit), so the lists are never sorted. The N^2
    distances |lambda_i - mu_j| of the binary64 roundings are visited in
    increasing order, an exact tie by the lower numerical, then closed
    index, and each pair is taken while both its ends are free. That is the
    minimum-total-distance assignment whenever each value lies closer to
    its partner than half the distance between any two closed values. Pairs
    come in the order of closed, with the gaps of the values themselves
    (rel_gaps, with its max(1, |.|) guard, in one pass): a tuple of
    (numerical, closed, abs_gap, rel_gap) rows, with numerical's position in
    place of its value if positions is set.
    """
    lam = list(numerical)
    mu = list(closed)
    if len(lam) != len(mu):
        raise LengthMismatch(f"{len(lam)} numerical vs {len(mu)} closed eigenvalues")
    n = len(lam)
    dist = np.abs(np.subtract.outer(binary64(lam), binary64(mu)))
    partner, free = [None] * n, [True] * n
    for flat in np.argsort(dist, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n)
        if free[i] and partner[j] is None:
            free[i], partner[j] = False, i
            if None not in partner:
                break
    paired = [lam[i] for i in partner]
    gaps = rel_gaps(paired, mu).tolist()
    rows = zip(partner if positions else paired, paired, mu, gaps)
    return tuple((row, mv, float(abs(lv - mv)), gap) for row, lv, mv, gap in rows)


def matrix_power_traces(M: np.ndarray) -> List:
    """tr M, tr M^2 and tr M^3 from the entries of the array M in their own
    scalars (independent of the eigenvalues), with one product M M: its
    diagonal sums tr M^2 = sum_ij M_ij M_ji, and tr M^3 = sum_ij (M^2)_ij M_ji.
    The products are exact (PrecisionContext.exact), so at extended digits
    each trace is M's entries' exact value rounded once."""
    ctx = context_of(M[0, 0])
    M = ctx.exact(M)
    square = M @ M
    return [ctx.convert(v) for v in (M.trace(), square.trace(), (square * M.T).sum())]


def logdet_gap(M: np.ndarray, closed: Sequence) -> float:
    """size(rho - 1) for rho = det M / prod mu_n, the scale-free determinant
    defect, in the carried arithmetic of M's context
    (PrecisionContext.carried: complex128, or Dyadic at a width): M read in
    once and reduced by _eliminate there, and rho = (-1)^odd prod(pivots) /
    prod(mu_n) one running product of its pivots and the carried
    reciprocals 1 / mu_n, rounded once.
    Each step takes a factor below 1 in size while the product's is at least
    1, and one of at least 1 otherwise, so no partial product leaves the
    range of the factors and rho: a determinant beyond binary64 range still
    compares, and only a rho beyond it reads inf (a binary64 overflow that
    leaves NaN parts as well). A zero pivot, det M = 0, is a defect of 1.

    verify reads it on case.M, which in binary64 comes from the binary64
    pipeline, and the relative condition of det M is kappa_1(M), which need
    not be small: on an (r, s) = (3, 0) parameter set whose mu_n span 9.8e3
    to 6.8e12, eps kappa_1(M) is 5.6e-1 and the binary64 det_gap reads 1.1."""
    ctx = context_of(M[0, 0])
    pivots, odd = _eliminate(ctx.carried(M))
    if pivots is None:
        return 1.0
    factors = np.concatenate([pivots, 1 / ctx.carried(closed)])
    small = np.asarray(ctx.sizes(factors) < 1, dtype=bool)
    below, above = factors[small].tolist(), factors[~small].tolist()
    rho = -1 if odd else 1
    while below or above:
        rho = rho * (below if below and (not above or ctx.size(rho) >= 1) else above).pop()
    gap = float(ctx.size(rho - 1))
    return math.inf if math.isnan(gap) else gap


def closed_trace(params: ParamSet):
    """Closed-form trace, a sum of r + 1 terms, with d = s - r:

        sum_n mu_n = -sum_{k=0}^{r} c_k [q^(-N) G(q^(d+k+1)) - G(q^(d+k))],

    c_k = (-1)^(r-k) e_k(alpha) the coefficients of prod_j (alpha_j x - 1),
    expanded in mu_n at x = q^(N-n), and G(x) = (1 - x^N)/(1 - x), G(1) = N,
    the sum of the geometric series. Generic over the scalar type, exact
    Fractions included; mu_n is never evaluated.
    """
    q, N, r = params.q, params.N, params.r
    d = params.s - r

    def G(x):
        return N if x == 1 else (1 - x**N) / (1 - x)

    total = 0
    for k, e_k in enumerate((1,) + _elementary(params.alpha)):
        c_k = (-1) ** (r - k) * e_k
        total = total - c_k * (q ** (-N) * G(q ** (d + k + 1)) - G(q ** (d + k)))
    return total
