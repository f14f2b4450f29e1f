"""Zero-flow dynamics and the coefficient-space linear evolution.

The monic polynomial psi(z, t) = prod (z - z_n(t)) = z^N + sum c_m(t) z^{N-m}
evolves so that its coefficients obey a lower-bidiagonal affine system

    cdot_m = S_m c_{m-1} + mu_m c_m,   c_0 = 1 (forcing on m = 1),
    S_m  = (q^{N-m+1} - 1) prod_k (beta_k q^{N-m} - 1),
    mu_m = -q^{(s-r)(N-m)} (q^{-m} - 1) prod_j (alpha_j q^{N-m} - 1),

whose fixed point is exactly the coefficient vector of the equilibrium
polynomial (an independent oracle for the coefficient pipeline). The zeros
themselves obey the rational flow

    zdot_n = (-1)^s sum_i w_i z_n^{e_i} (q^{k_i} - 1) f_n(k_i),

summed over the addends (k_i, w_i, e_i) of the expanded q-difference equation
(qdiff.qde_terms, turned into flow weights by zero_algebra.velocity_terms):
the n-th zero identity over z_n prod_{l != n} (z_n - z_l). Its equilibria are
the true zeros and its linearization there is the spectral matrix. Velocities
are arrays in the dtype of the zeros' context (complex128, or object holding
mpc): _moved_velocity places each zero at an array of points, the others fixed.
jacobian_fd checks the linearization against build_M in one pass over K points
per zero on a circle of radius eps^(1/(K+1)) times its reach (eps the zeros'
precision; K = 6 in binary64, 4 at 50 digits); every other row moves through
one factor of its kernels: all K N^2 samples cost as much as K flow_rhs calls.
"""

from __future__ import annotations

import cmath
import functools
import warnings
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import (
    CollisionDetected,
    ConsistencyWarning,
    RepeatedEigenvalue,
    StepUnderflow,
)
from .isospectral import mu_n
from .params import ParamSet, in_context
from .precision import TINY, PrecisionContext, context_of
from .rootfind import ZeroSet, relative_separation
from .zero_algebra import _left_out_products, _reciprocals, decancelled_size, velocity_terms

COLLISION_TOL = 1e-10
# relative conjugate-direction dependence at which jacobian_fd warns
CONJUGATE_TOL = 1e-6


@dataclass(frozen=True)
class CoeffState:
    """Coefficients c_1..c_N at time t (c_0 = 1 is implicit, never stored)."""

    c: Tuple
    t: float = 0.0


@dataclass(frozen=True)
class FlowState:
    """Zero positions at time t."""

    z: Tuple
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
    """Assemble the diagonal (closed-form eigenvalues) and subdiagonal weights,
    in the precision of params.q."""
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
    for i in range(N):
        for j in range(i + 1, N):
            if abs(diag[i] - diag[j]) < 1e-12 * scale:
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
    exp(mu_n (t - t0)), and the fixed point is added back.
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
        factor = eta[n] * cmath.exp(complex(C.diag[n]) * dt) if abs(dt) > 0 else eta[n]
        for m in range(n, C.n):
            out[m] = out[m] + factor * vecs[n][m]
    return CoeffState(c=tuple(out), t=float(t))


def _f_bound(p: int, n: int, zs, q) -> float:
    """Sensitivity scale for |f_n(p)|: decancelled_size of its numerator
    product over |prod_{l != n} (z_n - z_l)|. |f_n(p)| itself collapses when
    q^p z_n lands on another zero (e.g. the chain q, .., q^N at r = s = 0);
    the scale tracks how much f_n(p) moves under an O(delta) displacement."""
    if len(zs) == 1:
        return 1.0
    zn = zs[n]
    others = [zl for l, zl in enumerate(zs) if l != n]
    den = 1.0
    for zl in others:
        den *= abs(zn - zl)
    return float(decancelled_size(zn * q**p, others) / den)


def _check_separation(zs) -> None:
    if relative_separation(zs) < COLLISION_TOL:
        raise CollisionDetected(
            f"pairwise relative separation below {COLLISION_TOL:.0e}"
        )


def _others(a):
    """Rows a[i] without entry i, N x (N-1); a vector counts as N copies of it."""
    n = len(a)
    # the flattened square without its first entry, in rows of n + 1, holds
    # a diagonal entry at the end of each row
    return np.broadcast_to(a, (n, n)).ravel()[1:].reshape(n - 1, n + 1)[:, :-1].reshape(n, n - 1)


def _moved_velocity(terms, others, q, z, inv):
    """Velocity of zero i placed at each z[i, j], the zeros others[i] fixed:
    sum c z^e f_i(k) over the (k, c, e) addends of terms, each f_i(k) a product
    of factors as f_n takes it; inv[i, l, j] = 1/(z[i, j] - others[i, l])."""
    f = {}
    for k in {t[0] for t in terms}:
        f[k] = ((z[:, None, :] * q**k - others[..., None]) * inv).prod(axis=1)
    total = np.zeros_like(z)
    for k, c, e in terms:
        total = total + f[k] * (z * c if e else c)
    return total


def flow_rhs(state, params: ParamSet) -> List:
    """Velocities of all zeros at the given configuration (a FlowState, or a
    sequence or array of zeros), as builtin complex or mpc scalars."""
    zs = state.z if isinstance(state, FlowState) else state
    zs = np.asarray(zs, dtype=context_of(zs[0]).dtype)
    _check_separation(zs.tolist())
    others, z = _others(zs), zs[:, None]
    inv = 1 / (z[:, None, :] - others[..., None])
    return _moved_velocity(velocity_terms(params), others, params.q, z, inv)[:, 0].tolist()


def equilibrium_residual(zeros, params: ParamSet) -> float:
    """max_n |velocity_n| / velocity-scale, the scale being the largest
    factor-wise term bound in the n-th sum: a scale-free stall check."""
    zs = zeros.zeros if isinstance(zeros, ZeroSet) else tuple(zeros)
    terms = velocity_terms(params)
    shifts = {t[0] for t in terms}
    worst = 0.0
    for n, (zn, velocity) in enumerate(zip(zs, flow_rhs(zs, params))):
        bound = {k: _f_bound(k, n, zs, params.q) for k in shifts}
        largest = TINY
        for k, c, e in terms:
            largest = max(largest, float(abs(c * zn if e else c)) * bound[k])
        worst = max(worst, float(abs(velocity) / largest))
    return worst


@functools.cache
def _contour(ctx: PrecisionContext):
    """K, radius eps^(1/(K+1)), w^-j for j < K/2 and circle w^j for j < K
    (w = e^(2 pi i/K) in the scalar type, w^(j+K/2) = -w^j) of jacobian_fd.
    K is the least even K >= 4 whose conjugate truncation eps^((K-2)/(K+1))
    is 100x below CONJUGATE_TOL: 6 in binary64, 4 at 50 digits, 12 at most."""
    k = 4
    while k < 12 and ctx.eps ** ((k - 2) / (k + 1)) > CONJUGATE_TOL / 100:
        k += 2
    if ctx.mp is None:
        up = [cmath.exp(2j * cmath.pi * j / k) for j in range(k // 2)]
    else:
        up = ctx.mp.unitroots(k)[: k // 2]
    down = tuple(w.conjugate() for w in up)
    return k, ctx.eps ** (1 / (k + 1)), down, tuple(up + [-w for w in up])


def jacobian_fd(params: ParamSet, zeros):
    """Jacobian of the flow velocity at the given configuration, by the
    K-point trapezoidal rule on a circle around each zero, in one array pass.

    Column m moves z_m alone; only the factor (q^k z_n - z_m)/(z_n - z_m) of
    each f_n(k), n != m, depends on it, so row n != m is (P - Q z)/(z_n - z)
    with P, Q summed once per call from the products that leave it out, and
    row m is _moved_velocity. The K samples of all N columns form one array
    F[m, n, j] in the dtype of the zeros' context; both contour sums reduce
    over j. The velocity formula is the one flow_rhs sums, and neither
    KernelCache nor build_M is read, so the check against M stays independent.

    Column m samples F_j at z_m + h w^j, j < K, with w = e^(2 pi i/K) and
    h = eps^(1/(K+1)) * min(|z_m|, distance from z_m to its nearest other
    zero), eps being the precision of the zeros: the zeros of one
    configuration can span eight orders of magnitude, and no zero is 0. The
    flow is holomorphic in z_m away from collisions, so
    (1/(K h)) sum w^-j F_j is the derivative to O(h^K) truncation plus
    O(eps/h) round-off, and (1/(K h)) sum w^j F_j, the derivative in
    conj(z_m), is 0 up to O(h^(K-2)) (Lyness & Moler 1967); a
    ConsistencyWarning is raised when it exceeds CONJUGATE_TOL relative.
    The antipodal samples w^(j+K/2) = -w^j share one difference in both.
    """
    zs = tuple(zeros.zeros if isinstance(zeros, ZeroSet) else zeros)
    _check_separation(zs)
    ctx = context_of(zs[0])
    n_count = len(zs)
    terms = velocity_terms(params)
    qk = {k: params.q**k for k, _, _ in terms}
    inv = [_reciprocals(zs, n) for n in range(n_count)]
    zarr = np.asarray(zs, dtype=ctx.dtype)
    others = _others(zarr)
    # weight[k][n]: sum of c z_n^e over the addends of shift k
    weight = {k: np.zeros_like(zarr) for k in qk}
    for k, c, e in terms:
        weight[k] = weight[k] + (zarr * c if e else c)
    # with z_m moved to z, row n = others[m, l] is (z_n p_sum - q_sum z)/(z_n - z)
    p_sum = q_sum = 0
    for k, w in weight.items():
        left_out = [_left_out_products(zs, n, qk[k], inv[n]) for n in range(n_count)]
        wl = _others(w) * _others(np.array(left_out, dtype=ctx.dtype).T)
        p_sum = p_sum + wl * qk[k]
        q_sum = q_sum + wl

    samples, rel_step, down, circle = _contour(ctx)
    h = [rel_step * float(min(map(ctx.size, [zm, *(others[m] - zm)]))) for m, zm in enumerate(zs)]
    z = zarr[:, None] + np.array(h, dtype=ctx.dtype)[:, None] * np.array(circle, dtype=ctx.dtype)
    inv_at = 1 / (z[:, None, :] - others[..., None])
    velocities = np.empty((n_count, n_count, samples), dtype=ctx.dtype)
    diagonal = np.eye(n_count, dtype=bool)
    velocities[diagonal] = _moved_velocity(terms, others, params.q, z, inv_at)
    rows = (z[:, None, :] * q_sum[..., None] - (others * p_sum)[..., None]) * inv_at
    velocities[~diagonal] = rows.reshape(-1, samples)
    # 1/(K h) in the scalar type: a float would round extended quotients to binary64
    scale = np.array([(1 / ctx.convert(samples * hm)).real for hm in h], dtype=ctx.dtype)
    half = samples // 2
    diffs = (velocities[..., :half] - velocities[..., half:]) * scale[:, None, None]
    # deriv[m, n] = d F_n / d z_m; conj[m, n], its conj(z_m) counterpart
    deriv = (diffs * np.array(down, dtype=ctx.dtype)).sum(axis=-1)
    conj = (diffs * np.array(circle[:half], dtype=ctx.dtype)).sum(axis=-1)
    worst_conjugate = float((np.abs(conj) / np.maximum(1.0, np.abs(deriv))).max())
    if worst_conjugate > CONJUGATE_TOL:
        msg = f"the circle rule implies a conjugate-direction dependence of {worst_conjugate:.3e}"
        warnings.warn(msg, ConsistencyWarning, stacklevel=2)
    return tuple(map(tuple, deriv.T.tolist()))


def integrate_flow(
    params: ParamSet,
    z0,
    t_end: float,
    dt_max: float,
    rtol: float = 1e-12,
) -> List[FlowState]:
    """Adaptive embedded Runge-Kutta trajectory, sampled at most every dt_max.

    Aborts with CollisionDetected the moment any pairwise relative separation
    crosses the collision threshold; StepUnderflow if the integrator stalls.
    Always steps in binary64.
    """
    zs0 = tuple(z0.z if isinstance(z0, FlowState) else z0)
    t0 = float(z0.t) if isinstance(z0, FlowState) else 0.0
    if relative_separation(zs0) < COLLISION_TOL:
        raise CollisionDetected("initial configuration already below the collision threshold")
    if t_end == t0:
        return [FlowState(z=zs0, t=t0)]
    if dt_max <= 0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")

    from scipy.integrate import solve_ivp

    y0 = np.array([complex(z) for z in zs0], dtype=complex)

    def rhs(_t, y):
        return np.array(flow_rhs(y, params))

    def separation_event(_t, y):
        sep = relative_separation(tuple(y))
        return min(sep, 1.0) - COLLISION_TOL

    separation_event.terminal = True
    separation_event.direction = -1

    steps = max(1, int(np.ceil(abs(t_end - t0) / dt_max)))
    t_eval = np.linspace(t0, t_end, steps + 1)
    sol = solve_ivp(
        rhs,
        (t0, t_end),
        y0,
        method="RK45",
        t_eval=t_eval,
        rtol=rtol,
        atol=rtol * max(1.0, float(np.max(np.abs(y0)))),
        events=separation_event,
    )
    if sol.status == 1:
        raise CollisionDetected(
            f"pairwise separation crossed {COLLISION_TOL:.0e} at t = {sol.t_events[0][0]:.6g}"
        )
    if not sol.success:
        raise StepUnderflow(sol.message)
    return [
        FlowState(z=tuple(sol.y[:, i]), t=float(sol.t[i])) for i in range(sol.t.size)
    ]
