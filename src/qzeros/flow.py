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
the n-th zero identity over z_n prod_{l != n} (z_n - z_l). Grouped by shift
(zero_algebra.velocity_weights, formed once per parameter set by
ParamSet.stage) it reads zdot_n = sum_k (a_k + b_k z_n) f_n(k), one kernel
product a shift. Its equilibria are the true zeros and its linearization
there is the spectral matrix. Velocities are arrays in the dtype of the
zeros' context (complex128, or object holding mpc): _moved_velocity places
each zero at an array of points, the others fixed, and multiplies its sum
over the shifts by the product of the reciprocals 1/(z - z_l) once.
jacobian_fd checks the linearization against build_M in one pass over K points
per zero on a circle of radius eps^(1/(K+1)) times its reach (eps the zeros'
precision; K = 6 in binary64, 4 at 50 digits); every other row moves through
one factor of its kernels, read from the case's kernel tables (Case.kernels,
the ones build_M reads): all K N^2 samples cost as much as K flow_rhs calls.
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
    OverflowRisk,
    RepeatedEigenvalue,
    StepUnderflow,
)
from .isospectral import Case, mu_n
from .params import ParamSet, in_context
from .precision import TINY, PrecisionContext, context_of
from .rootfind import pairwise_gaps, relative_separation
from .zero_algebra import shifted_products, velocity_terms, velocity_weights

COLLISION_TOL = 1e-10
# integrate_flow's RK45 relative tolerance; its absolute tolerance is this
# times max(1, largest starting |z_n|)
FLOW_RTOL = 1e-12
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


def _f_bound(p: int, n: int, zs, q) -> float:
    """Sensitivity scale for |f_n(p)|: the shifted_products scale of its
    numerator over |prod_{l != n} (z_n - z_l)|. |f_n(p)| itself collapses when
    q^p z_n lands on another zero (e.g. the chain q, .., q^N at r = s = 0);
    the scale tracks how much f_n(p) moves under an O(delta) displacement."""
    if len(zs) == 1:
        return 1.0
    z = np.asarray(zs, dtype=context_of(zs[0]).dtype)
    products, scales = shifted_products(np.array([z[n] * q**p, z[n]], dtype=z.dtype), np.delete(z, n))
    return float(scales[0] / abs(products[1]))


def _check_separation(zs) -> np.ndarray:
    """pairwise_gaps(zs); CollisionDetected below COLLISION_TOL or at a NaN."""
    gaps = pairwise_gaps(zs)
    if not relative_separation(zs, gaps) >= COLLISION_TOL:
        raise CollisionDetected(f"pairwise relative separation below {COLLISION_TOL:.0e}")
    return gaps


def _others(a):
    """Rows a[i] without entry i, N x (N-1); a vector counts as N copies of it."""
    n = len(a)
    # the flattened square without its first entry, in rows of n + 1, holds
    # a diagonal entry at the end of each row
    return np.broadcast_to(a, (n, n)).ravel()[1:].reshape(n - 1, n + 1)[:, :-1].reshape(n, n - 1)


def _moved_velocity(weights, others, q, z, inv):
    """Velocity of zero i placed at each z[i, j], the zeros others[i] fixed:
    sum_k (a_k + b_k z) f_i(k) over the velocity_weights items (k, (a_k, b_k)),
    f_i(k) = prod_l (q^k z - others[i, l]) times the product of the
    inv[i, l, j] = 1/(z[i, j] - others[i, l]) over l, which no shift changes
    and so multiplies the sum once."""
    total = np.zeros_like(z)
    for k, (a, b) in weights.items():
        total = total + (z[:, None, :] * q**k - others[..., None]).prod(axis=1) * (z * b + a)
    return total * inv.prod(axis=1)


def flow_rhs(zs, params: ParamSet) -> List:
    """Velocities of all zeros at the configuration zs (a sequence or array of
    zeros), as builtin complex or mpc scalars."""
    zs = np.asarray(zs, dtype=context_of(zs[0]).dtype)
    _check_separation(zs)
    others, z = _others(zs), zs[:, None]
    inv = 1 / (z[:, None, :] - others[..., None])
    return _moved_velocity(params.stage(velocity_weights), others, params.q, z, inv)[:, 0].tolist()


def equilibrium_residual(zeros, params: ParamSet) -> float:
    """max_n |velocity_n| / velocity-scale, the scale being the largest
    factor-wise term bound in the n-th sum: a scale-free stall check. The
    bound is taken per velocity_terms addend, not per shift: a grouped
    weight can cancel, and the scale would then move with it."""
    zs = tuple(zeros)
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


def jacobian_fd(case: Case):
    """Jacobian of the flow velocity at the case's zeros, by the K-point
    trapezoidal rule on a circle around each zero, in one array pass.

    Column m moves z_m alone; only the factor (q^k z_n - z_m)/(z_n - z_m) of
    each f_n(k), n != m, depends on it, so row n != m is (P - Q z)/(z_n - z)
    with P, Q summed once per call, one shift of velocity_weights at a time,
    from the products that leave it out (the case's kernel tables,
    Case.kernels), and row m is _moved_velocity. The K samples of all N
    columns form one array F[m, n, j] in the dtype of the zeros' context;
    both contour sums reduce over j, and 1/(K h) scales each sum, not each
    sample: in the scalar type for the derivative, in floats for the
    conj(z_m) sum, of which only the size is read. The velocity formula is
    the one flow_rhs sums, and the derivative is formed from the contour
    samples, never from the kernel derivative identities that build_M
    assembles, so the check against M stays independent: the kernel tables
    the two share are products of the zeros, not derivatives.

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
    params = case.params
    gaps = _check_separation(case.zeros)
    kernels = case.kernels
    zarr = kernels.z
    ctx = context_of(zarr[0])
    n_count = len(zarr)
    weights = params.stage(velocity_weights)
    others = _others(zarr)
    # with z_m moved to z, row n = others[m, l] is (z_n p_sum - q_sum z)/(z_n - z)
    p_sum = q_sum = 0
    for k, (a, b) in weights.items():
        qk = params.q**k
        wl = _others(zarr * b + a) * _others(kernels.fnm[k].T)
        p_sum = p_sum + wl * qk
        q_sum = q_sum + wl

    samples, rel_step, down, circle = _contour(ctx)
    h = rel_step * np.asarray(np.minimum(ctx.sizes(zarr), gaps.min(axis=1)), dtype=float)
    z = zarr[:, None] + np.array(h, dtype=ctx.dtype)[:, None] * np.array(circle, dtype=ctx.dtype)
    inv_at = 1 / (z[:, None, :] - others[..., None])
    velocities = np.empty((n_count, n_count, samples), dtype=ctx.dtype)
    diagonal = np.eye(n_count, dtype=bool)
    velocities[diagonal] = _moved_velocity(weights, others, params.q, z, inv_at)
    rows = (z[:, None, :] * q_sum[..., None] - (others * p_sum)[..., None]) * inv_at
    velocities[~diagonal] = rows.reshape(-1, samples)
    half = samples // 2
    diffs = velocities[..., :half] - velocities[..., half:]
    # deriv[m, n] = d F_n / d z_m, times 1/(K h) after the sum and in the
    # scalar type: a float would round extended quotients to binary64
    scale = np.array([(1 / ctx.convert(samples * hm)).real for hm in h], dtype=ctx.dtype)
    deriv = (diffs * np.array(down, dtype=ctx.dtype)).sum(axis=-1) * scale[:, None]
    # its conj(z_m) counterpart feeds one float comparison: sized, then scaled in floats
    conj = ctx.sizes((diffs * np.array(circle[:half], dtype=ctx.dtype)).sum(axis=-1))
    conj = conj / (samples * h)[:, None]
    worst_conjugate = float((conj / np.maximum(1.0, ctx.sizes(deriv))).max())
    if worst_conjugate > CONJUGATE_TOL:
        msg = f"the circle rule implies a conjugate-direction dependence of {worst_conjugate:.3e}"
        warnings.warn(msg, ConsistencyWarning, stacklevel=2)
    return tuple(map(tuple, deriv.T.tolist()))


def integrate_flow(params: ParamSet, z0, t_end: float, dt_max: float) -> List[FlowState]:
    """Adaptive embedded Runge-Kutta trajectory from the zeros z0 at t = 0 to
    t_end, sampled at most every dt_max.

    Aborts with OverflowRisk, naming t, as soon as a state or velocity it
    evaluates is not finite (the state checked before flow_rhs runs, so an
    overflow is never read as a collision); with CollisionDetected as soon
    as a right-hand side is evaluated at a configuration whose pairwise
    relative separation is below COLLISION_TOL (flow_rhs's check, which
    RK45 meets at each step's end point before accepting it); StepUnderflow
    if the integrator stalls. A start that is not finite is a collision.
    Always steps in binary64.
    """
    zs0 = tuple(z0)
    _check_separation(zs0)
    if t_end == 0:
        return [FlowState(z=zs0, t=0.0)]
    if dt_max <= 0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")

    from scipy.integrate import solve_ivp

    y0 = np.array([complex(z) for z in zs0], dtype=complex)

    def rhs(t, y):
        if not np.isfinite(y).all():
            raise OverflowRisk(f"the flow state is not finite at t = {t:.6g}")
        # an overflow is reported as OverflowRisk below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            velocity = np.array(flow_rhs(y, params))
        if not np.isfinite(velocity).all():
            raise OverflowRisk(f"the flow velocity is not finite at t = {t:.6g}")
        return velocity

    steps = max(1, int(np.ceil(abs(t_end) / dt_max)))
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        y0,
        method="RK45",
        t_eval=np.linspace(0.0, t_end, steps + 1),
        rtol=FLOW_RTOL,
        atol=FLOW_RTOL * max(1.0, float(np.max(np.abs(y0)))),
    )
    if not sol.success:
        raise StepUnderflow(sol.message)
    return [
        FlowState(z=tuple(sol.y[:, i]), t=float(sol.t[i])) for i in range(sol.t.size)
    ]
