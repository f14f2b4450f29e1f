"""Zero-flow dynamics.

The monic polynomial psi(z, t) = prod (z - z_n(t)) moves with its zeros; its
coefficients then obey a lower-bidiagonal affine system whose diagonal is
the closed-form spectrum and whose fixed point is the equilibrium
polynomial (PAPER.md's equivalent coefficient-space linear flow). No command
reads that system, so it lives in tests/oracles.py (build_C, fixed_point,
evolve_coeffs). The zeros themselves obey the rational flow

    zdot_n = (-1)^s sum_i w_i z_n^{e_i} (q^{k_i} - 1) f_n(k_i),

summed over the addends (k_i, w_i, e_i) of the expanded q-difference equation
(qdiff.qde_terms, turned into flow weights by zero_algebra.velocity_terms):
the n-th zero identity over z_n prod_{l != n} (z_n - z_l). Grouped by shift
(zero_algebra.velocity_weights, a stage of the case) it reads
zdot_n = sum_k (a_k + b_k z_n) f_n(k), one kernel product a shift. Its
equilibria are the true zeros and its linearization there is the spectral
matrix. Velocities are arrays in the carried arithmetic of the zeros'
context (PrecisionContext.carried: complex128, or at extended digits
precision.Dyadic at a width, Gaussian integers cut to 3 times the
context's bits at each product), rounded once on the way out:
_moved_velocity places each zero at an array of points, the others fixed,
and multiplies its sum over the shifts by the product of the reciprocals
1/(z - z_l) once. The zeros are read in once, at a width three times
their bits, and the K N sample points z_m +- h w^j of jacobian_fd are
formed there: their differences are exact while their scales differ by
less than about twice their bits, and are cut once at the width
otherwise, and each reciprocal 1/(z - z_l), like jacobian_fd's N scales
1/(K h), is a carried one (precision.Dyadic's, rounded once at the width).
jacobian_fd checks the linearization against build_M in one pass over K points
per zero on a circle of radius eps^(1/(K+1)) times its reach (eps the zeros'
precision; K = 6 in binary64, 4 at 50 digits); every other row moves through
one factor of its kernels, read from the flow-weighted kernel sums that the
case's kernel cache forms once (Case.kernels, whose S build_M reads): all
K N^2 samples cost as much as K flow_rhs calls.
integrate_flow steps in binary64 and returns the sample_times grid and the
zeros at each of its times, as two arrays.
"""

from __future__ import annotations

import cmath
import functools
import warnings
from typing import List, Tuple

import numpy as np

from .errors import CollisionDetected, ConsistencyWarning, OverflowRisk, StepUnderflow
from .isospectral import Case
from .precision import TINY, PrecisionContext, binary64, context_of
from .rootfind import pairwise_gaps, relative_separation
from .zero_algebra import shifted_products

COLLISION_TOL = 1e-10
# integrate_flow's RK45 relative tolerance; its absolute tolerance is this
# times max(1, largest starting |z_n|)
FLOW_RTOL = 1e-12
# relative conjugate-direction dependence at which jacobian_fd warns
CONJUGATE_TOL = 1e-6


def _check_separation(zs) -> np.ndarray:
    """pairwise_gaps(zs); CollisionDetected where relative_separation < COLLISION_TOL or NaN."""
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


def _moved_velocity(weights, others, z, inv):
    """Velocity of zero i placed at each z[i, j], the zeros others[i] fixed:
    sum_k (a_k + b_k z) f_i(k) over the velocity_weights items
    (k, (q^k, a_k, b_k)), f_i(k) = prod_l (q^k z - others[i, l]) times the
    product of the inv[i, l, j] = 1/(z[i, j] - others[i, l]) over l, which no
    shift changes and so multiplies the sum once."""
    total = np.zeros_like(z)
    for qk, a, b in weights.values():
        total = total + (z[:, None, :] * qk - others[..., None]).prod(axis=1) * (z * b + a)
    return total * inv.prod(axis=1)


def flow_rhs(zs, case: Case) -> List:
    """Velocities of all zeros at the configuration zs (a sequence or array of
    zeros) under the case's flow, as builtin complex or mpc scalars: the
    differences, reciprocals and products in their context's carried
    arithmetic (PrecisionContext.carried), each velocity rounded once."""
    ctx = context_of(zs[0])
    zs = np.asarray(zs, dtype=ctx.dtype)
    _check_separation(zs)
    others, z = ctx.carried(_others(zs)), ctx.carried(zs[:, None])
    velocity = _moved_velocity(case.velocity_weights, others, z, 1 / (z[:, None, :] - others[..., None]))
    return ctx.rounded(velocity[:, 0]).tolist()


def equilibrium_residual(case: Case) -> float:
    """max_n |velocity_n| / velocity-scale at the case's zeros, the scale
    being the largest factor-wise term bound in the n-th sum, taken per
    velocity_terms addend (a grouped weight can cancel): a scale-free stall
    check. |f_n(k)| is bounded by the shifted_products scale of its
    numerator, all in one call, at the points q^k z_n (each q^k the flow
    weights', rounded into the zeros' scalars), over |prod_{l != n} (z_n -
    z_l)|: f_n(k) itself vanishes where q^k z_n lands on another zero (the
    chain q, .., q^N at r = s = 0), and the scale tracks how it moves."""
    ctx = context_of(case.zeros[0])
    z = np.asarray(case.zeros, dtype=ctx.dtype)
    # the products of the scalars themselves, in object arrays: NumPy's
    # complex128 loops round some products unlike builtin complex
    column = np.array(case.zeros, dtype=object)[:, None]
    ks, cs, es = zip(*case.velocity_terms)
    shifts = sorted(set(ks))
    bound = np.ones((len(z), len(shifts)))
    if len(z) > 1:
        qk = ctx.rounded(np.array([case.velocity_weights[k][0] for k in shifts], dtype=object))
        points = np.hstack([column * qk, column]).astype(ctx.dtype)
        products, scales = shifted_products(points, _others(z)[:, None, :])
        bound = scales[:, :-1] / ctx.sizes(products[:, -1:])
    c = np.array(cs, dtype=object)
    sizes = np.where(es, ctx.sizes((column * c).astype(ctx.dtype)), ctx.sizes(c.astype(ctx.dtype)))
    largest = np.fmax.reduce(sizes * bound[:, [shifts.index(k) for k in ks]], axis=1, initial=TINY)
    velocity = ctx.sizes(np.asarray(flow_rhs(case.zeros, case), dtype=ctx.dtype))
    return float(np.fmax.reduce(velocity / largest, initial=0.0))


@functools.cache
def _contour(ctx: PrecisionContext):
    """K, radius eps^(1/(K+1)), w^-j and w^j for j < K/2 (w = e^(2 pi i/K)
    in the scalar type; w^(j+K/2) = -w^j gives the rest of the circle) of
    jacobian_fd.
    K is the least even K >= 4 whose conjugate truncation eps^((K-2)/(K+1))
    is 100x below CONJUGATE_TOL: 6 in binary64, 4 at 50 digits, 12 at most."""
    k = 4
    while k < 12 and ctx.eps ** ((k - 2) / (k + 1)) > CONJUGATE_TOL / 100:
        k += 2
    if ctx.mp is None:
        up = [cmath.exp(2j * cmath.pi * j / k) for j in range(k // 2)]
    else:
        up = ctx.mp.unitroots(k)[: k // 2]
    return k, ctx.eps ** (1 / (k + 1)), tuple(w.conjugate() for w in up), tuple(up)


def jacobian_fd(case: Case):
    """Jacobian of the flow velocity at the case's zeros, by the K-point
    trapezoidal rule on a circle around each zero, in one array pass.

    Column m moves z_m alone; only the factor (q^k z_n - z_m)/(z_n - z_m) of
    each f_n(k), n != m, depends on it, so row n != m is
    (z_n P - Q z)/(z_n - z), P = S + Q and Q read at (n, m) from the sums
    over the shifts of the products that leave z_m out, weighted by the
    flow (KernelCache.S and KernelCache.Q of the case's kernels), and row m
    is _moved_velocity, each divided in the carried arithmetic, where the
    sample points are formed from the kernels' zeros. The K
    samples of all N columns form one array F[m, n, j] in the dtype of the
    zeros' context; both contour sums reduce over j, and 1/(K h) scales
    each sum, not each sample: in the carried arithmetic for the
    derivative, and in floats for the conj(z_m) sum, taken in binary64 on
    the differences rounded once, of which only the size is read. The
    velocity formula is the one flow_rhs sums, and the derivative is formed
    from the contour samples, never from the kernel derivative identities
    that build_M assembles: the sums the two share are products of the
    zeros and the flow weights, not derivatives.

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
    gaps = _check_separation(case.zeros)
    kernels = case.kernels
    ctx = context_of(case.zeros[0])
    carried = ctx.carried
    n_count = len(kernels.z)
    # with z_m moved to z, row n = others[m, l] is (z_n P - Q z)/(z_n - z),
    # P = S + Q, each read at (n, m) from the case's weighted kernel sums
    others = _others(kernels.z)
    p_sum, q_sum = _others((kernels.S + kernels.Q).T), _others(kernels.Q.T)

    samples, rel_step, down, up = _contour(ctx)
    half = samples // 2
    h = rel_step * np.asarray(np.minimum(ctx.sizes(kernels.z), gaps.min(axis=1)), dtype=float)
    # the sample points z_m + h w^j and their antipodes z_m - h w^j, formed
    # and divided by in the carried arithmetic
    step = carried(h)[:, None] * carried(up)
    z = np.hstack([kernels.z[:, None] + step, kernels.z[:, None] - step])
    inv_at = 1 / (z[:, None, :] - others[..., None])
    velocities = np.empty((n_count, n_count, samples), dtype=ctx.dtype)
    diagonal = np.eye(n_count, dtype=bool)
    velocities[diagonal] = _moved_velocity(case.velocity_weights, others, z, inv_at)
    rows = (z[:, None, :] * q_sum[..., None] - (others * p_sum)[..., None]) * inv_at
    velocities[~diagonal] = rows.reshape(-1, samples)
    diffs = velocities[..., :half] - velocities[..., half:]
    # deriv[m, n] = d F_n / d z_m, times 1/(K h) after the sum and in the
    # carried arithmetic: a float would round extended quotients to binary64
    deriv = ctx.rounded((diffs * carried(down)).sum(axis=-1) * (1 / carried(samples * h))[:, None])
    # its conj(z_m) counterpart feeds one float comparison: summed in binary64
    conj = np.abs((binary64(diffs) * np.array(up, dtype=complex)).sum(axis=-1))
    conj = conj / (samples * h)[:, None]
    worst_conjugate = float((conj / np.maximum(1.0, ctx.sizes(deriv))).max())
    if worst_conjugate > CONJUGATE_TOL:
        msg = f"the circle rule implies a conjugate-direction dependence of {worst_conjugate:.3e}"
        warnings.warn(msg, ConsistencyWarning, stacklevel=2)
    return tuple(map(tuple, deriv.T.tolist()))


def sample_times(t_end: float, samples: int) -> np.ndarray:
    """integrate_flow's samples + 1 evenly spaced times from 0 to t_end."""
    return np.linspace(0.0, t_end, samples + 1)


def integrate_flow(case: Case, z0, t_end: float, samples: int) -> Tuple[np.ndarray, np.ndarray]:
    """Adaptive embedded Runge-Kutta trajectory of the case's flow from the
    zeros z0 at t = 0 to t_end, reported at sample_times(t_end, samples):
    the times t and the zeros Z[i] at t[i], solve_ivp's sol.t and sol.y.T.
    For t_end = 0 the one sample (z0, 0).

    Aborts with OverflowRisk, naming t, as soon as a state or velocity it
    evaluates is not finite (the state checked before flow_rhs runs, so an
    overflow is never read as a collision); with CollisionDetected as soon
    as a right-hand side is evaluated at a configuration where two zeros
    are within COLLISION_TOL of the larger of their moduli (flow_rhs's check,
    which RK45 meets at each step's end point before accepting it); StepUnderflow
    if the integrator stalls. A start that is not finite is a collision.
    Always steps in binary64.
    """
    _check_separation(z0)
    y0 = np.array([complex(z) for z in z0], dtype=complex)
    if t_end == 0:
        return np.zeros(1), y0[None, :]

    from scipy.integrate import solve_ivp

    def rhs(t, y):
        if not np.isfinite(y).all():
            raise OverflowRisk(f"the flow state is not finite at t = {t:.6g}")
        # an overflow is reported as OverflowRisk below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            velocity = np.array(flow_rhs(y, case))
        if not np.isfinite(velocity).all():
            raise OverflowRisk(f"the flow velocity is not finite at t = {t:.6g}")
        return velocity

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        y0,
        method="RK45",
        t_eval=sample_times(t_end, samples),
        rtol=FLOW_RTOL,
        atol=FLOW_RTOL * max(1.0, float(np.max(np.abs(y0)))),
    )
    if not sol.success:
        raise StepUnderflow(sol.message)
    return sol.t, sol.y.T
