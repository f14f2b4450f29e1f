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
_moved_velocity places each zero at a point, the others fixed, and
multiplies its sum over the shifts by the product of the reciprocals
1/(z - z_l) once, each a carried one (precision.Dyadic's, rounded once at
the width). jacobian_fd checks the linearization against build_M by
forward-mode dual numbers in the same arithmetic, with no step: the
diagonal is _moved_velocity's derivative, and every other entry moves
through one factor of its kernels, read from the flow-weighted kernel sums
that the case's kernel cache forms once (Case.kernels, whose S build_M
reads).
integrate_flow steps in binary64 and returns the sample_times grid and the
zeros at each of its times, as two arrays.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .errors import CollisionDetected, OverflowRisk, StepUnderflow
from .isospectral import Case
from .precision import TINY, context_of
from .rootfind import pairwise_gaps, relative_separation
from .zero_algebra import leave_one_out, shifted_products

COLLISION_TOL = 1e-10
# integrate_flow's RK45 relative tolerance; its absolute tolerance is this
# times max(1, largest starting |z_n|)
FLOW_RTOL = 1e-12


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


def _moved_velocity(weights, others, z, inv, dual=False):
    """Velocity of zero i placed at z[i], the zeros others[i] fixed:
    sum_k (a_k + b_k z) f_i(k) over the velocity_weights items
    (k, (q^k, a_k, b_k)), f_i(k) = prod_l (q^k z - others[i, l]) times the
    product of the inv[i, l] = 1/(z[i] - others[i, l]) over l, which no
    shift changes and so multiplies the sum once.

    With dual, the pair of the velocity and its derivative in z[i]: the
    velocity at z + e, e^2 = 0 (forward-mode differentiation; Griewank &
    Walther, Evaluating Derivatives, 2008, ch. 3). Each product over l
    differentiates to q^k times the sum of the products that leave one
    factor out (zero_algebra.leave_one_out), with no division by a
    factor, which q^k z can make 0; the product of the inv differentiates
    to itself times -sum_l inv[i, l]."""
    total = dtotal = np.zeros_like(z)
    for qk, a, b in weights.values():
        factors = z[:, None] * qk - others
        w = z * b + a
        if dual:
            left_out, product = leave_one_out(factors)
            dtotal = dtotal + left_out.sum(axis=1) * qk * w + product * b
        else:
            product = factors.prod(axis=1)
        total = total + product * w
    scale = inv.prod(axis=1)
    if not dual:
        return total * scale
    return total * scale, (dtotal - total * inv.sum(axis=1)) * scale


def flow_rhs(zs, case: Case) -> List:
    """Velocities of all zeros at the configuration zs (a sequence or array of
    zeros) under the case's flow, as builtin complex or mpc scalars: the
    differences, reciprocals and products in their context's carried
    arithmetic (PrecisionContext.carried), each velocity rounded once."""
    ctx = context_of(zs[0])
    zs = np.asarray(zs, dtype=ctx.dtype)
    _check_separation(zs)
    others, z = ctx.carried(_others(zs)), ctx.carried(zs)
    velocity = _moved_velocity(case.velocity_weights, others, z, 1 / (z[:, None] - others))
    return ctx.rounded(velocity).tolist()


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


def jacobian_fd(case: Case):
    """Jacobian of the flow velocity at the case's zeros, by forward-mode
    dual numbers in the carried arithmetic of the case's kernels, in one
    array pass and rounded once.

    Column m moves z_m alone, to z_m + e with e^2 = 0. Its row m is the
    derivative of _moved_velocity, the formula flow_rhs sums, which reads
    neither the kernel tables nor their sums. Only the factor
    (q^k z_n - z_m)/(z_n - z_m) of each f_n(k), n != m, depends on z_m, so
    row n != m is the derivative of (z_n P - Q z)/(z_n - z) at z_m, P = S + Q
    and Q read at (n, m) from the sums over the shifts of the products that
    leave z_m out, weighted by the flow (KernelCache.S and KernelCache.Q of
    the case's kernels): (Q - (z_m Q - z_n P) r) r, r = 1/(z_m - z_n). Both
    read one carried reciprocal a pair entry, the inv of _moved_velocity.
    The derivative is formed from the velocity formula, never from the
    kernel derivative identities that build_M assembles: the sums the two
    share are products of the zeros and the flow weights, not derivatives.
    """
    _check_separation(case.zeros)
    kernels = case.kernels
    z = kernels.z
    others = _others(z)
    inv = 1 / (z[:, None] - others)
    # deriv[m, n] = d F_n / d z_m
    deriv = np.empty((len(z), len(z)), dtype=z.dtype)
    diagonal = np.eye(len(z), dtype=bool)
    deriv[diagonal] = _moved_velocity(case.velocity_weights, others, z, inv, dual=True)[1]
    p_sum, q_sum = _others((kernels.S + kernels.Q).T), _others(kernels.Q.T)
    deriv[~diagonal] = ((q_sum - (z[:, None] * q_sum - others * p_sum) * inv) * inv).ravel()
    return tuple(map(tuple, context_of(case.zeros[0]).rounded(deriv).T.tolist()))


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
