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
_moved_velocity reads a configuration in, places each zero at its point,
the others fixed, and multiplies its sum over the shifts by the product of
the reciprocals 1/(z - z_l) once, each a carried one (precision.Dyadic's,
rounded once at the width), one division a pair (zero_algebra's
reciprocal_table). jacobian_fd checks the linearization against
build_M by forward-mode dual numbers in the same arithmetic, with no step:
the whole Jacobian is one dual pass of _moved_velocity, whose left-out
products give each row's derivative in its own zero and in every other.
It shares no table with build_M, only the helpers the tables are formed
with, so it checks build_M's kernel sums in every entry.
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
from .zero_algebra import leave_one_out, others, reciprocal_table, shifted_products

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


def _moved_velocity(weights, zs, dual=False):
    """Velocity of each zero of the configuration zs, the others fixed, in
    the carried arithmetic of zs's context, read in once after
    _check_separation: sum_k (a_k + b_k z_n) f_n(k) over the
    velocity_weights items (k, (q^k, a_k, b_k)), f_n(k) =
    prod_{l != n} (q^k z_n - z_l) times the product of the inv[n, l] =
    1/(z_n - z_l) (reciprocal_table), which no shift changes and so
    multiplies the sum once.

    With dual, also its derivatives by forward-mode dual numbers (Griewank
    & Walther, Evaluating Derivatives, 2008, ch. 3), from the products that
    leave one factor out (zero_algebra.leave_one_out), with no division by
    a factor, which q^k z_n can make 0. In z_n: q^k times their sum, the
    product of the inv times -sum_l inv[n, l]. In each z_l, N x (N - 1) in
    the order of zero_algebra.others: z_l enters row n only through
    (q^k z_n - z_l)/(z_n - z_l), of derivative (q^k - 1) z_n inv[n, l]^2,
    so the entry is z_n inv[n, l] sum_k (a_k + b_k z_n)(q^k - 1) times the
    product leaving z_l out, times the inv's: no near terms subtract."""
    ctx = context_of(zs[0])
    zs = np.asarray(zs, dtype=ctx.dtype)
    _check_separation(zs)
    z = ctx.carried(zs)
    rest, inv = others(z), reciprocal_table(z)
    total = dtotal = np.zeros_like(z)
    dothers = np.zeros_like(rest)
    for qk, a, b in weights.values():
        factors = z[:, None] * qk - rest
        w = z * b + a
        if dual:
            left_out, product = leave_one_out(factors)
            dtotal = dtotal + left_out.sum(axis=1) * qk * w + product * b
            dothers = dothers + left_out * (w * (qk - 1))[:, None]
        else:
            product = factors.prod(axis=1)
        total = total + product * w
    scale = inv.prod(axis=1)
    if not dual:
        return total * scale
    return total * scale, (dtotal - total * inv.sum(axis=1)) * scale, dothers * inv * (z * scale)[:, None]


def flow_rhs(zs, case: Case) -> List:
    """Velocities of all zeros at the configuration zs (a sequence or array of
    zeros) under the case's flow, as builtin complex or mpc scalars: the
    differences, reciprocals and products in their context's carried
    arithmetic (PrecisionContext.carried), each velocity rounded once."""
    return context_of(zs[0]).rounded(_moved_velocity(case.velocity_weights, zs)).tolist()


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
        products, scales = shifted_products(points, others(z)[:, None, :])
        bound = scales[:, :-1] / ctx.sizes(products[:, -1:])
    c = np.array(cs, dtype=object)
    sizes = np.where(es, ctx.sizes((column * c).astype(ctx.dtype)), ctx.sizes(c.astype(ctx.dtype)))
    largest = np.fmax.reduce(sizes * bound[:, [shifts.index(k) for k in ks]], axis=1, initial=TINY)
    velocity = ctx.sizes(np.asarray(flow_rhs(case.zeros, case), dtype=ctx.dtype))
    return float(np.fmax.reduce(velocity / largest, initial=0.0))


def jacobian_fd(case: Case):
    """Jacobian of the flow velocity at the case's zeros, J[n][m] =
    d velocity_n / d z_m, by forward-mode dual numbers in the zeros'
    carried arithmetic: one dual pass of _moved_velocity, the formula
    flow_rhs sums, its own-position derivatives on the diagonal and its
    N x (N - 1) table of the others off it, rounded once. It reads no
    kernel table: the derivative is formed from the velocity formula,
    never from the kernel sums and derivative identities that build_M
    assembles.
    """
    _, own, off = _moved_velocity(case.velocity_weights, case.zeros, dual=True)
    J = np.empty((len(own), len(own)), dtype=own.dtype)
    diagonal = np.eye(len(own), dtype=bool)
    J[diagonal], J[~diagonal] = own, off.ravel()
    return tuple(map(tuple, context_of(case.zeros[0]).rounded(J).tolist()))


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
