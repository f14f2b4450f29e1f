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
the true zeros and its linearization there is the spectral matrix (checked by
jacobian_fd against build_M).
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (
    CollisionDetected,
    ConsistencyWarning,
    RepeatedEigenvalue,
    StepUnderflow,
)
from .isospectral import mu_n
from .params import ParamSet
from .precision import TINY, context_of
from .rootfind import ZeroSet, relative_separation
from .zero_algebra import _prop1_terms, _shift_products, decancelled_size, f_n, velocity_terms

COLLISION_TOL = 1e-10
# relative step of jacobian_fd's central differences: truncation error grows
# like step^2 and round-off like eps/step; at 1e-5 the round-off left in the
# conjugate-direction estimate still trips its 1e-6 warning on a suite case
FD_REL_STEP = 1e-4


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
    ctx = context_of(params.q)
    q = ctx.convert(params.q)
    alpha = [ctx.convert(a) for a in params.alpha]
    beta = [ctx.convert(b) for b in params.beta]
    N, diff = params.N, params.s - params.r
    diag, sub = [], []
    for n in range(1, N + 1):
        diag.append(mu_n(n, q, alpha, N, diff))
        sval = q ** (N - n + 1) - 1
        for b in beta:
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


def _per_shift(kernel, terms, zs, q):
    """kernel(k, n, zs, q) for every zero n, once per shift k of terms."""
    return {k: [kernel(k, n, zs, q) for n in range(len(zs))] for k in {t[0] for t in terms}}


def flow_rhs(state, params: ParamSet) -> List:
    """Velocities of all zeros at the given configuration."""
    zs = state.z if isinstance(state, FlowState) else tuple(state)
    if relative_separation(zs) < COLLISION_TOL:
        raise CollisionDetected(
            f"pairwise relative separation below {COLLISION_TOL:.0e}"
        )
    terms = velocity_terms(params)
    f = _per_shift(f_n, terms, zs, params.q)
    out = []
    for n, zn in enumerate(zs):
        total = 0
        for k, c, e in terms:
            total = total + (c * zn if e else c) * f[k][n]
        out.append(total)
    return out


def equilibrium_residual(zeros, params: ParamSet) -> float:
    """max_n |velocity_n| / velocity-scale, the scale being the largest
    factor-wise term bound in the n-th sum: a scale-free stall check."""
    zs = zeros.zeros if isinstance(zeros, ZeroSet) else tuple(zeros)
    terms = velocity_terms(params)
    bound = _per_shift(_f_bound, terms, zs, params.q)
    worst = 0.0
    for n, (zn, velocity) in enumerate(zip(zs, flow_rhs(zs, params))):
        largest = TINY
        for k, c, e in terms:
            largest = max(largest, float(abs(c * zn if e else c)) * bound[k][n])
        worst = max(worst, float(abs(velocity) / largest))
    return worst


def flow_rhs_from_products(state, params: ParamSet) -> List:
    """Dual route: the n-th velocity is (-1)^s times the n-th zero identity,
    built from shifted full products over the configuration, divided by
    z_n prod_{l != n} (z_n - z_l). Algebraically identical to flow_rhs."""
    zs = state.z if isinstance(state, FlowState) else tuple(state)
    sign = (-1) ** params.s
    out = []
    for n, zn in enumerate(zs):
        terms = _prop1_terms(zs, n, params)
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


def jacobian_fd(params: ParamSet, zeros):
    """Central-difference Jacobian of flow_rhs at the given configuration.

    Column m is differenced with the step FD_REL_STEP * min(|z_m|, distance
    from z_m to its nearest other zero): the zeros of one configuration can
    span eight orders of magnitude or cluster far below 1, and one absolute
    step would swamp the small ones. No zero is 0: the series has constant
    term 1.

    The flow is holomorphic in each coordinate away from collisions, so the
    real-axis and imaginary-axis difference quotients must agree on the same
    complex derivative; their average is returned and a ConsistencyWarning is
    raised when they disagree beyond 1e-6 relative.
    """
    zs = list(zeros.zeros if isinstance(zeros, ZeroSet) else zeros)
    n_count = len(zs)

    def quotients(m: int, step: float):
        """Real-axis and imaginary-axis central quotients for column m."""
        base = zs[m]
        zs[m] = base + step
        f_plus = flow_rhs(tuple(zs), params)
        zs[m] = base - step
        f_minus = flow_rhs(tuple(zs), params)
        zs[m] = base + 1j * step
        f_iplus = flow_rhs(tuple(zs), params)
        zs[m] = base - 1j * step
        f_iminus = flow_rhs(tuple(zs), params)
        zs[m] = base
        col_re = [(fp - fm) / (2 * step) for fp, fm in zip(f_plus, f_minus)]
        col_im = [(fp - fm) / (2j * step) for fp, fm in zip(f_iplus, f_iminus)]
        return col_re, col_im

    cols = []
    worst_conjugate = 0.0
    for m in range(n_count):
        reach = min([abs(zs[m])] + [abs(zs[m] - zl) for l, zl in enumerate(zs) if l != m])
        h = FD_REL_STEP * float(reach)
        col_re, col_im = quotients(m, h)
        col_re2, col_im2 = quotients(m, 2 * h)
        col = []
        for a, b, a2, b2 in zip(col_re, col_im, col_re2, col_im2):
            col.append((a + b) / 2)
            # half the quotient disagreement estimates dF/d(conj z); it carries
            # an O(h^2) truncation term even for a holomorphic RHS, so the h
            # and 2h estimates are Richardson-combined to cancel it before
            # judging complex-linearity
            v_h = (a - b) / 2
            v_2h = (a2 - b2) / 2
            conj_part = (4 * v_h - v_2h) / 3
            worst_conjugate = max(
                worst_conjugate, float(abs(conj_part) / max(1.0, abs(col[-1])))
            )
        cols.append(col)
    if worst_conjugate > 1e-6:
        warnings.warn(
            f"real/imaginary difference quotients imply a conjugate-direction "
            f"dependence of {worst_conjugate:.3e}",
            ConsistencyWarning,
            stacklevel=2,
        )
    return tuple(tuple(cols[m][n] for m in range(n_count)) for n in range(n_count))


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
        return np.array(flow_rhs(tuple(y), params), dtype=complex)

    def separation_event(_t, y):
        sep = relative_separation(tuple(y))
        return min(sep, 1.0) - COLLISION_TOL

    separation_event.terminal = True
    separation_event.direction = -1

    steps = max(1, int(np.ceil(abs(t_end - t0) / dt_max)))
    t_eval = np.linspace(t0, t_end, steps + 1)
    try:
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
    except CollisionDetected:
        raise
    if sol.status == 1:
        raise CollisionDetected(
            f"pairwise separation crossed {COLLISION_TOL:.0e} at t = {sol.t_events[0][0]:.6g}"
        )
    if not sol.success:
        raise StepUnderflow(sol.message)
    return [
        FlowState(z=tuple(sol.y[:, i]), t=float(sol.t[i])) for i in range(sol.t.size)
    ]
