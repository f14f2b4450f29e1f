"""Zero-flow dynamics and the coefficient-space linear evolution.

The monic polynomial psi(z, t) = prod (z - z_n(t)) = z^N + sum c_m(t) z^{N-m}
evolves so that its coefficients obey a lower-bidiagonal affine system

    cdot_m = S_m c_{m-1} + mu_m c_m,   c_0 = 1 (forcing on m = 1),
    S_m  = (q^{N-m+1} - 1) prod_k (beta_k q^{N-m} - 1),
    mu_m = -q^{(s-r)(N-m)} (q^{-m} - 1) prod_j (alpha_j q^{N-m} - 1),

whose fixed point is exactly the coefficient vector of the equilibrium
polynomial (an independent oracle for the coefficient pipeline). The zeros
themselves obey the rational flow

    zdot_n = (-1)^{s+1} { (q-1) f_n(1)
               + sum_k b_k (-1)^k q^{-k} [ (q^{k+1}-1) f_n(k+1) - (q^k-1) f_n(k) ] }
             + (-1)^r z_n { q^{-N} (q^{s-r+1}-1) f_n(s-r+1) - (q^{s-r}-1) f_n(s-r)
               + sum_j a_j (-1)^j [ q^{-N} (q^{j+s+1-r}-1) f_n(j+s+1-r)
                                    - (q^{j+s-r}-1) f_n(j+s-r) ] },

whose equilibria are the true zeros and whose linearization there is the
spectral matrix (checked by jacobian_fd against build_M).
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
from .params import ParamSet, elem_sym
from .precision import F64, TINY, PrecisionContext
from .rootfind import ZeroSet, relative_separation
from .zero_algebra import decancelled_size, f_n, shift_range

COLLISION_TOL = 1e-10


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


def build_C(params: ParamSet, ctx: PrecisionContext = F64) -> TriangularC:
    """Assemble the diagonal (closed-form eigenvalues) and subdiagonal weights."""
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


def _flow_terms(zs, params: ParamSet):
    """Per-zero (addend, magnitude-bound) lists of the flow right-hand side."""
    q = params.q
    r, s, N = params.r, params.s, params.N
    sym = elem_sym(params)
    sign_s1 = (-1) ** (s + 1)
    sign_r = (-1) ** r
    q_minus_N = q ** (-N)
    count = len(zs)
    fvals = {p: [f_n(p, n, zs, q) for n in range(count)] for p in shift_range(r, s)}
    fmags = {p: [_f_bound(p, n, zs, q) for n in range(count)] for p in shift_range(r, s)}
    all_terms = []
    for n in range(count):
        zn = zs[n]
        pairs = []

        def push(coef, p, n=n, pairs=pairs):
            pairs.append((coef * fvals[p][n], float(abs(coef)) * fmags[p][n]))

        push(sign_s1 * (q - 1), 1)
        for k in range(1, s + 1):
            w = sign_s1 * sym.b[k - 1] * (-1) ** k / q**k
            push(w * (q ** (k + 1) - 1), k + 1)
            push(-w * (q**k - 1), k)
        push(sign_r * zn * q_minus_N * (q ** (s - r + 1) - 1), s - r + 1)
        push(-sign_r * zn * (q ** (s - r) - 1), s - r)
        for j in range(1, r + 1):
            w = sign_r * zn * sym.a[j - 1] * (-1) ** j
            push(w * q_minus_N * (q ** (j + s + 1 - r) - 1), j + s + 1 - r)
            push(-w * (q ** (j + s - r) - 1), j + s - r)
        all_terms.append(pairs)
    return all_terms


def flow_rhs(state, params: ParamSet) -> List:
    """Velocities of all zeros at the given configuration."""
    zs = state.z if isinstance(state, FlowState) else tuple(state)
    if relative_separation(zs) < COLLISION_TOL:
        raise CollisionDetected(
            f"pairwise relative separation below {COLLISION_TOL:.0e}"
        )
    out = []
    for pairs in _flow_terms(zs, params):
        total = 0
        for value, _mag in pairs:
            total = total + value
        out.append(total)
    return out


def equilibrium_residual(zeros, params: ParamSet) -> float:
    """max_n |velocity_n| / velocity-scale, the scale being the largest
    factor-wise term bound in the n-th sum: a scale-free stall check."""
    zs = zeros.zeros if isinstance(zeros, ZeroSet) else tuple(zeros)
    worst = 0.0
    for pairs in _flow_terms(zs, params):
        total = 0
        largest = TINY
        for value, mag in pairs:
            total = total + value
            largest = max(largest, mag)
        worst = max(worst, float(abs(total) / largest))
    return worst


def flow_rhs_from_products(state, params: ParamSet) -> List:
    """Dual route: velocities from shifted full products over the configuration,
    divided by -prod_{l != n} (z_n - z_l). Algebraically identical to flow_rhs."""
    zs = state.z if isinstance(state, FlowState) else tuple(state)
    q = params.q
    r, s, N = params.r, params.s, params.N
    sym = elem_sym(params)
    sign_s = (-1) ** s
    sign_r = (-1) ** r
    q_minus_N = q ** (-N)

    def full_prod(zval):
        acc = 1 + 0 * q
        for zl in zs:
            acc = acc * (zval - zl)
        return acc

    out = []
    for n, zn in enumerate(zs):
        rhs = sign_s / zn * full_prod(q * zn)
        for k in range(1, s + 1):
            w = sign_s / zn * sym.b[k - 1] * (-1) ** k / q**k
            rhs = rhs + w * (full_prod(q ** (k + 1) * zn) - full_prod(q**k * zn))
        block = q_minus_N * full_prod(q ** (s - r + 1) * zn) - full_prod(q ** (s - r) * zn)
        for j in range(1, r + 1):
            w = sym.a[j - 1] * (-1) ** j
            block = block + w * (
                q_minus_N * full_prod(q ** (j + s + 1 - r) * zn)
                - full_prod(q ** (j + s - r) * zn)
            )
        rhs = rhs - sign_r * block
        denom = 1 + 0 * q
        for l, zl in enumerate(zs):
            if l != n:
                denom = denom * (zn - zl)
        out.append(-rhs / denom)
    return out


def jacobian_fd(params: ParamSet, zeros, h: float | None = None):
    """Central-difference Jacobian of flow_rhs at the given configuration.

    The flow is holomorphic in each coordinate away from collisions, so the
    real-axis and imaginary-axis difference quotients must agree on the same
    complex derivative; their average is returned and a ConsistencyWarning is
    raised when they disagree beyond 1e-6 relative.
    """
    zs = list(zeros.zeros if isinstance(zeros, ZeroSet) else zeros)
    n_count = len(zs)
    scale = max(1.0, max(abs(z) for z in zs))
    if h is None:
        h = 1e-6 * scale
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")

    def rhs_at(vec):
        return flow_rhs(tuple(vec), params)

    def quotients(m: int, step: float):
        """Real-axis and imaginary-axis central quotients for column m."""
        base = zs[m]
        zs[m] = base + step
        f_plus = rhs_at(zs)
        zs[m] = base - step
        f_minus = rhs_at(zs)
        zs[m] = base + 1j * step
        f_iplus = rhs_at(zs)
        zs[m] = base - 1j * step
        f_iminus = rhs_at(zs)
        zs[m] = base
        col_re = [(fp - fm) / (2 * step) for fp, fm in zip(f_plus, f_minus)]
        col_im = [(fp - fm) / (2j * step) for fp, fm in zip(f_iplus, f_iminus)]
        return col_re, col_im

    cols = []
    worst_conjugate = 0.0
    for m in range(n_count):
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
