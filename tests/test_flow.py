"""Coefficient-space evolution and the zero-space flow."""

import cmath
import dataclasses
import random
import warnings

import numpy as np
import pytest
import scipy.linalg

from qzeros.errors import CollisionDetected, OverflowRisk
from qzeros.flow import (
    equilibrium_residual,
    flow_rhs,
    integrate_flow,
    jacobian_fd,
)
from qzeros import flow, isospectral, zero_algebra
from qzeros.cli import DEFAULT_THRESHOLDS, _jacobian_defect
from qzeros.isospectral import Case, build_M, mu_closed
from qzeros.params import ParamSet, in_context, validate
from qzeros.precision import F64, context_of, extended, rel_gaps
from qzeros.qseries import coeffs_P, to_monic
from qzeros.rootfind import relative_separation
from qzeros.zero_algebra import KernelCache

from conftest import counting, make_case, zeros_of
from oracles import (
    CoeffState,
    RepeatedEigenvalue,
    build_C,
    evolve_coeffs,
    fixed_point,
    flow_rhs_from_products,
)

CONTRACTIVE = ParamSet(r=0, s=1, N=6, q=0.45, alpha=(), beta=(1.3 - 0.4j,))


def _monic_from_zeros(zs):
    """Ascending coefficients of prod (z - z_n)."""
    coeffs = [1.0 + 0.0j]
    for z in zs:
        nxt = [0.0j] * (len(coeffs) + 1)
        for m, c in enumerate(coeffs):
            nxt[m + 1] += c
            nxt[m] -= c * z
        coeffs = nxt
    return coeffs


def test_build_C_diag_is_mu_closed(small_suite):
    for params in small_suite:
        C = build_C(params)
        assert C.diag == tuple(mu_closed(params))
        assert len(C.sub) == params.N


def test_build_C_hand_cases():
    q = 0.45
    p00 = ParamSet(r=0, s=0, N=3, q=q, alpha=(), beta=())
    C = build_C(p00)
    for n, d in enumerate(C.diag, start=1):
        assert d == -(q ** (-n) - 1)

    beta1 = 1.6 - 0.3j
    p01 = ParamSet(r=0, s=1, N=2, q=q, alpha=(), beta=(beta1,))
    C = build_C(p01)
    assert abs(C.sub[1] - (q - 1) * (beta1 - 1)) < 1e-15


def test_build_C_repeated_eigenvalue():
    # alpha = 0.8 makes mu_1 = mu_2 for q = 1/2, N = 2, r = 1
    params = ParamSet(r=1, s=1, N=2, q=0.5, alpha=(0.8,), beta=(1.3,))
    with pytest.raises(RepeatedEigenvalue):
        build_C(params)


def test_fixed_point_is_equilibrium_polynomial(small_suite):
    for params in small_suite:
        p = to_monic(coeffs_P(params))
        star = fixed_point(build_C(params))
        for m in range(1, params.N + 1):
            ref = p.coeffs[params.N - m]
            assert abs(star[m - 1] - ref) < 1e-10 * max(1.0, abs(ref))


def test_evolve_identity_at_t0():
    params = ParamSet(r=1, s=1, N=5, q=0.45, alpha=(0.7 + 0.2j,), beta=(1.3 - 0.4j,))
    C = build_C(params)
    c0 = CoeffState(c=tuple(complex(0.3 * k, 0.1 - 0.05 * k) for k in range(1, 6)), t=0.25)
    back = evolve_coeffs(C, c0, 0.25)
    scale = max(abs(v) for v in c0.c)
    assert back.t == 0.25
    assert max(abs(a - b) for a, b in zip(back.c, c0.c)) < 1e-13 * scale


def test_evolve_equilibrium_is_constant():
    params = ParamSet(r=0, s=0, N=5, q=0.45, alpha=(), beta=())
    C = build_C(params)
    star = fixed_point(C)
    c0 = CoeffState(c=star, t=0.0)
    for t in (0.3, 1.0, 2.5):
        out = evolve_coeffs(C, c0, t)
        scale = max(abs(v) for v in star)
        assert max(abs(a - b) for a, b in zip(out.c, star)) < 1e-12 * scale


def test_evolve_n1_hand_solution():
    q = 0.45
    params = ParamSet(r=0, s=0, N=1, q=q, alpha=(), beta=())
    C = build_C(params)
    mu = C.diag[0]
    star = -C.sub[0] / mu
    c_init = 0.3 + 0.2j
    t = 0.8
    out = evolve_coeffs(C, CoeffState(c=(c_init,), t=0.0), t)
    ref = star + (c_init - star) * cmath.exp(mu * t)
    assert abs(out.c[0] - ref) < 1e-13 * max(1.0, abs(ref))


def test_evolve_overflow_raises_overflow_risk(suite):
    # suite case 19 has Re mu_1 = 1.5e5, so exp(mu_1 t) leaves binary64 once
    # t passes 709 / 1.5e5: a library error the CLI maps to exit 1, not the
    # builtin OverflowError
    C = build_C(suite[19])
    c0 = CoeffState(c=tuple(1.01 * v for v in fixed_point(C)), t=0.0)
    with pytest.raises(OverflowRisk, match=r"mode 1: .* t = 0\.01,"):
        evolve_coeffs(C, c0, 0.01)


def test_evolve_against_expm_oracle():
    params = ParamSet(r=1, s=1, N=6, q=0.5 + 0.2j, alpha=(0.9 - 0.3j,), beta=(1.4 + 0.1j,))
    C = build_C(params)
    N = C.n
    A = np.zeros((N, N), dtype=complex)
    force = np.zeros(N, dtype=complex)
    for m in range(N):
        A[m, m] = complex(C.diag[m])
        if m == 0:
            force[0] = complex(C.sub[0])
        else:
            A[m, m - 1] = complex(C.sub[m])
    c0 = np.array([0.2 + 0.1j * k for k in range(1, N + 1)], dtype=complex)
    t = 0.37
    star = np.linalg.solve(A, -force)
    ref = scipy.linalg.expm(A * t) @ (c0 - star) + star
    out = evolve_coeffs(C, CoeffState(c=tuple(c0), t=0.0), t)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert max(abs(a - b) for a, b in zip(out.c, ref)) < 1e-9 * scale


def test_flow_rhs_n1_hand_formula():
    q = 0.45
    params = ParamSet(r=0, s=0, N=1, q=q, alpha=(), beta=())
    for z in (0.7, 0.2 - 0.4j, 1.9 + 0.1j):
        vel = flow_rhs((z,), Case(params))[0]
        ref = (q - 1) * (z / q - 1)
        assert abs(vel - ref) < 1e-14 * max(1.0, abs(ref))
    assert abs(flow_rhs((q,), Case(params))[0]) < 1e-14


def test_equilibrium_residual_on_suite(suite):
    for params in suite:
        _, zset = zeros_of(params)
        assert equilibrium_residual(Case(params, zset.zeros)) < 1e-8


def test_flow_rhs_collision_detected():
    params = ParamSet(r=0, s=0, N=3, q=0.45, alpha=(), beta=())
    with pytest.raises(CollisionDetected):
        flow_rhs((0.5, 0.5 * (1 + 1e-11), 1.2), Case(params))


def test_collision_check_reads_each_pair_at_its_own_scale():
    # 1e-12 and 2e-12 are a factor 2 apart, although their gap is 1e-12 of
    # the largest zero; 1e-6 and 1e-6 (1 + 1e-11) do meet at their scale
    flow._check_separation(np.array([1e-12, 2e-12, 1.0], dtype=complex))
    with pytest.raises(CollisionDetected):
        flow._check_separation(np.array([1e-6, 1e-6 * (1 + 1e-11), 1.0], dtype=complex))


@pytest.mark.parametrize("ctx", [F64, extended()])
def test_a_nan_zero_is_a_collision_wherever_it_sits(ctx):
    # builtin min skips a NaN unless it comes first: a pair loop read
    # [1, nan, 2] as 0.5 apart and let flow_rhs return NaN velocities
    params = in_context(ParamSet(r=0, s=0, N=3, q=0.45, alpha=(), beta=()), ctx)
    for k in range(3):
        zs = [ctx.convert(z) for z in (1.0, 2.0)]
        zs.insert(k, ctx.convert(complex("nan")))
        assert cmath.isnan(relative_separation(zs))
        for call in (lambda zs: flow_rhs(zs, Case(params)), lambda zs: jacobian_fd(Case(params, zs))):
            with pytest.raises(CollisionDetected):
                call(zs)
    with pytest.raises(CollisionDetected):
        integrate_flow(Case(params), [1.0, complex("nan"), 2.0], 1.0, 10)


def test_dual_route_velocities(small_suite):
    for params in small_suite:
        _, zset = zeros_of(params)
        configs = [zset.zeros]
        twisted = tuple(
            z * (1 + 0.02 * cmath.exp(2j * cmath.pi * n / params.N))
            for n, z in enumerate(zset.zeros)
        )
        configs.append(twisted)
        for zs in configs:
            a = flow_rhs(zs, Case(params))
            b = flow_rhs_from_products(zs, params)
            for va, vb in zip(a, b):
                assert abs(va - vb) < 1e-10 * max(1.0, abs(va), abs(vb))


def _matrix_gap(J, M):
    num = max(
        sum(abs(a - b) for a, b in zip(rj, rm))
        for rj, rm in zip(J, M)
    )
    den = max(sum(abs(v) for v in row) for row in M)
    return num / den


def test_jacobian_matches_M(suite):
    # suite cases 19, 26 and 38 have zeros near 1e-5 (case 19 a cluster of
    # them, case 26 up to 2.5e3 as well): the dual numbers take no step, and
    # the Jacobian raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in suite[:18] + [suite[19], suite[26], suite[38]]:
            _, zset = zeros_of(params)
            case = Case(params, zset.zeros)
            J, M = jacobian_fd(case), build_M(case)
            assert _matrix_gap(J, M) < 1e-5


def _flow_rhs_jacobian(params, zs, samples=6):
    """The circle rule summed over full flow_rhs calls: column m is
    (1/(K h)) sum_j w^-j flow_rhs(z_m + h w^j), w = e^(2 pi i/K), K the
    samples, at the step eps^(1/(K+1)) * min(|z_m|, nearest distance), K h
    taken in the zeros' scalars (a float K h rounds unless K is a power of
    two). It errs as eps^(K/(K+1)) relative to the reach: on suite cases
    3, 7, 9 and 14 by 6e-14 in binary64 and 1e-42 at 50 digits."""
    zs = list(zs)
    ctx = context_of(zs[0])
    if ctx.mp is None:
        roots = [cmath.exp(2j * cmath.pi * j / samples) for j in range(samples)]
    else:
        roots = ctx.mp.unitroots(samples)
    rel_step = ctx.eps ** (1 / (samples + 1))
    case = Case(params)
    cols = []
    for m, zm in enumerate(zs):
        h = rel_step * float(min([abs(zm)] + [abs(zm - zl) for l, zl in enumerate(zs) if l != m]))
        total = [0] * len(zs)
        for w in roots:
            moved = flow_rhs(tuple(zs[:m] + [zm + h * w] + zs[m + 1 :]), case)
            total = [t + v * w.conjugate() for t, v in zip(total, moved)]
        cols.append([t / (samples * ctx.convert(h)) for t in total])
    return [[cols[m][n] for m in range(len(zs))] for n in range(len(zs))]


@pytest.mark.parametrize("ctx, tol", [(F64, 1e-9), (extended(), 1e-40)])
def test_jacobian_is_the_difference_of_flow_rhs(suite, ctx, tol):
    # the dual numbers must differentiate the same velocity formula that
    # flow_rhs sums over the full configuration, here by a circle rule
    for index in (3, 7, 9, 14):
        params = in_context(suite[index], ctx)
        _, zset = zeros_of(params)
        J = jacobian_fd(Case(params, zset.zeros))
        ref = _flow_rhs_jacobian(params, zset.zeros)
        scale = max(abs(v) for row in ref for v in row)
        gap = max(abs(a - b) for rj, rr in zip(J, ref) for a, b in zip(rj, rr))
        assert gap < tol * scale


@pytest.mark.parametrize("ctx", [F64, extended()])
def test_jacobian_takes_one_moved_velocity_pass(suite, monkeypatch, ctx):
    # the whole Jacobian is one dual pass of the moved velocity, every zero
    # moved at once: its diagonal and its N x (N - 1) table off it
    params = in_context(suite[9], ctx)
    _, zset = zeros_of(params)
    calls = counting(monkeypatch, flow, "_moved_velocity")
    jacobian_fd(Case(params, zset.zeros))
    assert len(calls) == 1 and len(calls[0][1]) == params.N
    assert calls[0][2].shape == (params.N, params.N - 1)


@pytest.mark.parametrize("ctx", [F64, extended()], ids=["f64", "ext"])
def test_a_doubled_shift_of_S_fails_the_jacobian_on_and_off_its_diagonal(suite, monkeypatch, ctx):
    # KernelCache.S with its first shift's term counted twice: M reads S in
    # every entry, and the Jacobian, the derivative of the velocity formula
    # itself, reads no kernel sum, so it sees the fault in every entry
    class Doubled(KernelCache):
        def __init__(self, z, weights):
            super().__init__(z, weights)
            k, (qk, a, b) = next(iter(weights.items()))
            self.S = self.S + self.fnm[k] * ((self.z * b + a) * (qk - 1))[:, None]

    monkeypatch.setattr(isospectral, "KernelCache", Doubled)
    tol = DEFAULT_THRESHOLDS["jacobian_defect"]
    cases = [params for params in suite[:30] if params.N >= 2 and (ctx is F64 or params.N <= 5)]
    assert len(cases) == (27 if ctx is F64 else 12)
    for params in cases:
        case = Case(in_context(params, ctx))
        gaps = rel_gaps(jacobian_fd(case), case.M)
        diagonal = np.eye(params.N, dtype=bool)
        assert min(gaps[diagonal].max(), gaps[~diagonal].max()) > tol, params
        assert _jacobian_defect(case) > tol


@pytest.mark.parametrize("ctx", [F64, extended()])
def test_array_pass_returns_scalars_of_the_context(suite, ctx):
    # NumPy scalars leaking out of the array pass would slow every caller
    params = in_context(suite[9], ctx)
    _, zset = zeros_of(params)
    case = Case(params, zset.zeros)
    J = jacobian_fd(case)
    velocities = [flow_rhs(zset.zeros, case), flow_rhs(np.array(zset.zeros, dtype=ctx.dtype), case)]
    assert type(J) is tuple and all(type(row) is tuple for row in J)
    assert all(type(v) is list for v in velocities)
    scalar = complex if ctx is F64 else context_of(zset.zeros[0]).mp.mpc
    assert {type(v) for row in J + tuple(velocities) for v in row} == {scalar}


def test_jacobian_at_n16_is_finite_and_silent():
    # binary64 cannot overflow at N = 16: factors are taken one by one
    rng = random.Random(4242)
    draws = [make_case(rng, i) for i in range(12)]
    params = validate(dataclasses.replace(draws[11], N=16))
    assert (params.r, params.s) == (2, 2)
    with warnings.catch_warnings():
        # the root finder's own note on degrees above 12
        warnings.simplefilter("ignore", RuntimeWarning)
        _, zset = zeros_of(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = jacobian_fd(Case(params, zset.zeros))
    assert all(cmath.isfinite(v) for row in J for v in row)
    assert _jacobian_defect(Case(params, zset.zeros)) <= 1e-11


def test_jacobian_reads_neither_the_kernel_tables_nor_M(suite, monkeypatch):
    # jacobian_defect checks build_M against the flow: the Jacobian must not
    # lean on the matrix assembly it judges, nor on the kernel tables and
    # weighted sums that assembly is made of; it shares only the helpers
    # the tables are formed with (others, reciprocal_table, leave_one_out)
    def forbidden(*args, **kwargs):
        raise AssertionError("jacobian_fd must not read the matrix assembly")

    for module, name in ((isospectral, "build_M"), (isospectral, "KernelCache"), (zero_algebra, "KernelCache")):
        monkeypatch.setattr(module, name, forbidden)
    params = suite[9]
    case = Case(params, zeros_of(params)[1].zeros)
    J = jacobian_fd(case)
    assert len(J) == params.N
    assert "M" not in vars(case)


@pytest.mark.parametrize("ctx", [F64, extended()], ids=["f64", "ext"])
def test_jacobian_matches_M_off_the_zeros(suite, ctx):
    # M is the flow's Jacobian at every configuration, not only at the
    # zeros: on the twisted configurations of test_dual_route_velocities
    # the dual pass and the matrix assembly, which share no table, agree
    cases = [params for params in suite if ctx is F64 or params.N <= 5]
    assert len(cases) == (50 if ctx is F64 else 25)
    for params in cases:
        params = in_context(params, ctx)
        _, zset = zeros_of(params)
        N = params.N
        twisted = [z * (1 + ctx.convert(0.02 * cmath.exp(2j * cmath.pi * n / N))) for n, z in enumerate(zset.zeros)]
        case = Case(params, twisted)
        assert rel_gaps(jacobian_fd(case), build_M(case)).max() <= (1e-12 if ctx is F64 else 1e-45), params


@pytest.mark.parametrize("ctx", [F64, extended()], ids=["f64", "ext"])
def test_m_and_the_jacobian_read_one_set_of_weighted_kernel_sums(suite, monkeypatch, ctx):
    # build_M's kernel cache forms S = sum_k (q^k - 1) f_nm(k) (a_k + b_k z_n),
    # N x (N - 1) over the other zeros, and its off-diagonal is
    # z_n S_nm / (z_n - z_m)^2 from that S, row-major; M is a
    # stage of the case and the Jacobian builds no cache, so a case with
    # both reads one KernelCache
    params = in_context(suite[9], ctx)
    caches = counting(monkeypatch, isospectral, "KernelCache")
    case = Case(params, zeros_of(params)[1].zeros)
    M = case.M
    [cache] = caches
    W = cache.inv * cache.inv * cache.S * cache.z[:, None]
    off = ~np.eye(params.N, dtype=bool)
    assert (M[off] == ctx.rounded(W).ravel()).all()
    jacobian_fd(case)
    assert case.M is M and len(caches) == 1


def test_jacobian_n1_hand_case():
    q = 0.45
    params = ParamSet(r=0, s=0, N=1, q=q, alpha=(), beta=())
    _, zset = zeros_of(params)
    J = jacobian_fd(Case(params, zset.zeros))
    assert abs(J[0][0] - (q - 1) / q) < 1e-15


def test_single_axis_quotient_is_second_order():
    # plain real-axis central differences against the exact linearization:
    # each halving of h divides the defect by about four
    params = ParamSet(r=1, s=1, N=4, q=0.45, alpha=(0.8,), beta=(1.4,))
    _, zset = zeros_of(params)
    zs = list(zset.zeros)
    case = Case(params, zset.zeros)
    M = build_M(case)
    scale = max(abs(z) for z in zs)

    def defect(h):
        n_count = len(zs)
        worst = 0.0
        for m in range(n_count):
            plus = list(zs)
            minus = list(zs)
            plus[m] = zs[m] + h
            minus[m] = zs[m] - h
            vp = flow_rhs(tuple(plus), case)
            vm = flow_rhs(tuple(minus), case)
            for n in range(n_count):
                quot = (vp[n] - vm[n]) / (2 * h)
                worst = max(worst, abs(quot - M[n, m]))
        return worst

    h0 = 1e-2 * scale
    d0, d1, d2 = defect(h0), defect(h0 / 2), defect(h0 / 4)
    assert 3.0 < d0 / d1 < 5.5
    assert 3.0 < d1 / d2 < 5.5


def test_integrate_holds_equilibrium():
    _, zset = zeros_of(CONTRACTIVE)
    scale = max(abs(z) for z in zset.zeros)
    t, Z = integrate_flow(Case(CONTRACTIVE), zset.zeros, 1.0, 4)
    assert len(t) >= 4
    for z in Z:
        drift = max(abs(a - b) for a, b in zip(z, zset.zeros))
        assert drift < 1e-8 * scale


def test_integrate_perturbation_follows_linearization():
    _, zset = zeros_of(CONTRACTIVE)
    N = CONTRACTIVE.N
    M = build_M(Case(CONTRACTIVE, zset.zeros))
    xi0 = np.array(
        [1e-4 * cmath.exp(2j * cmath.pi * (n + 0.2) / N) * abs(zset.zeros[n]) for n in range(N)]
    )
    z0 = tuple(z + d for z, d in zip(zset.zeros, xi0))
    t, Z = integrate_flow(Case(CONTRACTIVE), z0, 0.5, 5)
    for ti, z in zip(t[1:], Z[1:]):
        dev = np.array([a - b for a, b in zip(z, zset.zeros)])
        pred = scipy.linalg.expm(M * ti) @ xi0
        assert abs(np.linalg.norm(dev) - np.linalg.norm(pred)) < 0.1 * np.linalg.norm(pred)


def test_integrate_zero_horizon():
    _, zset = zeros_of(CONTRACTIVE)
    t, Z = integrate_flow(Case(CONTRACTIVE), zset.zeros, 0.0, 10)
    assert (t.tolist(), Z.tolist()) == ([0.0], [list(zset.zeros)])


def test_integrate_rejects_collided_start():
    params = ParamSet(r=0, s=0, N=2, q=0.45, alpha=(), beta=())
    z0 = (0.7, 0.7 * (1 + 1e-11))
    with pytest.raises(CollisionDetected):
        integrate_flow(Case(params), z0, 1.0, 10)


def test_a_velocity_that_is_not_finite_is_an_overflow(monkeypatch):
    # checked before flow_rhs's separation test, which would read the NaN
    # state of the next step as a collision
    _, zset = zeros_of(CONTRACTIVE)
    monkeypatch.setattr(flow, "flow_rhs", lambda zs, case: [complex("inf")] * len(zs))
    with pytest.raises(OverflowRisk, match="velocity is not finite at t = 0"):
        integrate_flow(Case(CONTRACTIVE), zset.zeros, 1.0, 10)


def test_two_representations_agree():
    params = ParamSet(r=0, s=1, N=5, q=0.45, alpha=(), beta=(1.3,))
    _, zset = zeros_of(params)
    z0 = tuple(
        z * (1 + 1e-3 * cmath.exp(2j * cmath.pi * n / params.N))
        for n, z in enumerate(zset.zeros)
    )
    C = build_C(params)
    start = _monic_from_zeros(z0)
    c0 = CoeffState(c=tuple(start[params.N - m] for m in range(1, params.N + 1)), t=0.0)
    t, Z = integrate_flow(Case(params), z0, 0.5, 5)
    for ti, z in zip(t, Z):
        via_zeros = _monic_from_zeros(z)
        via_coeffs = evolve_coeffs(C, c0, ti)
        for m in range(1, params.N + 1):
            a = via_zeros[params.N - m]
            b = via_coeffs.c[m - 1]
            assert abs(a - b) < 1e-6 * max(1.0, abs(b))
