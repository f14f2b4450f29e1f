"""Kernels f_n, f_nm, g_n and the N-equation zero identities."""

import sys

import numpy as np
import pytest

from qzeros import isospectral
from qzeros.cli import cmd_verify
from qzeros.errors import DegreeMismatch
from qzeros.flow import equilibrium_residual
from qzeros.isospectral import Case
from qzeros.params import ParamSet, in_context
from qzeros.precision import F64, context_of, extended
from qzeros.qdiff import qde_terms
from qzeros.zero_algebra import (
    KernelCache,
    others,
    prop1_residuals,
    reciprocal_table,
    prop1_residuals_qde,
    shifted_products,
    velocity_weights,
)

from conftest import counting, zeros_of
from oracles import (
    IndexCollision,
    _prop1_terms,
    _shift_products,
    decancelled_size,
    f_n,
    f_nm,
    g_n,
    prop1_residuals_qde_scalar,
    prop1_residuals_r1s1,
    prop1_residuals_scalar,
    prop1_scale,
)


def test_f_n_hand_cases():
    zs = (0.3 + 0.7j, -1.2, 2.5 - 0.1j)
    assert f_n(0, 1, zs, 0.4 + 0.2j) == 1
    assert f_n(3, 0, (0.8 + 0.1j,), 0.37) == 1
    # N=2, zeros {1,3}, q=2, p=1, first zero: (2*1-3)/(1-3) = 1/2
    assert abs(f_n(1, 0, (1.0, 3.0), 2.0) - 0.5) < 1e-15


def test_f_nm_hand_cases():
    assert f_nm(4, 0, 1, (1.0 + 1.0j, -2.0), 0.6) == 1
    # N=3, zeros {1,2,4}, q=2, p=1, n=1, m=2: remaining factor (2-4)/(1-4)
    assert abs(f_nm(1, 0, 1, (1.0, 2.0, 4.0), 2.0) - 2.0 / 3.0) < 1e-15
    with pytest.raises(IndexCollision):
        f_nm(1, 2, 2, (1.0, 2.0, 4.0), 2.0)


def test_f_nm_relation_to_f_n(small_suite):
    # f_nm(p) * (q^p z_n - z_m)/(z_n - z_m) recovers f_n(p)
    for params in small_suite:
        if params.N < 2:
            continue
        _, zset = zeros_of(params)
        zs = zset.zeros
        q = params.q
        for p in velocity_weights(Case(params)):
            for n in range(min(params.N, 3)):
                for m in range(params.N):
                    if m == n:
                        continue
                    lhs = f_nm(p, n, m, zs, q) * (q**p * zs[n] - zs[m]) / (zs[n] - zs[m])
                    ref = f_n(p, n, zs, q)
                    assert abs(lhs - ref) < 1e-12 * max(1.0, abs(ref))


def test_g_n_hand_cases():
    assert g_n(2, 0, (1.5 - 0.5j,), 0.7) == 0
    # N=2, zeros {1,3}: f_12 = 1 (empty product), so g_1 = 3/(1-3)^2 = 3/4
    assert abs(g_n(1, 0, (1.0, 3.0), 2.0) - 0.75) < 1e-15
    assert abs(g_n(5, 0, (1.0, 3.0), 0.3 + 0.4j) - 0.75) < 1e-15


def _fd_partial(fn, zs, idx):
    h = 1e-6 * abs(zs[idx])
    plus = list(zs)
    minus = list(zs)
    plus[idx] = zs[idx] + h
    minus[idx] = zs[idx] - h
    return (fn(tuple(plus)) - fn(tuple(minus))) / (2 * h)


def test_derivative_identity_own_zero(small_suite):
    # d f_n / d z_n = (1 - q^p) g_n
    checked = 0
    for params in small_suite:
        if params.N < 2:
            continue
        _, zset = zeros_of(params)
        zs = zset.zeros
        q = params.q
        for p in velocity_weights(Case(params)):
            for n in range(min(params.N, 2)):
                fd = _fd_partial(lambda c: f_n(p, n, c, q), zs, n)
                closed = (1 - q**p) * g_n(p, n, zs, q)
                assert abs(fd - closed) < 1e-5 * max(1.0, abs(closed))
                checked += 1
    assert checked > 10


def test_derivative_identity_other_zero(small_suite):
    # d f_n / d z_m = (q^p - 1) f_nm z_n / (z_n - z_m)^2
    checked = 0
    for params in small_suite:
        if params.N < 2:
            continue
        _, zset = zeros_of(params)
        zs = zset.zeros
        q = params.q
        for p in velocity_weights(Case(params)):
            n = 0
            for m in range(1, min(params.N, 3)):
                fd = _fd_partial(lambda c: f_n(p, n, c, q), zs, m)
                closed = (q**p - 1) * f_nm(p, n, m, zs, q) * zs[n] / (zs[n] - zs[m]) ** 2
                assert abs(fd - closed) < 1e-5 * max(1.0, abs(closed))
                checked += 1
    assert checked > 10


@pytest.mark.parametrize("ctx, tol", [(F64, 1e-12), (extended(50), 1e-40)], ids=["f64", "ext50"])
def test_kernel_cache_matches_direct(ctx, tol):
    # the array tables against the kernels taken one factor at a time
    params = ParamSet(r=2, s=1, N=5, q=0.45, alpha=(0.7 + 0.2j, 1.1), beta=(1.3 - 0.4j,))
    params = in_context(params, ctx)
    _, zset = zeros_of(params)
    zs, q = zset.zeros, params.q
    weights = velocity_weights(Case(params))
    shifts = list(weights)
    assert min(shifts) < 0  # r > s exercises negative dilation shifts
    cache = KernelCache(zs, weights)
    assert set(cache.fnm) == set(shifts)
    # the tables in carried arithmetic, compared rounded once into the context
    fnm = {p: ctx.rounded(table) for p, table in cache.fnm.items()}
    fn = {p: ctx.rounded(products) for p, products in cache.fn.items()}
    inv = ctx.rounded(cache.inv)
    # row n of the N x (N - 1) tables holds the zeros other than z_n in order
    rest = others(np.arange(params.N))

    def close(a, b):
        assert abs(a - b) <= tol * max(1.0, abs(b))

    for p in shifts:
        assert fnm[p].shape == inv.shape == (params.N, params.N - 1)
        for n in range(params.N):
            close(fn[p][n], f_n(p, n, zs, q))
            for j, m in enumerate(rest[n]):
                close(fnm[p][n, j], f_nm(p, n, m, zs, q))
                close(inv[n, j], 1 / (zs[n] - zs[m]))


def test_kernel_tables_take_the_flow_weights_powers_of_q(monkeypatch):
    # each q^k is formed once per case and shift (Case.flow_powers), which
    # the flow addends and their grouping by shift both read: 3 powers for
    # the 7 addends over 3 shifts; the kernel tables and the flow's stall
    # check read them from velocity_weights
    params = in_context(ParamSet(r=2, s=1, N=5, q=0.45, alpha=(0.7 + 0.2j, 1.1), beta=(1.3 - 0.4j,)), extended(50))
    case = Case(params, zeros_of(params)[1].zeros)
    case.qde_terms  # formed first: it takes a power q^-N of its own
    powers = []
    original = type(params.q).__pow__

    def counted(*args):
        powers.append(args[1:])
        return original(*args)

    monkeypatch.setattr(type(params.q), "__pow__", counted)
    weights = case.velocity_weights
    assert len(case.velocity_terms) == 7
    assert sorted(powers) == sorted((k,) for k in weights) and len(powers) == 3
    powers.clear()
    caches = counting(monkeypatch, isospectral, "KernelCache")
    case.M
    assert set(caches[0].fnm) == set(weights)
    assert equilibrium_residual(case) < 1e-40
    assert powers == []


@pytest.mark.parametrize("ctx, count", [(F64, 2000), (extended(50), 100)], ids=["f64", "ext50"])
def test_reciprocal_table_is_antisymmetric_bit_for_bit(ctx, count):
    # each pair is divided once and its negation gathered into the mirror
    # entry: the N x (N - 1) table is that of dividing every ordered pair,
    # bit for bit, and placed off the diagonal of an N x N array it is
    # antisymmetric exactly; zeros spanning 1e+-8, N up to 16
    rng = np.random.default_rng(32)
    bits = (lambda a: a.tobytes()) if ctx.mp is None else (lambda a: [v._mpc_ for v in a])
    for _ in range(count):
        n = int(rng.integers(2, 17))
        zs = np.exp(rng.uniform(-18.4, 18.4, n) + 1j * rng.uniform(-np.pi, np.pi, n))
        z = np.array([ctx.convert(v) for v in zs.tolist()], dtype=ctx.dtype)
        inv = reciprocal_table(z)
        assert inv.shape == (n, n - 1)
        off = ~np.eye(n, dtype=bool)
        full = np.zeros((n, n), dtype=ctx.dtype)
        full[off] = inv.ravel()
        assert bits(full[off]) == bits((-full.T)[off])
        rows, cols = np.nonzero(off)
        assert (cols.reshape(n, n - 1) == others(np.arange(n))).all()
        assert bits(inv.ravel()) == bits(1 / (z[rows] - z[cols]))


@pytest.mark.parametrize("ctx", [F64, extended(50)], ids=["f64", "ext50"])
def test_a_fault_in_one_reciprocal_pair_fails_verify(suite, monkeypatch, ctx):
    # the kernel tables and the flow's dual pass share reciprocal_table, so
    # jacobian_defect, which compares them, cannot see a fault in it; M's
    # spectrum and trace checks, which hold it to the closed forms, do
    original = reciprocal_table

    def skewed(z):
        # 1/(z_1 - z_2) and its mirror 1/(z_2 - z_1), off by 1e-6 relative
        inv = original(z)
        ctx = context_of(z[0])
        err = ctx.carried([ctx.convert(1 + 1e-6)])[0]
        inv[0, 0], inv[1, 0] = inv[0, 0] * err, inv[1, 0] * err
        return inv

    for name, module in list(sys.modules.items()):
        if name.startswith("qzeros.") and vars(module).get("reciprocal_table") is original:
            monkeypatch.setattr(module, "reciprocal_table", skewed)
    cases = [params for params in suite if params.N >= 2 and (ctx is F64 or params.N <= 5)]
    assert len(cases) == (45 if ctx is F64 else 20)
    for params in cases:
        checks, _ = cmd_verify(Case(in_context(params, ctx)), {}, None, None)
        failed = {c["name"] for c in checks if not c["pass"]}
        assert {"spectrum_backward_max", "closed_trace_gap"} <= failed, (params, failed)


def test_prop1_true_zeros_on_suite(suite):
    for params in suite:
        _, zset = zeros_of(params)
        res = prop1_residuals(Case(params, zset.zeros))
        assert len(res) == params.N
        assert max(res) < 1e-8


def test_prop1_perturbation_sensitivity(suite):
    for params in suite:
        _, zset = zeros_of(params)
        bumped = list(zset.zeros)
        bumped[0] = bumped[0] * (1 + 1e-3)
        assert max(prop1_residuals(Case(params, bumped))) > 1e-5


def test_prop1_dual_route_agreement(suite):
    for params in suite:
        _, zset = zeros_of(params)
        case = Case(params, zset.zeros)
        prod_route = prop1_residuals(case)
        qde_route = prop1_residuals_qde(case)
        for a, b in zip(prod_route, qde_route):
            assert abs(a - b) < 1e-10 * max(1.0, a, b)


@pytest.mark.parametrize("ctx", [F64, extended(50)], ids=["f64", "ext50"])
def test_array_passes_equal_the_scalar_oracles(suite, ctx):
    # the product route: N-factor products and their scales, a few ulps
    # each; the evaluation route: Horner, whose rounding error is at most
    # gamma_2N sum_m |c_m| |z|^m (Higham, Accuracy and Stability of
    # Numerical Algorithms, 5.1), kappa times the scale of the value
    for params in suite if ctx is F64 else suite[:24]:
        params = in_context(params, ctx)
        p, zset = zeros_of(params)
        zs = zset.zeros
        case = Case(params, zs)
        for a, b in zip(prop1_residuals(case), prop1_residuals_scalar(zs, params), strict=True):
            assert abs(a - b) <= 64 * ctx.eps
        kappa = 1.0
        for zn in zs:
            for _, k in _prop1_terms(qde_terms(params), zn):
                zk = zn * params.q**k
                terms = sum(abs(c) * abs(zk) ** m for m, c in enumerate(p.coeffs))
                value = sum(c * zk**m for m, c in enumerate(p.coeffs))
                deriv = sum(m * c * zk ** (m - 1) for m, c in enumerate(p.coeffs) if m)
                kappa = max(kappa, float(terms / max(abs(value), 2 * abs(zk) * abs(deriv))))
        got = prop1_residuals_qde(case)
        for a, b in zip(got, prop1_residuals_qde_scalar(zs, params, p), strict=True):
            assert abs(a - b) <= 64 * ctx.eps * kappa


def test_shifted_products_match_the_scalar_products(suite):
    for params in suite[:12]:
        _, zset = zeros_of(params)
        z = np.asarray(zset.zeros)
        shifts = [-1, 0, 1, 2]
        grid = z[:, None] * np.array([params.q**k for k in shifts])
        products, scales = shifted_products(grid, z)
        for n in range(params.N):
            ref = _shift_products(zset.zeros, n, params.q, shifts)
            for i, k in enumerate(shifts):
                assert abs(products[n, i] - ref[k]) <= 1e-13 * abs(scales[n, i])
                want = decancelled_size(zset.zeros[n] * params.q**k, zset.zeros)
                assert abs(scales[n, i] - want) <= 1e-13 * want


def test_vanishing_terms_for_r_above_s(suite):
    # r > s routes identity terms through the shift k = 0 product, which
    # contains the (z_n - z_n) factor and is exactly zero; the identity
    # stays finite because those terms drop out identically
    cases = [params for params in suite if params.r > params.s][:4]
    assert cases
    for params in cases:
        _, zset = zeros_of(params)
        zs = zset.zeros
        for n in range(params.N):
            assert _shift_products(zs, n, params.q, [0])[0] == 0
        zero_shift = [c for c, k in _prop1_terms(qde_terms(params), zs[0]) if k == 0]
        assert zero_shift


def test_r1s1_specialized_form(suite):
    # the printed two-bracket form is the negative of the general identity;
    # check the signed left-hand sides, at the true zeros and off them
    cases = [params for params in suite if (params.r, params.s) == (1, 1)][:4]
    assert cases
    for params in cases:
        _, zset = zeros_of(params)
        for zs in (zset.zeros, tuple(z * (1 + 1e-2) for z in zset.zeros)):
            special = prop1_residuals_r1s1(zs, params)
            for n in range(params.N):
                terms = _prop1_terms(qde_terms(params), zs[n])
                general = sum(c * _shift_products(zs, n, params.q, [k])[k] for c, k in terms)
                scale = prop1_scale(zs, params, n)
                assert abs(general + special[n]) < 1e-12 * scale


def test_degree_and_shape_errors():
    # both routes read a case, which checks the count of its zeros once
    params = ParamSet(r=1, s=1, N=3, q=0.5, alpha=(0.7,), beta=(1.4,))
    with pytest.raises(DegreeMismatch):
        Case(params, (1.0, 2.0))
    wrong = ParamSet(r=2, s=1, N=2, q=0.5, alpha=(0.7, 1.1), beta=(1.4,))
    with pytest.raises(DegreeMismatch):
        prop1_residuals_r1s1((1.0, 2.0), wrong)
