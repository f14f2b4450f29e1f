"""Kernels f_n, f_nm, g_n and the N-equation zero identities."""

import pytest

from qzeros.errors import DegreeMismatch, IndexCollision
from qzeros.params import ParamSet
from qzeros.zero_algebra import (
    KernelCache,
    _prop1_terms,
    _shift_products,
    f_n,
    f_nm,
    g_n,
    prop1_residuals,
    prop1_residuals_qde,
    shift_range,
)

from conftest import zeros_of
from oracles import prop1_residuals_r1s1, prop1_scale


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
        for p in shift_range(params.r, params.s):
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
        for p in shift_range(params.r, params.s):
            if p == 0:
                continue
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
        for p in shift_range(params.r, params.s):
            if p == 0:
                continue
            n = 0
            for m in range(1, min(params.N, 3)):
                fd = _fd_partial(lambda c: f_n(p, n, c, q), zs, m)
                closed = (q**p - 1) * f_nm(p, n, m, zs, q) * zs[n] / (zs[n] - zs[m]) ** 2
                assert abs(fd - closed) < 1e-5 * max(1.0, abs(closed))
                checked += 1
    assert checked > 10


def test_kernel_cache_matches_direct():
    params = ParamSet(r=2, s=1, N=5, q=0.45, alpha=(0.7 + 0.2j, 1.1), beta=(1.3 - 0.4j,))
    _, zset = zeros_of(params)
    zs = zset.zeros
    cache = KernelCache(zs, params.q, params.r, params.s)
    shifts = list(shift_range(params.r, params.s))
    assert min(shifts) < 0  # r > s exercises negative dilation shifts
    for p in shifts:
        for n in range(params.N):
            assert cache.f[p][n] == f_n(p, n, zs, params.q)
            assert abs(cache.g[p][n] - g_n(p, n, zs, params.q)) < 1e-12
            for m in range(params.N):
                if m != n:
                    assert cache.fnm[p][n][m] == f_nm(p, n, m, zs, params.q)


def test_kernel_cache_f0_is_one(small_suite):
    for params in small_suite[:6]:
        _, zset = zeros_of(params)
        cache = KernelCache(zset.zeros, params.q, params.r, params.s)
        if 0 in cache.f:
            assert all(v == 1 for v in cache.f[0])


def test_prop1_true_zeros_on_suite(suite):
    for params in suite:
        _, zset = zeros_of(params)
        res = prop1_residuals(zset.zeros, params)
        assert len(res) == params.N
        assert max(res) < 1e-8


def test_prop1_perturbation_sensitivity(suite):
    for params in suite:
        _, zset = zeros_of(params)
        bumped = list(zset.zeros)
        bumped[0] = bumped[0] * (1 + 1e-3)
        assert max(prop1_residuals(bumped, params)) > 1e-5


def test_prop1_dual_route_agreement(suite):
    for params in suite:
        p, zset = zeros_of(params)
        prod_route = prop1_residuals(zset.zeros, params)
        qde_route = prop1_residuals_qde(zset.zeros, params, p)
        for a, b in zip(prod_route, qde_route):
            assert abs(a - b) < 1e-10 * max(1.0, a, b)


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
        zero_shift = [c for c, k in _prop1_terms(zs, 0, params) if k == 0]
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
                general = sum(c * _shift_products(zs, n, params.q, [k])[k] for c, k in _prop1_terms(zs, n, params))
                scale = prop1_scale(zs, params, n)
                assert abs(general + special[n]) < 1e-12 * scale


def test_degree_and_shape_errors():
    params = ParamSet(r=1, s=1, N=3, q=0.5, alpha=(0.7,), beta=(1.4,))
    with pytest.raises(DegreeMismatch):
        prop1_residuals((1.0, 2.0), params)
    with pytest.raises(DegreeMismatch):
        prop1_residuals_qde((1.0, 2.0), params)
    wrong = ParamSet(r=2, s=1, N=2, q=0.5, alpha=(0.7, 1.1), beta=(1.4,))
    with pytest.raises(DegreeMismatch):
        prop1_residuals_r1s1((1.0, 2.0), wrong)
