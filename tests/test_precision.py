"""Precision contexts: extended precision lives in the values, not in mpmath's
globals, and every function computes in the precision of its inputs."""

import inspect

import mpmath
import numpy as np
import pytest

import qzeros
from qzeros import (
    build_C,
    certified_spectrum,
    coeffs_P,
    companion_zeros,
    find_zeros,
    mu_closed,
    to_monic,
)
from qzeros.isospectral import Case
from qzeros.params import in_context
from qzeros.precision import F64, context_of, extended, rel_gap, rel_gaps
from qzeros.qdiff import _horner_scale

THIRD_30 = "0." + "3" * 30


def test_extended_context_is_private():
    with mpmath.workdps(15):
        ctx = extended(30)
        third = ctx.convert(1) / 3
        assert mpmath.mp.dps == 15
    assert mpmath.nstr(third.real, 30) == THIRD_30
    # a binary64 third is off from the 17th digit on
    assert mpmath.nstr(ctx.convert(F64.convert(1) / 3).real, 30) != THIRD_30


def test_extended_default_is_the_context_of_its_values():
    assert extended() is extended(50)
    assert context_of(extended().convert(1)) is extended()


def _outputs(params):
    p = to_monic(coeffs_P(params))
    M, lam = certified_spectrum(Case(params))
    # M is one array in the dtype of the context, its entries that context's scalars
    assert M.dtype == context_of(params.q).dtype
    C = build_C(params)
    return [
        *p.coeffs,
        *find_zeros(p, params).zeros,
        *companion_zeros(p),
        *(v for row in M.tolist() for v in row),
        *lam,
        *mu_closed(params),
        *C.diag,
        *C.sub,
    ]


def test_outputs_follow_the_precision_of_the_inputs(suite):
    params = suite[3]
    assert all(type(v) is complex for v in _outputs(params))
    ctx = extended(30)
    assert all(v.context is ctx.mp for v in _outputs(in_context(params, ctx)))


def test_no_public_function_takes_a_context():
    for name in qzeros.__all__:
        obj = getattr(qzeros, name)
        if inspect.isfunction(obj):
            assert "ctx" not in inspect.signature(obj).parameters, name


def test_binary64_size_is_abs():
    assert F64.size is abs
    for x in (0j, -3.5 + 4j, complex(1e-310, 0), complex("inf"), 1e300 + 1e300j):
        assert F64.size(x) == abs(x)


def test_extended_size_in_range_is_the_float_magnitude():
    ctx = extended(50)
    ulp = 2.0**-52
    for x in (ctx.convert(1) / 3 + 7j, ctx.convert(-2.5e-200 + 1e-201j), ctx.convert(1.7e300)):
        got = ctx.size(x)
        assert type(got) is float
        ref = float(abs(x))
        assert abs(got - ref) <= 4 * ulp * ref


def test_extended_size_out_of_range_stays_in_the_scalar_type():
    ctx = extended(50)
    for text in ("1e400", "1e-400"):
        x = ctx.convert(ctx.mp.mpf(text))
        got = ctx.size(x)
        assert got.context is ctx.mp
        assert abs(got - ctx.mp.mpf(text)) <= ctx.eps * ctx.mp.mpf(text)


def test_extended_size_past_the_binary64_modulus_stays_in_the_scalar_type():
    # both parts finite in binary64, the modulus 2.12e308 not: abs(complex(x))
    # overflows, and the size is taken in the scalar type as sizes takes it
    ctx = extended(50)
    x = ctx.convert(complex(1.5e308, 1.5e308))
    got = ctx.size(x)
    assert got.context is ctx.mp
    assert abs(got - abs(x)) <= ctx.eps * abs(x)
    assert ctx.sizes(np.array([x], dtype=object))[0] == got


def test_horner_scales_past_binary64_are_taken_in_the_scalar_type():
    # z (1 + z + z^2) at z = 1e200 has terms up to |z|^3 = 1e600: float
    # powers of size(z) would make the scale inf and every residual
    # normalised by it 0
    ctx = extended(50)
    z = np.array([ctx.convert(ctx.mp.mpf("1e200")), ctx.convert(2)], dtype=object)
    with np.errstate(over="ignore"):  # as qde_checks calls it
        largest = _horner_scale([0.0, 1.0, 1.0, 1.0], z, ctx.sizes(z), ctx)
    assert abs(largest[0] - ctx.mp.mpf("1e600")) <= ctx.eps * ctx.mp.mpf("1e600")
    assert largest[1] == 8.0


def _gap_pairs(ctx, rng, count=2000):
    """count pairs (a, b) over 80 decades, half of them close, and the
    special pairs: zeros, NaNs, infinite binary64 values, and at 50 digits
    moduli past binary64 range, by a part or by the modulus alone."""
    def draw():
        mags = np.exp(rng.uniform(-90, 90, (2, count)))
        return mags[0] * np.exp(1j * rng.uniform(-np.pi, np.pi, count)) + 1j * mags[1] * 1e-3

    a, b = draw(), draw()
    a[: count // 2] = b[: count // 2] * (1 + 1e-9 * rng.standard_normal(count // 2))
    nan, inf = complex("nan"), complex("inf")
    special = [(0j, 0j), (0j, 2 + 1j), (3j, 0j), (nan, 1), (1, nan), (nan, nan), (inf, 1), (1, inf), (-inf, 0.5j)]
    pairs = [(ctx.convert(x), ctx.convert(y)) for x, y in [*zip(a.tolist(), b.tolist()), *special]]
    if ctx.mp is not None:
        far = [ctx.mp.mpf("1e400"), ctx.mp.mpf("1e-400"), ctx.convert(complex(1.5e308, 1.5e308))]
        pairs += [(ctx.convert(x), ctx.convert(y)) for x in far for y in (*far, 1, 0)]
    return pairs


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("ctx", [F64, extended(50)])
def test_rel_gaps_is_rel_gap_bit_for_bit(ctx):
    pairs = _gap_pairs(ctx, np.random.default_rng(7))
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    ref = [rel_gap(x, y) for x, y in pairs]
    assert _bits(rel_gaps(np.array(a, dtype=ctx.dtype), np.array(b, dtype=ctx.dtype))) == _bits(ref)
    # an N x N table (the Jacobian check) and a row of references broadcast
    # against the rows of states (the flow's endpoint drift)
    table = np.array(a[:400], dtype=ctx.dtype).reshape(20, 20)
    row = np.array(b[:20], dtype=ctx.dtype)
    got = rel_gaps(table, row)
    assert got.shape == (20, 20)
    assert _bits(got.ravel()) == _bits(rel_gap(x, y) for line in table for x, y in zip(line, row))
    # binary64 real gaps, as the two zero-identity routes give them
    reals = [abs(x) for x in np.array(a[:50], dtype=complex)]
    assert _bits(rel_gaps(reals, reals[::-1])) == _bits(rel_gap(x, y) for x, y in zip(reals, reals[::-1]))
