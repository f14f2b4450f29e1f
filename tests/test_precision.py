"""Precision contexts: extended precision lives in the values, not in mpmath's
globals, and every function computes in the precision of its inputs."""

import importlib
import inspect
import math
import pkgutil
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from conftest import counting
from oracles import (
    Gaussian,
    build_C,
    exact_prop1_totals,
    exact_qde_coefficients,
    exact_traces,
    forward_spectrum,
    gaussian,
    mpc_kernel_route,
    rounded_once,
    size64,
)

import qzeros
from qzeros import isospectral, precision, qdiff, zero_algebra
from qzeros.flow import jacobian_fd
from qzeros.isospectral import Case, build_M, mu_closed
from qzeros.params import ParamSet, in_context
from qzeros.precision import (
    CARRIED_WIDTH,
    F64,
    TINY,
    Dyadic,
    PrecisionContext,
    context_of,
    extended,
    rel_gaps,
)
from qzeros.qseries import Poly, coeffs_P, to_monic
from qzeros.rootfind import companion_zeros, find_zeros

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
    M, lam = forward_spectrum(Case(params))
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


# params.in_context is how a caller chooses a precision; qdiff.shift_groups
# sums weights of mixed scalar types (an integer 1 among them), whose own
# types do not name the context to sum them in
TAKES_A_CONTEXT = {"params.in_context", "qdiff.shift_groups"}


def test_no_public_function_takes_a_context():
    for info in pkgutil.iter_modules(qzeros.__path__):
        module = importlib.import_module(f"qzeros.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if f"{info.name}.{name}" not in TAKES_A_CONTEXT:
                assert "ctx" not in inspect.signature(obj).parameters, f"{info.name}.{name}"


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


def test_coefficient_scales_past_binary64_are_taken_in_the_scalar_type(monkeypatch):
    # p = z + 1e300 at q = 1e-10, r = s = 0, N = 1: the B side's
    # Delta_{q^-1} takes c_0 to about 1e310, and so does the expanded
    # route's addend q^-1 c_0, whose binary64 sizes multiply to inf; an inf
    # scale would read every value normalised by it as 0
    ctx = extended(50)
    case = Case(in_context(ParamSet(r=0, s=0, N=1, q=1e-10), ctx))
    case.monic = Poly((ctx.convert(1e300), ctx.convert(1)), monic=True)
    addends = counting(monkeypatch, qdiff, "_largest_addends")
    residuals, agreements = qdiff.qde_checks(case)
    big = ctx.mp.mpf(1e300) * 1e10
    b_marks = qdiff._operator_sides(case.monic, case.params)[3]
    # coefficient 1's two scales, 1e300 (1e10 - 1) and 1e10 1e300
    for scale in (b_marks[0], addends[-1][1][0]):
        assert isinstance(scale, type(big)) and abs(scale - big) <= 2e-10 * big
    # R_1 = (q - 1) - 1e300 (1e10 - 1) over its cascade scale: -1 to 1e-10
    assert abs(complex(residuals[1]) + 1) < 1e-9
    assert all(0 <= a < 1e-40 for a in agreements)


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


def _gap(a, b) -> float:
    """The gap of the scalar a from b, size(a - b) / max(1, size(b)), in a - b's precision."""
    d = a - b
    size = context_of(d).size
    return float(size(d) / max(1.0, size(b)))


@pytest.mark.parametrize("ctx", [F64, extended(50)])
def test_rel_gaps_is_the_scalar_gap_bit_for_bit(ctx):
    pairs = _gap_pairs(ctx, np.random.default_rng(7))
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    ref = [_gap(x, y) for x, y in pairs]
    assert _bits(rel_gaps(np.array(a, dtype=ctx.dtype), np.array(b, dtype=ctx.dtype))) == _bits(ref)
    # an N x N table (the Jacobian check) and a row of references broadcast
    # against the rows of states (the flow's endpoint drift)
    table = np.array(a[:400], dtype=ctx.dtype).reshape(20, 20)
    row = np.array(b[:20], dtype=ctx.dtype)
    got = rel_gaps(table, row)
    assert got.shape == (20, 20)
    assert _bits(got.ravel()) == _bits(_gap(x, y) for line in table for x, y in zip(line, row))
    # binary64 real gaps, as the two zero-identity routes give them
    reals = [abs(x) for x in np.array(a[:50], dtype=complex)]
    assert _bits(rel_gaps(reals, reals[::-1])) == _bits(_gap(x, y) for x, y in zip(reals, reals[::-1]))


@pytest.mark.parametrize("ctx", [F64, extended(50)])
def test_sizes_is_size_bit_for_bit(ctx):
    # one modulus rule: sizes of an array, size of each value, and at 50
    # digits abs of each value read exactly
    values = [x for pair in _gap_pairs(ctx, np.random.default_rng(11)) for x in pair]
    want = _bits(ctx.size(v) for v in values)
    assert _bits(ctx.sizes(np.array(values, dtype=ctx.dtype))) == want
    if ctx.mp is not None:
        finite = [v for v in values if mpmath.isfinite(v)]
        exact = ctx.exact(finite)
        assert _bits(ctx.sizes(exact)) == _bits(ctx.size(v) for v in finite)
        assert _bits(abs(d) for d in exact) == _bits(ctx.size(v) for v in finite)


@pytest.mark.parametrize("dps", [15, 50, 330])
def test_raw_part_rounding_is_mpmaths_complex_bit_for_bit(dps):
    # binary64 and size read an mpc's raw parts; every part must round as
    # mpmath's complex() rounds it: mantissas of prec bits that round up
    # across a power of two, ties to even, subnormal results (rounded twice,
    # as mpmath rounds them), overflow to +-inf, and zero, inf and nan parts
    mp = extended(dps).mp
    rng = random.Random(dps)
    prec = mp.prec
    mans = [(1 << prec) - 1, (1 << prec) - 3, (1 << (prec - 1)) + 1]
    if prec > 54:
        mans += [(1 << (prec - 1)) | (1 << (prec - 54)), (3 << (prec - 2)) | (1 << (prec - 54))]
    mans += [rng.getrandbits(prec) | 1 for _ in range(40)]
    exps = [-1080 - prec, -1074 - prec, -1060 - prec, -1023 - prec, -prec, 1023 - prec, 1024 - prec, 1100 - prec]
    exps += [rng.randint(-1200, 1200) for _ in range(20)]
    parts = [mp.ldexp(mp.mpf(sign * m), e) for m in mans for e in exps for sign in (1, -1)]
    parts += [mp.mpf(0), mp.inf, -mp.inf, mp.nan]
    values = [mp.mpc(x, rng.choice(parts)) for x in parts]
    want = [complex(v) for v in values]
    got = precision.binary64(np.array(values, dtype=object).reshape(-1, 2))
    assert got.shape == (len(values) // 2, 2)
    assert _bits(v for z in got.flat for v in (z.real, z.imag)) == _bits(v for z in want for v in (z.real, z.imag))
    assert any(math.isinf(z.real) for z in want) and any(0 < abs(z.real) < 2.0**-1022 for z in want)


def test_integer_parts_round_once_to_binary64():
    # precision._float, which rounds a Dyadic's parts and the refinement's
    # exact residuals: m 2^e rounded once, as a Fraction converts it, in the
    # normal range (conversion, then an exact math.ldexp), the subnormal
    # range (one integer division), across a power of two and past overflow
    rng = random.Random(7)
    for n in (1, 53, 54, 400, 1023, 1024, 1100):
        for m in (1 << n) - 1, (1 << (n - 1)) | 1, rng.getrandbits(n) | (1 << (n - 1)):
            for e in (-n - 1080, -n - 1074, -n - 1022, -n - 1021, -n - 1020, -n, 0, 1023 - n, 1024 - n, 1100 - n):
                for v in (m, -m):
                    try:
                        want = float(Fraction(v) * Fraction(2) ** e)
                    except OverflowError:
                        want = math.inf if v > 0 else -math.inf
                    assert precision._float(v, e).hex() == want.hex(), (v, e)


def test_exact_is_the_identity_in_binary64():
    values = np.random.default_rng(3).standard_normal(12).view(complex)
    for reading in (F64.exact, F64.carried):
        got = reading(values)
        assert got.dtype == complex and got.tobytes() == values.tobytes()
        assert reading([1, 2.5, 1j]).tolist() == [1, 2.5, 1j]


def test_exact_reads_values_exactly_and_convert_rounds_them_once():
    ctx = extended(50)
    mp = ctx.mp
    third = ctx.convert(1) / 3
    values = [third + 1e-30j, mp.mpf(third.real) * 2**-700, 7, 0.1, -2.5 + 0.5j, mp.mpc(0), 2**200 + 1]
    exact = ctx.exact(values)
    assert exact.shape == (len(values),) and all(type(d) is Dyadic and context_of(d) is ctx for d in exact)
    for v, d in zip(values, exact):
        assert gaussian(d) == gaussian(mp.convert(v))
        assert ctx.convert(d) == rounded_once(gaussian(d), ctx)
        assert complex(d) == complex(mp.convert(v))
    assert ctx.exact(np.array(values[:6], dtype=object).reshape(2, 3)).shape == (2, 3)
    # +, - and * are exact; convert rounds the result once
    x, y, z = exact[:3]
    base = x * y - z
    got = base * base * base + 1 - x
    want = (gaussian(x) * gaussian(y) - gaussian(z)) * (gaussian(x) * gaussian(y) - gaussian(z))
    want = want * (gaussian(x) * gaussian(y) - gaussian(z)) + 1 - gaussian(x)
    assert gaussian(got) == want
    assert ctx.convert(got) == rounded_once(want, ctx)


def test_infinite_and_nan_values_have_no_exact_form():
    ctx = extended(50)
    for bad in (mpmath.mpf("inf"), mpmath.mpf("-inf"), mpmath.mpf("nan"), complex("inf"), complex(1, float("nan"))):
        with pytest.raises(ValueError):
            ctx.exact([1, bad])


def test_dyadic_has_no_division():
    # a kernel edit that divides an exact value must fail, not round silently
    ctx = extended(50)
    d, mpc = ctx.exact([ctx.convert(2 + 1j)])[0], ctx.convert(3)
    for divide in (
        lambda: d / d,
        lambda: d / 2,
        lambda: 2 / d,
        lambda: d / 2.0,
        lambda: mpc / d,
        lambda: np.array([d], dtype=object) / d,
        lambda: np.array([d], dtype=object) / 3.0,
        lambda: d**-1,
    ):
        with pytest.raises(TypeError):
            divide()
    # nor does it mix with rounding scalars
    for mix in (lambda: d * mpc, lambda: mpc + d, lambda: d * 0.5):
        with pytest.raises(TypeError):
            mix()


def test_division_free_checks_are_the_exact_values_rounded_once(suite, monkeypatch):
    # the two q-difference routes' coefficients, the two zero-identity
    # routes and the traces at 50 digits compute the exact Gaussian
    # rationals of the values they read, and each leaves that arithmetic
    # rounded once: to mpc, or to the binary64 modulus of a size
    ctx = extended(50)
    addends = counting(monkeypatch, qdiff, "_largest_addends")
    prop1_sums = counting(monkeypatch, zero_algebra, "shift_sum")
    cases = [params for params in suite if params.N <= 5]
    assert len(cases) == 25
    for params in cases:
        case = Case(in_context(params, ctx))
        params, p, zeros = case.params, case.monic, case.zeros
        residuals, agreements = qdiff.qde_checks(case)
        ops, expanded = exact_qde_coefficients(case)
        _, a_marks, _, b_marks = qdiff._operator_sides(p, params)
        op_scale = [max(a, b) for a, b in zip([*a_marks, 0.0], [0.0, *b_marks])]
        la, lb = addends[-1]
        exp_scale = [max(a, b) for a, b in zip([*la, 0.0], [0.0, *lb])]
        sign = (-1) ** (params.s + 1)
        assert residuals == [rounded_once(v, ctx) / max(s, TINY) for v, s in zip(ops, op_scale)]
        want = [size64(v - w * sign) / max(s, t, 1.0) for v, w, s, t in zip(ops, expanded, op_scale, exp_scale)]
        assert agreements == want
        products, evaluations = exact_prop1_totals(zeros, params, p)
        for route, totals in (
            (lambda: zero_algebra.prop1_residuals(case), products),
            (lambda: zero_algebra.prop1_residuals_qde(case), evaluations),
        ):
            got = route()
            total, largest = prop1_sums[-1]
            assert [gaussian(v) for v in total] == totals
            assert got == [size64(v) / max(s, TINY) for v, s in zip(totals, largest)]
        assert isospectral.matrix_power_traces(case.M) == [rounded_once(t, ctx) for t in exact_traces(case.M)]


def test_carried_arithmetic_is_cut_to_its_width():
    # +, - and * of carried values give Dyadic values of one width, whose
    # integer parts never pass it, each product within sqrt(2) 2^(1 - width)
    # of its exact value, and 1 / x within 2^(1 - width) of the exact
    # reciprocal; no other division, no division of an exact value, no
    # power, and no mixing with exact or rounding scalars
    ctx = extended(50)
    width = CARRIED_WIDTH * ctx.mp.prec
    rng = np.random.default_rng(5)
    values = [ctx.convert(complex(*v)) / 3 for v in rng.standard_normal((40, 2)).tolist()]
    carried, exact = ctx.carried(values), ctx.exact(values)
    got, want = carried[0], gaussian(exact[0])
    for c, e in zip(carried[1:], exact[1:]):
        got, want = got * c, want * gaussian(e)
        assert type(got) is Dyadic and got.width == width
        assert max(got.re.bit_length(), got.im.bit_length()) <= width
    error = gaussian(got) - want
    assert abs(complex(float(error.re), float(error.im))) <= 2 * 40 * 2.0 ** (1 - width) * size64(want)
    for result in (got + c, got - c, 1 - got, got - 1, 2 * got, -got):
        assert type(result) is Dyadic and result.width == width
    assert gaussian(c + c - c) == gaussian(c)  # short sums stay exact
    for x in (got, c, -c):
        inverse = 1 / x
        assert type(inverse) is Dyadic and inverse.width == width
        assert max(inverse.re.bit_length(), inverse.im.bit_length()) <= width
        x = gaussian(x)
        norm = x.re * x.re + x.im * x.im
        error = gaussian(inverse) - Gaussian(x.re / norm, -x.im / norm)
        assert error.re**2 + error.im**2 <= Fraction(2) ** (2 - 2 * width) / norm
    assert gaussian(1 / -c) == gaussian(-(1 / c))
    for bad in (
        lambda: got / c,
        lambda: 1 / exact[0],
        lambda: 2 / got,
        lambda: got**2,
        lambda: got * exact[0],
        lambda: exact[0] + got,
        lambda: got * values[0],
        lambda: got * 0.5,
    ):
        with pytest.raises(TypeError):
            bad()


def test_carried_negation_is_exact():
    # a floor cut leaves -15 >> 2 = -4 at width 2, one bit past the width
    # once negated; -x negates the cut parts and cuts nothing again
    x = Dyadic(13, -15, 0, extended(50).mp, width=2)
    assert (x.re, x.im, x.exp) == (3, -4, 2)
    assert gaussian(-x) == -gaussian(x)
    assert (-x).width == 2


def _cut(re: int, im: int, exp: int, width) -> tuple:
    """(re + i im) 2^exp with both parts floor-shifted to their top width bits."""
    cut = max(re.bit_length(), im.bit_length()) - width if width else 0
    return (re >> cut, im >> cut, exp + cut) if cut > 0 else (re, im, exp)


def test_dyadic_arithmetic_is_the_exact_result_cut_to_its_width():
    # over random Gaussian integers, exponents and widths: +, - and * at
    # width W are the exact result with both parts floor-shifted to W bits
    # once (a difference is not cut at its negated operand first), and at
    # no width Python's integer arithmetic; -x is exact at every width, and
    # two widths never mix
    rng = random.Random(35)
    mp = extended(50).mp

    def draw(width):
        bits = rng.randint(0, 400)
        re, im = (rng.randint(-(2**bits), 2**bits) for _ in range(2))
        return Dyadic(re, im, rng.randint(-300, 300), mp, width)

    for _ in range(2000):
        width = rng.choice([None, rng.randint(1, 600)])
        x, y, k = draw(width), draw(width), rng.randint(-(2**70), 2**70)
        low = min(x.exp, y.exp)
        xr, xi, yr, yi = (v << (e - low) for v, e in ((x.re, x.exp), (x.im, x.exp), (y.re, y.exp), (y.im, y.exp)))
        kr, _, ke = _cut(k, 0, 0, width)
        k_low = min(x.exp, ke)
        sums = {
            "x + y": (x + y, (xr + yr, xi + yi, low)),
            "x - y": (x - y, (xr - yr, xi - yi, low)),
            "x * y": (x * y, (x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re, x.exp + y.exp)),
            "x * k": (x * k, (x.re * kr, x.im * kr, x.exp + ke)),
            "k - x": (k - x, ((kr << (ke - k_low)) - (x.re << (x.exp - k_low)), -(x.im << (x.exp - k_low)), k_low)),
        }
        for name, (got, (re, im, exp)) in sums.items():
            assert type(got) is Dyadic and got.width == width, name
            assert (got.re, got.im, got.exp) == _cut(re, im, exp, width), name
        assert gaussian(-x) == -gaussian(x)
        if width is not None:
            other = Dyadic(y.re, y.im, y.exp, mp, rng.choice([None, width + 1]))
            for mix in (lambda: x + other, lambda: other - x, lambda: x * other, lambda: other * x):
                with pytest.raises(TypeError):
                    mix()


def test_carried_product_is_the_four_product_form():
    # Dyadic.__mul__ forms its parts from three integer products; at the
    # carried width, over parts of either sign, they are ac - bd and
    # ad + bc cut once, and precision._binary64 rounds the product from its
    # integer parts as complex() does
    rng = random.Random(45)
    mp = extended(50).mp
    width = CARRIED_WIDTH * mp.prec

    def draw():
        re, im = (rng.choice([-1, 1]) * rng.getrandbits(width) for _ in range(2))
        return Dyadic(re, im, rng.randint(-400, 400), mp, width)

    negative = 0
    for _ in range(500):
        x, y = draw(), draw()
        got = x * y
        a, b, c, d = x.re, x.im, y.re, y.im
        assert (got.re, got.im, got.exp) == _cut(a * c - b * d, a * d + b * c, x.exp + y.exp, width)
        assert precision._binary64(got) == complex(got)
        negative += min(a, b, c, d) < 0
    assert negative > 400


# draw 5 of conftest.make_case over random.Random(99), N replaced by 24
LARGE = ParamSet(
    r=2,
    s=2,
    N=24,
    q=complex(-0.5615323790458884, -0.2022374257715006),
    alpha=(complex(1.1988174837197494, 0.32936827618898945), complex(1.097366380973487, -0.11685272417082077)),
    beta=(complex(0.7579786654451361, -0.5908562473189295), complex(0.646399499597426, 0.5874839627725049)),
)


def test_kernel_route_stays_within_its_width(monkeypatch):
    # at N = 24 and 50 digits the kernel tables (N x (N - 1) over the other
    # zeros, and the whole products f_n(k)) and M's carried entries run
    # past 2 prec bits, where a Dyadic would keep growing, and every integer
    # part stays within the derived width, 3 prec bits
    ctx = extended(50)
    case = Case(in_context(LARGE, ctx))
    carried = []
    original = PrecisionContext.rounded

    def recorded(self, values):
        carried.append(values)
        return original(self, values)

    monkeypatch.setattr(PrecisionContext, "rounded", recorded)
    caches = counting(monkeypatch, isospectral, "KernelCache")
    build_M(case)
    [cache] = caches
    bits = [
        max(v.re.bit_length(), v.im.bit_length())
        for table in (cache.z, cache.inv, *cache.fnm.values(), *cache.fn.values(), carried[-1])
        for v in table.flat
        if type(v) is Dyadic and v.width == 3 * ctx.mp.prec
    ]
    assert len(bits) == 24 * (1 + 23 * (1 + len(cache.fnm)) + len(cache.fn) + 24)
    assert 2 * ctx.mp.prec < max(bits) <= 3 * ctx.mp.prec + 2


def test_kernel_route_agrees_with_its_mpc_products(suite):
    # build_M and jacobian_fd against the same formulas with every product
    # rounded in mpc: M and the Jacobian, whose dual numbers take no step,
    # each to a few units of eps entry by entry
    ctx = extended(50)
    cases = [params for params in suite if params.N <= 5]
    assert len(cases) == 25
    for params in cases:
        case = Case(in_context(params, ctx))
        M, J = mpc_kernel_route(case.params, case.zeros)
        assert rel_gaps(build_M(case), M).max() <= 4 * ctx.eps
        assert rel_gaps(np.array(jacobian_fd(case), dtype=object), J).max() <= 4 * ctx.eps
