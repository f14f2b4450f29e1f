"""Shared suite construction for the property and acceptance tests.

The acceptance criteria quantify over seeded random generic parameter sets
spanning (r, s) in {(0,0), (1,0), (0,1), (1,1), (2,1), (2,2)}, N in 1..10 and
|q| in [0.2, 0.9] with real and complex q. suite_cases builds that suite from
a stdlib random stream, so every run sees byte-identical parameters. Zero
configurations are memoized per session because half the tests start from
them and Aberth on N = 10 is the slow step.
"""

import cmath
import math
import random

import pytest

from qzeros.errors import NonGenericParameter
from qzeros.params import ParamSet, validate
from qzeros.precision import context_of
from qzeros.qseries import coeffs_P, to_monic
from qzeros.rootfind import find_zeros

RS_COMBOS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2))
SUITE_SEED = 20260815


def _draw_q(rng, style, mags=(0.2, 0.9)):
    mag = rng.uniform(*mags)
    if style == 0:
        return complex(mag, 0.0)
    if style == 1:
        return complex(-mag, 0.0)
    phase = rng.choice((-1, 1)) * rng.uniform(0.2, math.pi - 0.2)
    return mag * cmath.exp(1j * phase)


def _draw_param(rng):
    return complex(rng.uniform(0.3, 2.0), rng.uniform(-0.6, 0.6))


def make_case(rng, index, mags=(0.2, 0.9), rs=RS_COMBOS):
    """One generic ParamSet; cycles the (r, s) grid rs, N and the q style,
    |q| drawn uniformly from the range mags."""
    r, s = rs[index % len(rs)]
    N = index % 10 + 1
    while True:
        q = _draw_q(rng, index % 3, mags)
        alpha = tuple(_draw_param(rng) for _ in range(r))
        beta = tuple(_draw_param(rng) for _ in range(s))
        try:
            return validate(ParamSet(r=r, s=s, N=N, q=q, alpha=alpha, beta=beta))
        except NonGenericParameter:
            continue


def suite_cases(count=50, seed=SUITE_SEED):
    rng = random.Random(seed)
    return [make_case(rng, i) for i in range(count)]


_zero_cache = {}


def zeros_of(params):
    """Monic polynomial and its zeros, memoized on the parameter tuple and
    its precision (a real binary64 q equals and hashes as its mpmath copy)."""
    key = (context_of(params.q), params.r, params.s, params.N, params.q, params.alpha, params.beta)
    if key not in _zero_cache:
        p = to_monic(coeffs_P(params))
        _zero_cache[key] = (p, find_zeros(p, params))
    return _zero_cache[key]


def counting(monkeypatch, module, name):
    """Wrap module.name so that each call's result is recorded."""
    original = getattr(module, name)
    results = []

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, counted)
    return results


@pytest.fixture(scope="session")
def suite():
    return suite_cases()


@pytest.fixture(scope="session")
def small_suite():
    """First 18 cases: every (r, s) class three times, N up to 8. For the
    slower per-case checks where 50 full cases would dominate the runtime."""
    return suite_cases(count=18)
