"""Seeded parameter sets for the benchmark, built with the stdlib only.

The stream mirrors the suite generator of tests/conftest.py draw for draw:
case i takes (r, s) = RS_COMBOS[i % 6], N = i % 10 + 1 and the q style
i % 3 (real positive, real negative, complex), and redraws q, alpha, beta
until the set is generic. At SUITE_SEED its first 50 cases are the test
suite, parameter for parameter, so benchmark figures stay comparable with
the measurements quoted against that suite. The genericity rule is a copy of
qzeros.params.validate, kept here so that a change to the program can never
change the benchmark's inputs.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from typing import List, Tuple

RS_COMBOS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2))
SUITE_SEED = 20260815
GENERICITY_TOL = 1e-12


@dataclass(frozen=True)
class Case:
    r: int
    s: int
    N: int
    q: complex
    alpha: Tuple[complex, ...]
    beta: Tuple[complex, ...]

    def config(self) -> dict:
        """The CLI configuration (complex numbers as [re, im] pairs)."""
        return {
            "r": self.r,
            "s": self.s,
            "N": self.N,
            "q": _pair(self.q),
            "alpha": [_pair(a) for a in self.alpha],
            "beta": [_pair(b) for b in self.beta],
        }


def _pair(z: complex) -> List[float]:
    return [z.real, z.imag]


def _draw_q(rng: random.Random, style: int) -> complex:
    mag = rng.uniform(0.2, 0.9)
    if style == 0:
        return complex(mag, 0.0)
    if style == 1:
        return complex(-mag, 0.0)
    phase = rng.choice((-1, 1)) * rng.uniform(0.2, math.pi - 0.2)
    return mag * cmath.exp(1j * phase)


def _draw_param(rng: random.Random) -> complex:
    return complex(rng.uniform(0.3, 2.0), rng.uniform(-0.6, 0.6))


def is_generic(case: Case) -> bool:
    """q off 0 and off the roots of unity of order <= N; no alpha or beta on
    a pole q^-m, m = 0..N-1 (tolerances scaled as in qzeros.params)."""
    q = case.q
    if abs(q) < GENERICITY_TOL:
        return False
    if any(abs(q**i - 1) < GENERICITY_TOL for i in range(1, case.N + 1)):
        return False
    for val in case.alpha + case.beta:
        for m in range(case.N):
            pole = q ** (-m)
            if abs(val - pole) < GENERICITY_TOL * max(1.0, abs(pole)):
                return False
    return True


def make_case(rng: random.Random, index: int) -> Case:
    r, s = RS_COMBOS[index % len(RS_COMBOS)]
    N = index % 10 + 1
    while True:
        q = _draw_q(rng, index % 3)
        alpha = tuple(_draw_param(rng) for _ in range(r))
        beta = tuple(_draw_param(rng) for _ in range(s))
        case = Case(r=r, s=s, N=N, q=q, alpha=alpha, beta=beta)
        if is_generic(case):
            return case


def suite(count: int, seed: int = SUITE_SEED, max_degree: int = 10) -> List[Case]:
    """The first `count` cases of the stream at `seed` with N <= max_degree
    (the cases above it are still drawn, so the stream stays the same)."""
    rng = random.Random(seed)
    out: List[Case] = []
    index = 0
    while len(out) < count:
        case = make_case(rng, index)
        index += 1
        if case.N <= max_degree:
            out.append(case)
    return out


def write_configs(cases: List[Case], directory: str) -> List[str]:
    paths = []
    for i, case in enumerate(cases):
        path = f"{directory}/case{i:04d}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case.config(), fh)
        paths.append(path)
    return paths


def mu_closed(case: Case) -> List[complex]:
    """The paper's closed-form spectrum of M, evaluated independently of the
    program: mu_n = -q^{(s-r)(N-n)} (q^{-n} - 1) prod_j (alpha_j q^{N-n} - 1)."""
    q, N = case.q, case.N
    out = []
    for n in range(1, N + 1):
        val = -(q ** ((case.s - case.r) * (N - n))) * (q ** (-n) - 1)
        for a in case.alpha:
            val *= a * q ** (N - n) - 1
        out.append(val)
    return out
