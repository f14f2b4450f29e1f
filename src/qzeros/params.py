"""Parameter tuples, genericity validation, and elementary symmetric functions.

A ParamSet fixes one polynomial family instance: the two index counts r and s,
the degree N, the base q, and the numerator/denominator parameter lists. All
downstream formulas assume "generic" parameters: q off the grid of small roots
of unity, and no alpha or beta sitting on a pole q^{-m} of the coefficient
formula. validate() certifies exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from .errors import (
    InvalidDegree,
    NonGenericParameter,
    ReductionMismatch,
    ReductionTooDeep,
)

# absolute tolerance (after scaling by the local pole magnitude) below which a
# parameter counts as sitting on a pole
GENERICITY_TOL = 1e-12


@dataclass(frozen=True)
class ParamSet:
    """The (r, s, N, q, alpha, beta) tuple defining one polynomial family instance.

    Scalars may be builtin complex or mpmath.mpc; all operations downstream are
    generic over the scalar type.
    """

    r: int
    s: int
    N: int
    q: object
    alpha: Tuple = ()
    beta: Tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "beta", tuple(self.beta))
        if self.r < 0 or self.s < 0:
            raise InvalidDegree(f"r and s must be nonnegative, got r={self.r}, s={self.s}")
        if len(self.alpha) != self.r:
            raise ValueError(f"alpha has {len(self.alpha)} entries, expected r={self.r}")
        if len(self.beta) != self.s:
            raise ValueError(f"beta has {len(self.beta)} entries, expected s={self.s}")


@dataclass(frozen=True)
class SymFuncs:
    """Coefficients of prod(1 + alpha_j x) and prod(1 + beta_k x) (constant term dropped)."""

    a: Tuple
    b: Tuple


def validate(params: ParamSet) -> ParamSet:
    """Certify genericity; returns the same ParamSet or raises NonGenericParameter.

    Rejected configurations (all within GENERICITY_TOL, scaled by pole magnitude):
      - N < 1 (InvalidDegree),
      - q = 0 or q a root of unity of order <= N (zeroes a (q;q)_m denominator
        factor 1 - q^i),
      - any beta_k = q^{-m} for m = 0..N-1 (zeroes a (beta_k;q)_m denominator),
      - any alpha_j = q^{-m} for m = 0..N-1 (annihilates the leading coefficient
        through the (alpha_j;q)_N numerator factor, breaking the monic rescale).
    """
    if params.N < 1:
        raise InvalidDegree(f"N must be a positive integer, got {params.N}")
    q = params.q
    if abs(q) < GENERICITY_TOL:
        raise NonGenericParameter("q", "0", "dilation operator degenerates")
    for i in range(1, params.N + 1):
        if abs(q**i - 1) < GENERICITY_TOL:
            raise NonGenericParameter("q", f"root of unity of order {i}", "(q;q)_m factor 1 - q^i vanishes")
    for label, values in (("beta", params.beta), ("alpha", params.alpha)):
        for idx, val in enumerate(values, start=1):
            for m in range(params.N):
                pole = q ** (-m)
                if abs(val - pole) < GENERICITY_TOL * max(1.0, abs(pole)):
                    raise NonGenericParameter(f"{label}_{idx}", f"q^-{m}")
    return params


def in_context(params: ParamSet, ctx) -> ParamSet:
    """The same parameter set with q, alpha and beta as scalars of the
    precision context ctx (their values unchanged). Every function computes
    in the precision of the params it is given, so this is where a caller
    chooses the precision of a whole pipeline."""
    return replace(
        params,
        q=ctx.convert(params.q),
        alpha=tuple(ctx.convert(a) for a in params.alpha),
        beta=tuple(ctx.convert(b) for b in params.beta),
    )


def _poly_mul_linear(coeffs: list, root_weight) -> list:
    # multiply the polynomial (in x) by (1 + root_weight * x)
    out = coeffs + [coeffs[-1] * root_weight]
    for i in range(len(coeffs) - 1, 0, -1):
        out[i] = coeffs[i] + coeffs[i - 1] * root_weight
    return out


def _elementary(values: Sequence) -> Tuple:
    coeffs = [1.0 + 0.0j] if not values else [type(values[0])(1)]
    for v in values:
        coeffs = _poly_mul_linear(coeffs, v)
    return tuple(coeffs[1:])


def elem_sym(params: ParamSet) -> SymFuncs:
    """Elementary symmetric coefficients a_j(alpha), b_k(beta).

    Computed by iterated convolution of the generating products
    prod(1 + alpha_j x) and prod(1 + beta_k x); the top coefficients are the
    full products prod(alpha_j), prod(beta_k).
    """
    return SymFuncs(a=_elementary(params.alpha), b=_elementary(params.beta))


def reduce(params: ParamSet, u: int) -> ParamSet:
    """Drop u trailing alpha/beta pairs that are equal (they cancel in every
    coefficient, so the reduced tuple generates the identical polynomial).

    u = 0 is the identity for any params. Otherwise requires u <= min(r-1, s-1)
    and alpha[r-u+i] == beta[s-u+i] within GENERICITY_TOL for i = 0..u-1.
    """
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    if u == 0:
        return params
    if u > min(params.r - 1, params.s - 1):
        raise ReductionTooDeep(
            f"u={u} would leave r={params.r - u} or s={params.s - u} below 1"
        )
    for i in range(u):
        av = params.alpha[params.r - u + i]
        bv = params.beta[params.s - u + i]
        if abs(av - bv) > GENERICITY_TOL * max(1.0, abs(av)):
            raise ReductionMismatch(
                f"alpha_{params.r - u + i + 1} = {av!r} != beta_{params.s - u + i + 1} = {bv!r}"
            )
    return ParamSet(
        r=params.r - u,
        s=params.s - u,
        N=params.N,
        q=params.q,
        alpha=params.alpha[: params.r - u],
        beta=params.beta[: params.s - u],
    )
