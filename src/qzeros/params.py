"""Parameter tuples, genericity validation, and Vieta's expansion.

A ParamSet fixes one polynomial family instance: the two index counts r and s,
the degree N, the base q, and the numerator/denominator parameter lists. All
downstream formulas assume "generic" parameters: q off the grid of small roots
of unity, and no alpha or beta sitting on a pole q^{-m} of the coefficient
formula. validate() certifies exactly that. _elementary is the one home of
Vieta's expansion: the elementary symmetric functions of the alphas and
betas (qdiff.qde_terms, isospectral.closed_trace) and of the zeros (the
zeros command's reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from .errors import InvalidDegree, NonGenericParameter

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


def validate(params: ParamSet) -> ParamSet:
    """Certify genericity; returns the same ParamSet or raises NonGenericParameter.

    Rejected configurations (all within GENERICITY_TOL, scaled by pole magnitude):
      - N < 1 (InvalidDegree),
      - q = 0 or q a root of unity of order <= N (zeroes a (q;q)_m denominator
        factor 1 - q^i),
      - any beta_k = q^{-m} for m = 0..N-1 (zeroes a (beta_k;q)_m denominator),
      - any alpha_j = q^{-m} for m = 0..N-1 (annihilates the leading coefficient
        through the (alpha_j;q)_N numerator factor, breaking the monic rescale).
    A power of q that overflows binary64 ends its loop: it and every higher
    power lie beyond every finite value, so none is 1 or near an alpha or beta.
    """
    if params.N < 1:
        raise InvalidDegree(f"N must be a positive integer, got {params.N}")
    q = params.q
    if abs(q) < GENERICITY_TOL:
        raise NonGenericParameter("q", "0", "dilation operator degenerates")
    for i in range(1, params.N + 1):
        try:
            power = q**i
        except OverflowError:  # binary64 only; mpc powers do not overflow
            break
        if abs(power - 1) < GENERICITY_TOL:
            raise NonGenericParameter("q", f"root of unity of order {i}", "(q;q)_m factor 1 - q^i vanishes")
    for label, values in (("beta", params.beta), ("alpha", params.alpha)):
        for idx, val in enumerate(values, start=1):
            for m in range(params.N):
                try:
                    pole = q ** (-m)
                except OverflowError:
                    break
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
    """Vieta's expansion: the coefficients e_1..e_k of prod(1 + v x) over the
    values, by iterated convolution, the constant 1 dropped; the last is the
    full product."""
    coeffs = [1.0 + 0.0j] if not values else [type(values[0])(1)]
    for v in values:
        coeffs = _poly_mul_linear(coeffs, v)
    return tuple(coeffs[1:])
