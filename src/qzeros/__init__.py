"""Numerical verification laboratory for the zeros of generalized basic
hypergeometric polynomials: algebraic identities satisfied by the zeros, the
isospectral matrix whose eigenvalues are known in closed form, and the
dynamical system whose equilibria are the zeros themselves.

The modules are the API (from qzeros.isospectral import Case); importing
the package alone loads none of them."""

__version__ = "0.1.0"
