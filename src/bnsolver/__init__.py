"""Variational solver and verification harness for the critical-exponent
elliptic problem -Lap u = lam*u + u^(2*-1) with nonnegative Dirichlet
boundary data mu*g, attacked through the homogeneous shift u = v + mu*phi
and the decomposition of the associated Nehari manifold."""

# `cli` is left out so that `python -m bnsolver.cli` does not find it already
# imported; `import bnsolver.cli` loads it.
from . import functional, grid, lift, nehari, solve, verify  # noqa: F401

__version__ = "0.1.0"
