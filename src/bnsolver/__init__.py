"""Variational solver and verification harness for the critical-exponent
elliptic problem -Lap u = lam*u + u^(2*-1) with nonnegative Dirichlet
boundary data mu*g, attacked through the homogeneous shift u = v + mu*phi
and the decomposition of the associated Nehari manifold.

The package imports none of its modules; import the one you use, for
example `bnsolver.cli` or `from bnsolver import grid`."""

__version__ = "0.1.0"
