"""Small numeric helpers shared by the grid, functional and solve layers."""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import cg as _scipy_cg
from scipy.sparse.linalg import minres as _scipy_minres

from .errors import NumericalError

# Magnitudes below this are flushed to zero before fractional powers, so that
# |s|^q never produces denormals or spurious overflow in the 1/s direction.
POW_FLUSH = 1e-300


def signed_pow(s, q):
    """sign(s) * |s|**q, elementwise, safe for fractional q and negative s."""
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    a = np.where(a < POW_FLUSH, 0.0, a)
    return np.sign(s) * a**q


def abs_pow(s, q):
    """|s|**q elementwise with the same underflow flush as signed_pow."""
    a = np.abs(np.asarray(s, dtype=float))
    a = np.where(a < POW_FLUSH, 0.0, a)
    return a**q


def smoothstep(x):
    """C^1 ramp: 0 for x<=0, 3x^2-2x^3 on [0,1], 1 for x>=1."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def armijo(trial, f0, slope, beta, max_backtracks):
    """Backtracking line search from step beta, halved on each rejection.

    trial(beta) returns (f, ...) of the trial point, or None, which counts as
    a rejection.  Returns (trial(beta), min(2 beta, 4)) of the first trial
    with f < f0 - beta * slope, the second entry being the step the next
    search starts from; None when all `max_backtracks` trials are rejected.
    slope = 0 accepts any plain decrease.
    """
    for _ in range(max_backtracks):
        out = trial(beta)
        if out is not None and out[0] < f0 - beta * slope:
            return out, min(2.0 * beta, 4.0)
        beta *= 0.5
    return None


def solve_cg(A, b, x0=None, rtol=1e-12, maxiter=None, label="cg"):
    """Conjugate-gradient solve with an explicit failure signal."""
    x, info = _scipy_cg(A, b, x0=x0, rtol=rtol, atol=0.0, maxiter=maxiter)
    if info > 0:
        # Return the last iterate anyway; callers check their own residuals.
        return x, False
    if info < 0:
        raise NumericalError(f"{label}: conjugate gradients broke down (info={info})")
    return x, True


def solve_minres(A, b, M, rtol=1e-10, maxiter=None, label="minres"):
    """MINRES solve for symmetric (possibly indefinite) systems, from zero,
    preconditioned by the symmetric positive definite M given as the map
    r -> M r of raw arrays."""
    M = LinearOperator(A.shape, matvec=M, dtype=float)
    x, info = _scipy_minres(A, b, rtol=rtol, maxiter=maxiter, M=M)
    if info < 0:
        raise NumericalError(f"{label}: minres broke down (info={info})")
    return x, info == 0
