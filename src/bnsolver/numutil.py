"""Small numeric helpers shared by the grid, functional and solve layers."""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator
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
    """Conjugate-gradient solve with an explicit failure signal: (x, True)
    once ||b - A x||_2 < rtol ||b||_2, (the last iterate, False) when
    maxiter iterations (default 10 n) run out; NumericalError when A is
    found not to be positive definite."""
    x, info = _scipy_cg(A, b, x0=x0, rtol=rtol, maxiter=maxiter)
    if info < 0:
        raise NumericalError(f"{label}: conjugate gradients broke down: p.Ap <= 0 "
                             "(matrix not positive definite)")
    return x, info == 0


def _scipy_cg(A, b, x0=None, *, rtol, maxiter=None, callback=None):
    """scipy.sparse.linalg.cg with M = I and atol = 0, on raw float arrays:
    the same arithmetic in the same order, so the same iterates bit for
    bit, and scipy's keywords and (x, info) return, info 0 when converged
    and maxiter when not, so that wrappers of scipy's cg (an iteration
    counter passed as `callback`) work unchanged.  It differs in two ways:
    x0 is never written to, and a non-positive p.Ap returns info -1 at once.

    Per iteration: one dot product r.r, used both for the stop test
    sqrt(r.r) < rtol ||b|| and as rho; one product A p; p updated in place;
    x and r updated through one scratch buffer."""
    b = np.asarray(b, dtype=float)
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return np.zeros_like(b), 0
    atol = float(rtol) * float(bnrm2)
    n = b.size
    maxiter = 10 * n if maxiter is None else maxiter
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - A @ x if x.any() else b.copy()
    p, tmp = np.empty(n), np.empty(n)
    rho_prev = None
    for it in range(maxiter):
        rho = np.dot(r, r)
        if np.sqrt(rho) < atol:
            return x, 0
        if it:
            p *= rho / rho_prev
            p += r
        else:
            p[:] = r
        q = A @ p
        pq = np.dot(p, q)
        if not pq > 0.0:
            return x, -1
        alpha = rho / pq
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, q, out=tmp)
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def solve_minres(A, b, M, rtol=1e-10, maxiter=None, label="minres"):
    """MINRES solve for symmetric (possibly indefinite) systems, from zero,
    preconditioned by the symmetric positive definite M given as the map
    r -> M r of raw arrays."""
    M = LinearOperator(A.shape, matvec=M, dtype=float)
    x, info = _scipy_minres(A, b, rtol=rtol, maxiter=maxiter, M=M)
    if info < 0:
        raise NumericalError(f"{label}: minres broke down (info={info})")
    return x, info == 0
