"""Small numeric helpers shared by the grid, functional and solve layers."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

# Magnitudes below this are flushed to zero before fractional powers, so that
# |s|^q never produces denormals or spurious overflow in the 1/s direction.
POW_FLUSH = 1e-300


def _whole_pow(s, q, parity):
    """s**q by repeated squaring when q is a whole number >= 2 of the given
    parity (1 odd, 0 even), else None.  Then s**q is sign(s)|s|^q (odd q) or
    |s|^q (even q), within a few ulp of libm pow, and every |s| < POW_FLUSH
    gives 0 already: s*s underflows.  These are the powers 2*, 2*-1 and 2*-2
    in N = 3 and 4."""
    if not (q >= 2 and float(q).is_integer() and int(q) % 2 == parity):
        return None
    k, out, sq = int(q), None, s
    while True:
        if k & 1:
            out = sq if out is None else out * sq
        k >>= 1
        if not k:
            return out
        sq = sq * sq


def signed_pow(s, q):
    """sign(s) * |s|**q, elementwise, safe for fractional q and negative s."""
    s = np.asarray(s, dtype=float)
    out = _whole_pow(s, q, 1)
    if out is not None:
        return out
    a = np.abs(s)
    a = np.where(a < POW_FLUSH, 0.0, a)
    return np.sign(s) * a**q


def abs_pow(s, q):
    """|s|**q elementwise with the same underflow flush as signed_pow."""
    s = np.asarray(s, dtype=float)
    out = _whole_pow(s, q, 0)
    if out is not None:
        return out
    a = np.abs(s)
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
    """Conjugate-gradient solve of A x = b for the symmetric positive
    definite A given as the map x -> A x of raw arrays (`_scipy_cg`), with
    an explicit failure signal: (x, True) once ||b - A x||_2 < rtol ||b||_2,
    (the last iterate, False) when maxiter iterations (default 10 n) run
    out; NumericalError when A is found not to be positive definite."""
    x, info = _scipy_cg(A, b, x0=x0, rtol=rtol, maxiter=maxiter, label=label)
    return x, info == 0


def _scipy_cg(matvec, b, x0=None, *, rtol, maxiter=None, callback=None, label="cg"):
    """scipy.sparse.linalg.cg with M = I and atol = 0, on raw float arrays:
    matvec is the map x -> A x (a sparse matrix's `dot`, or a diagonal
    scaling).  The same arithmetic in the same order, so the same iterates
    bit for bit, and scipy's keywords and (x, info) return, info 0 when
    converged and maxiter when not, so that wrappers of scipy's cg (an
    iteration counter passed as `callback`) work unchanged.  It differs in
    two ways: x0 is never written to, and a non-positive p.Ap is a
    NumericalError naming `label`, raised at once.

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
    r = b - matvec(x) if x.any() else b.copy()
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
        q = matvec(p)
        pq = np.dot(p, q)
        if not pq > 0.0:
            raise NumericalError(f"{label}: conjugate gradients broke down: p.Ap <= 0 "
                                 "(matrix not positive definite)")
        alpha = rho / pq
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, q, out=tmp)
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def solve_minres(A, b, M, rtol=1e-10, maxiter=None, label="minres"):
    """MINRES solve of A x = b for the symmetric (possibly indefinite) A
    given as the map x -> A x of raw arrays, from zero, preconditioned by
    the symmetric positive definite M given the same way (`_scipy_minres`):
    (x, True) once converged, (the last iterate, False) when maxiter
    iterations (default 5 n) run out; NumericalError when an inner product
    shows M not positive definite or A not symmetric."""
    x, info = _scipy_minres(A, b, rtol=rtol, maxiter=maxiter, M=M, label=label)
    return x, info == 0


def _scipy_minres(matvec, b, *, rtol, maxiter=None, M, callback=None, label="minres"):
    """scipy.sparse.linalg.minres with x0 = 0 and shift = 0, on raw float
    arrays: matvec and M are the maps x -> A x and r -> M r, each returning
    a new array.  The same arithmetic in the same order, so the same
    iterates bit for bit, and scipy's keywords and (x, info) return, info 0
    when a stop test holds and maxiter when the iterations run out, so that
    wrappers of scipy's minres (an iteration counter passed as `callback`)
    work unchanged.  It differs in two ways: scipy's ValueError on a
    negative r.M r (M indefinite, or A not symmetric) is a NumericalError
    naming `label` and the inner product, and x, v and the three search
    directions are updated in place through one scratch buffer."""
    r1 = r2 = np.array(b, dtype=float)
    maxiter = 5 * r1.size if maxiter is None else maxiter
    eps = np.finfo(float).eps
    x = np.zeros_like(r1)
    y = M(r1)
    beta1 = np.inner(r1, y)
    if beta1 < 0:
        raise NumericalError(f"{label}: minres broke down: r.M r = {beta1:.6e} < 0 "
                             "(preconditioner not positive definite)")
    if beta1 == 0:
        return x, 0
    beta1 = math.sqrt(beta1)
    oldb, beta, dbar, epsln, phibar, tnorm2 = 0, beta1, 0, 0, beta1, 0
    cs, sn, gmax, gmin = -1, 0, 0, np.finfo(float).max
    v, tmp = np.empty_like(r1), np.empty_like(r1)
    w1, w2, w = np.zeros((3, r1.size))
    for itn in range(1, maxiter + 1):
        np.multiply(y, 1.0 / beta, out=v)
        y = matvec(v)
        if itn >= 2:
            y -= np.multiply(r1, beta / oldb, out=tmp)
        alfa = np.inner(v, y)
        y -= np.multiply(r2, alfa / beta, out=tmp)
        r1, r2 = r2, y
        y = M(r2)
        oldb, beta = beta, np.inner(r2, y)
        if beta < 0:
            raise NumericalError(f"{label}: minres broke down: r.M r = {beta:.6e} < 0 "
                                 f"at iteration {itn} (matrix not symmetric)")
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2

        # apply the previous plane rotation, then compute the next one
        oldeps, epsln = epsln, sn * beta
        delta, gbar, dbar = cs * dbar + sn * alfa, sn * dbar - cs * alfa, -cs * beta
        root = np.linalg.norm([gbar, dbar])
        gamma = max(np.linalg.norm([gbar, beta]), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar

        # w = (v - oldeps w1 - delta w2) / gamma into the free buffer, x += phi w
        w1, w2, w = w2, w, w1
        np.subtract(v, np.multiply(w1, oldeps, out=tmp), out=w)
        w -= np.multiply(w2, delta, out=tmp)
        w *= 1.0 / gamma
        x += np.multiply(w, phi, out=tmp)
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)

        Anorm = math.sqrt(tnorm2)
        ynorm = np.linalg.norm(x)
        test1 = math.inf if ynorm == 0 or Anorm == 0 else phibar / (Anorm * ynorm)
        test2 = math.inf if Anorm == 0 else root / Anorm
        if callback is not None:
            callback(x)
        # scipy's stop tests: a first step with beta/beta1 <= 10 eps (b and
        # x eigenvectors), ||r|| / (||A|| ||x||) or ||A r|| / (||A|| ||r||)
        # below rtol, x beyond 1/eps of b or cond(A) beyond 0.1/eps return
        # 0; then the iteration limit returns maxiter, and either test below
        # eps returns 0
        stop = (itn == 1 and beta / beta1 <= 10 * eps) or test1 <= rtol or test2 <= rtol \
            or Anorm * ynorm * eps >= beta1 or gmax / gmin >= 0.1 / eps
        if stop or itn >= maxiter or 1 + test1 <= 1 or 1 + test2 <= 1:
            return x, 0 if stop or itn < maxiter else maxiter
    return x, 0
