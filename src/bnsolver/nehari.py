"""Fibering roots, manifold classification, and the normalized-ray reduction.

For an admissible ray v the derivative T'(t) of the fibering map has a
unique root t_minus above the convexity threshold t0, and, exactly when the
pairing integral lam*mu*int(phi v) + mu^(2*-1)*int(phi^(2*-1) v) is
positive, a second root t_plus below t0.  Membership of a field in the
Plus/Minus/Zero parts of the manifold is read off T'(1) and T''(1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArgumentError, MuBeyondRangeError, NumericalError
from .functional import FiberingProfile, Params, energy
from .grid import Field
from .numutil import abs_pow


class Klass(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"
    ZERO = "zero"
    NOT_ON_MANIFOLD = "not_on_manifold"


@dataclass(frozen=True)
class NehariClass:
    klass: Klass
    t_prime: float
    t_second_deriv: float
    tolerance: float


@dataclass(frozen=True)
class RayRoots:
    t_minus: float
    t_plus: Optional[float]
    pairing_sign: float


def _refine_root(prof: FiberingProfile, lo, flo, hi, fhi, tol, max_iter: int = 200):
    """Safeguarded Newton inside a sign-changing bracket of T'."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NumericalError(f"root bracket [{lo:g}, {hi:g}] does not change sign")
    t = 0.5 * (lo + hi)
    best_t, best_f = t, np.inf
    for _ in range(max_iter):
        f = prof.dT(t)
        if abs(f) < abs(best_f):
            best_t, best_f = t, f
        if abs(f) <= tol:
            return t
        if (f > 0) == (fhi > 0):
            hi, fhi = t, f
        else:
            lo, flo = t, f
        d2 = prof.d2T(t)
        t_newton = t - f / d2 if d2 != 0 else None
        if t_newton is not None and lo < t_newton < hi:
            t = t_newton
        else:
            t = 0.5 * (lo + hi)
        if hi - lo <= 8 * np.finfo(float).eps * max(1.0, hi):
            break
    f = prof.dT(best_t)
    if abs(f) <= tol:
        return best_t
    raise NumericalError(
        f"fibering root refinement stalled at |T'| = {abs(f):.3e} (tol {tol:.3e})",
        residual=abs(f),
    )


def find_roots(v, p: Params, profile: Optional[FiberingProfile] = None) -> RayRoots:
    """Roots of T' on the ray through v: always t_minus > t0, and t_plus in
    (0, t0) exactly when the pairing sign is positive."""
    prof = profile if profile is not None else FiberingProfile(v, p)
    t0 = prof.t0  # raises MuTooLargeError when the threshold is undefined
    f0 = prof.dT(t0)
    if f0 <= 0.0:
        raise MuBeyondRangeError(
            f"T'(t0) = {f0:.6e} <= 0: mu beyond the two-root regime on this ray"
        )
    tol = 1e-11 * (1.0 + abs(f0))

    lo, flo = t0, f0
    hi, fhi = t0, f0
    for k in range(1, 61):
        hi = t0 * 2.0**k
        fhi = prof.dT(hi)
        if fhi < 0.0:
            break
        lo, flo = hi, fhi
    else:
        raise NumericalError("T' stayed positive after 60 doublings of t0")
    t_minus = _refine_root(prof, lo, flo, hi, fhi, tol)

    t_plus = None
    if prof.sign_pairing > 0.0:
        # T'(0) = -pairing < 0 and T'(t0) > 0
        t_plus = _refine_root(prof, 0.0, -prof.sign_pairing, t0, f0, tol)

    return RayRoots(
        t_minus=float(t_minus),
        t_plus=None if t_plus is None else float(t_plus),
        pairing_sign=float(prof.sign_pairing),
    )


def classify(v, p: Params) -> NehariClass:
    """Three-way manifold membership from T'(1) and T''(1).

    Zero is reported only when T'(1) vanishes well inside tolerance AND
    T''(1) is inside its own band; ambiguous boundary cases are reported as
    NotOnManifold (the Zero part is proven empty, so a Zero verdict must be a
    deliberate event, not a tie-break)."""
    prof = FiberingProfile(v, p)
    tp = prof.dT(1.0)
    tpp = prof.d2T(1.0)
    scale = (
        prof.a
        + p.lam * (prof.l2 + p.mu * abs(prof.phi_v))
        + abs(prof.crit_pair_v(1.0))
    )
    tol_root = 1e-8 * scale
    tol_class = 1e-9 * prof.a
    if abs(tp) > tol_root:
        klass = Klass.NOT_ON_MANIFOLD
    elif abs(tpp) > tol_class:
        klass = Klass.PLUS if tpp > 0 else Klass.MINUS
    elif abs(tp) <= 0.1 * tol_root:
        klass = Klass.ZERO
    else:
        klass = Klass.NOT_ON_MANIFOLD
    return NehariClass(klass=klass, t_prime=tp, t_second_deriv=tpp, tolerance=tol_class)


def reduced_functional(v, p: Params):
    """J(v) = E(t_minus(v) v), 0-homogeneous in v; returns (J, t_minus,
    t_minus * v).  The Minus-branch descent, the multistart seeds and the
    minimax search all evaluate J here, on the nonnegative cone of the unit
    critical sphere."""
    rr = find_roots(v, p)
    w = rr.t_minus * v
    return energy(w, p), rr.t_minus, w


def barycenter(v: Field) -> np.ndarray:
    """Critical-density center of mass int x |v|^{2*} dx of the normalized v."""
    d = v.domain
    ts = d.two_star
    nrm = d.lp_norm(v.values, ts)
    if nrm == 0.0:
        raise ArgumentError("barycenter of the zero field")
    dens = abs_pow(v.values / nrm, ts)
    return d.weight * (d.interior_coords * dens[:, None]).sum(axis=0)
