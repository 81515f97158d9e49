"""Fibering roots, manifold classification, and the normalized-ray reduction.

For an admissible ray v the derivative T'(t) of the fibering map has a
unique root t_minus above the convexity threshold t0, and, exactly when the
pairing integral lam*mu*int(phi v) + mu^(2*-1)*int(phi^(2*-1) v) is
positive, a second root t_plus below t0.  Both are sought only in the
two-root regime (t0 defined and T'(t0) > 0), which `two_root_regime` tests.
Each root has its own function, which evaluates T' only on its own side of
t0, and `reduced_functional` takes either: `t_plus` for the Plus branch,
`t_minus` for the Minus branch.  Membership of a field in the
Plus/Minus/Zero parts of the manifold is read off T'(1) and T''(1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArgumentError, MuBeyondRangeError, NumericalError
from .functional import FiberingProfile, Params
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
    t_second_deriv: float
    tolerance: float


def _refine_root(prof: FiberingProfile, lo, flo, hi, fhi, tol):
    """Safeguarded Newton inside a sign-changing bracket of T'."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NumericalError(f"root bracket [{lo:g}, {hi:g}] does not change sign")
    t = 0.5 * (lo + hi)
    best_t, best_f = t, np.inf
    for _ in range(200):
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


def two_root_regime(prof: FiberingProfile):
    """(t0, T'(t0), tol) of a ray in the two-root regime: t0 defined and
    T'(t0) > 0.  Raises MuTooLargeError when t0 is undefined and
    MuBeyondRangeError when T'(t0) <= 0; tol is the |T'| at which a root is
    accepted."""
    t0 = prof.t0
    f0 = prof.dT(t0)
    if f0 <= 0.0:
        raise MuBeyondRangeError(
            f"T'(t0) = {f0:.6e} <= 0: mu beyond the two-root regime on this ray"
        )
    return t0, f0, 1e-11 * (1.0 + abs(f0))


def t_minus(prof: FiberingProfile) -> float:
    """The root of T' above t0: the local maximum of t -> E(t v), which
    puts t v on the Minus part.  T' is evaluated only at t >= t0."""
    t0, f0, tol = two_root_regime(prof)
    lo, flo = t0, f0
    for k in range(1, 61):
        hi = t0 * 2.0**k
        fhi = prof.dT(hi)
        if fhi < 0.0:
            break
        lo, flo = hi, fhi
    else:
        raise NumericalError("T' stayed positive after 60 doublings of t0")
    return float(_refine_root(prof, lo, flo, hi, fhi, tol))


def t_plus(prof: FiberingProfile) -> Optional[float]:
    """The root of T' in (0, t0): the local minimum of t -> E(t v), which
    puts t v on the Plus part.  None when the pairing sign is not positive.
    T' is evaluated only at t <= t0."""
    t0, f0, tol = two_root_regime(prof)
    if prof.sign_pairing <= 0.0:
        return None
    # T'(0) = -pairing < 0 and T'(t0) > 0
    return float(_refine_root(prof, 0.0, -prof.sign_pairing, t0, f0, tol))


def classify(v, p: Params, h1_sq=None) -> NehariClass:
    """Three-way manifold membership from T'(1) and T''(1); h1_sq is
    ||v||^2 (`Domain.h1_norm_sq`) when the caller has it, passed on to the
    ray's `FiberingProfile` as its `a`.

    Zero is reported only when T'(1) vanishes well inside tolerance AND
    T''(1) is inside its own band; ambiguous boundary cases are reported as
    NotOnManifold (the Zero part is proven empty, so a Zero verdict must be a
    deliberate event, not a tie-break)."""
    prof = FiberingProfile(v, p, h1_sq)
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
    return NehariClass(klass=klass, t_second_deriv=tpp, tolerance=tol_class)


def reduced_functional(v, p: Params, root=t_minus):
    """J(v) = E(root(v) v), 0-homogeneous in v; returns (J, t, t v,
    ||t v||^2) with t = root(v), or None when the root is (`t_plus` on a
    ray whose pairing is not positive).  With `t_minus` (the default) this
    is the Minus branch's J, with `t_plus` the Plus branch's; the branch
    descents, the multistart seeds and the minimax search all evaluate it
    here, on the nonnegative cone of the unit critical sphere.  J is read
    off the ray's profile, E(t v) = T(t), and so is ||t v||^2 = t^2 ||v||^2
    (the profile's `a`)."""
    prof = FiberingProfile(v, p)
    t = root(prof)
    return None if t is None else (prof.T(t), t, t * v, t * t * prof.a)


def barycenter(v: Field) -> np.ndarray:
    """Critical-density center of mass int x |v|^{2*} dx of the normalized v."""
    d = v.domain
    ts = d.two_star
    nrm = d.lp_norm(v.values, ts)
    if nrm == 0.0:
        raise ArgumentError("barycenter of the zero field")
    dens = abs_pow(v.values / nrm, ts)
    return d.weight * (d.interior_coords * dens[:, None]).sum(axis=0)
