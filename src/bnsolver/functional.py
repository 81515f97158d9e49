"""Energy functional, derivatives, and fibering maps along rays.

For parameters (lam, mu) and lift phi the energy of a field v is

    E(v) = 1/2 ||v||^2 - lam/2 ||v + mu phi||_2^2 - 1/2* ||v + mu phi||_{2*}^{2*}

with 2* the critical exponent of the dimension (`Domain.two_star`).  The
fibering map of a ray v is t -> E(t v), for t >= 0; its first two
derivatives in t and the convexity threshold t0 below which the second
derivative is guaranteed positive are evaluated here.  Scalar ray
coefficients are computed once per ray; the critical-power integrals are
re-quadratured at every t (no closed form exists for fractional 2*).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import ArgumentError, MuTooLargeError
from .grid import SpectralData
from .lift import HarmonicLift
from .numutil import abs_pow, signed_pow

_BATCH_ELEMS = 4_000_000  # cap on elements of one t-batch times node count


@dataclass(frozen=True)
class Params:
    """Problem parameters (lam, mu) bound to one domain's spectral data and lift."""

    lam: float
    mu: float
    spectral: SpectralData
    lift: HarmonicLift
    mu_phi: np.ndarray = dc_field(init=False, repr=False, compare=False)  # read-only mu * phi

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ArgumentError(f"lambda must be finite and >= 0, got {self.lam}")
        if not np.isfinite(self.mu) or self.mu < 0:
            raise ArgumentError(f"mu must be finite and >= 0, got {self.mu}")
        if self.spectral.domain is not self.lift.phi.domain:
            raise ArgumentError("spectral data and lift built on different domains")
        mu_phi = self.mu * self.lift.phi.values
        mu_phi.flags.writeable = False
        object.__setattr__(self, "mu_phi", mu_phi)

    @property
    def domain(self):
        return self.lift.phi.domain

    @property
    def two_star(self):
        return self.domain.two_star

    @property
    def lambda1(self):
        return self.spectral.lambda1


def _checked(v, p: Params) -> np.ndarray:
    """The value array v, checked to have one value per interior node of p's domain."""
    v = np.asarray(v, dtype=float)
    if v.shape != (p.domain.n_interior,):
        raise ArgumentError(
            f"value array of shape {v.shape} does not match interior size {p.domain.n_interior}"
        )
    return v


def energy(v, p: Params) -> float:
    v = _checked(v, p)
    d = p.domain
    w = v + p.mu_phi
    ts = p.two_star
    return (
        0.5 * d.h1_norm_sq(v)
        - 0.5 * p.lam * d.l2_norm_sq(w)
        - d.weight * float(np.sum(abs_pow(w, ts))) / ts
    )


def gradient_values(v, p: Params) -> np.ndarray:
    """L2 representation of the gradient:
    -Lap v - lam (v + mu phi) - |v + mu phi|^(2*-2)(v + mu phi)."""
    v = _checked(v, p)
    w = v + p.mu_phi
    return p.domain.apply_neg_laplacian(v) - p.lam * w - signed_pow(w, p.two_star - 1.0)


def hessian_apply(v, h, p: Params) -> np.ndarray:
    """-Lap h - lam h - (2*-1)|v + mu phi|^(2*-2) h."""
    v, h = _checked(v, p), _checked(h, p)
    w = v + p.mu_phi
    ts = p.two_star
    out = p.domain.apply_neg_laplacian(h) - p.lam * h
    out -= (ts - 1.0) * abs_pow(w, ts - 2.0) * h
    return out


class FiberingProfile:
    """Scalar data of one fibering map t -> E(t v).

    Ray coefficients (||v||^2, ||v||_2^2, integrals against phi) are frozen at
    construction; the critical integrals are evaluated per t.
    """

    def __init__(self, v, p: Params):
        v = _checked(v, p)
        if not np.any(v):
            raise ArgumentError("fibering ray must be nonzero")
        self.v = v
        self.p = p
        ts = p.two_star
        d = p.domain
        w0 = d.weight
        phi = p.lift.phi.values
        self.a = d.h1_norm_sq(v)
        self.l2 = d.l2_norm_sq(v)
        self.phi_v = w0 * float(np.dot(phi, v))
        self.phi_l2 = d.l2_norm_sq(phi)
        self.v_crit = w0 * float(np.sum(abs_pow(v, ts)))
        self.phi_crit_v2 = w0 * float(np.dot(abs_pow(phi, ts - 2.0), v**2))
        self.sign_pairing = p.lam * p.mu * self.phi_v + p.mu ** (ts - 1.0) * w0 * float(
            np.dot(abs_pow(phi, ts - 1.0), v)
        )
        # Every ray sum is finite exactly when the ray is: a NaN or inf value
        # fails here rather than in a root bracket.
        if not np.isfinite([self.a, self.l2, self.phi_v, self.v_crit, self.phi_crit_v2]).all():
            raise ArgumentError("fibering ray contains non-finite values")
        self._t0: Optional[float] = None

    @property
    def t0(self) -> float:
        """Convexity threshold: T'' > 0 is guaranteed on (0, t0)."""
        if self._t0 is None:
            p = self.p
            ts = p.two_star
            c = (ts - 1.0) * 2.0 ** (ts - 2.0)
            num = self.a - p.lam * self.l2 - c * p.mu ** (ts - 2.0) * self.phi_crit_v2
            if num <= 0:
                raise MuTooLargeError(
                    f"mu too large for this ray: t0 numerator {num:.6e} <= 0",
                    numerator=num,
                )
            self._t0 = (num / (c * self.v_crit)) ** (1.0 / (ts - 2.0))
        return self._t0

    # -- critical integrals, evaluated per t --------------------------------

    def _batched(self, t, kernel):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        if (float(t) if scalar else tt.min()) < 0.0:
            raise ArgumentError("fibering parameter t must be >= 0")
        n = self.v.size
        out = np.empty(tt.size)
        chunk = max(1, _BATCH_ELEMS // max(n, 1))
        muphi = self.p.mu_phi
        for s in range(0, tt.size, chunk):
            block = tt[s : s + chunk, None] * self.v[None, :] + muphi[None, :]
            out[s : s + chunk] = kernel(block)
        return float(out[0]) if scalar else out

    def crit_mass(self, t):
        """int |t v + mu phi|^{2*} dx."""
        ts = self.p.two_star
        w0 = self.p.domain.weight
        return self._batched(t, lambda W: w0 * abs_pow(W, ts).sum(axis=1))

    def crit_pair_v(self, t):
        """int |t v + mu phi|^{2*-2} (t v + mu phi) v dx."""
        ts = self.p.two_star
        w0 = self.p.domain.weight
        return self._batched(
            t, lambda W: w0 * (signed_pow(W, ts - 1.0) * self.v[None, :]).sum(axis=1)
        )

    def crit_quad_v2(self, t):
        """int |t v + mu phi|^{2*-2} v^2 dx."""
        ts = self.p.two_star
        w0 = self.p.domain.weight
        v2 = self.v**2
        return self._batched(
            t, lambda W: w0 * (abs_pow(W, ts - 2.0) * v2[None, :]).sum(axis=1)
        )

    # -- fibering map and derivatives ----------------------------------------

    def T(self, t):
        p = self.p
        ts = p.two_star
        t = np.asarray(t, dtype=float)
        quad = t**2 * self.l2 + 2.0 * t * p.mu * self.phi_v + p.mu**2 * self.phi_l2
        val = 0.5 * t**2 * self.a - 0.5 * p.lam * quad - self.crit_mass(t) / ts
        return float(val) if val.ndim == 0 else val

    def dT(self, t):
        p = self.p
        t = np.asarray(t, dtype=float)
        val = t * self.a - p.lam * (t * self.l2 + p.mu * self.phi_v) - self.crit_pair_v(t)
        return float(val) if val.ndim == 0 else val

    def d2T(self, t):
        p = self.p
        ts = p.two_star
        val = self.a - p.lam * self.l2 - (ts - 1.0) * self.crit_quad_v2(t)
        if np.ndim(t) == 0:
            return float(val)
        return val
