"""Energy functional, derivatives, and fibering maps along rays.

For parameters (lam, mu) and harmonic lift phi (`lift.solve_lift`) the
energy of a field v is

    E(v) = 1/2 ||v||^2 - lam/2 ||v + mu phi||_2^2 - 1/2* ||v + mu phi||_{2*}^{2*}

with 2* the critical exponent of the dimension (`Domain.two_star`).  The
fibering map of a ray v is t -> E(t v), for t >= 0; its first two
derivatives in t and the convexity threshold t0 below which the second
derivative is guaranteed positive are evaluated here.  What depends only
on (lam, mu) and phi (mu*phi, ||phi||_2^2, E(0), the symmetry group) is a
cached property of `Params`, built once per Params; scalar ray
coefficients are computed once per ray.  The critical integrals along the
ray take one of two paths, picked by the exponent:

* even 2* (6 in N = 3, 4 in N = 4): |t v + mu phi|^(2*) is a polynomial in
  t, so one pass over the nodes gives the 2*+1 ray moments
  M_j = int v^j (mu phi)^(2*-j), and every later t costs a Horner
  evaluation of a binomial sum of them;
* any other 2* (N >= 5): the integrals are re-quadratured over all nodes at
  every t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, MuTooLargeError
from .grid import Field, SpectralData, _matches
from .numutil import abs_pow, signed_pow

_BATCH_ELEMS = 4_000_000  # cap on elements of one t-batch times node count


@dataclass(frozen=True)
class Params:
    """Problem parameters (lam, mu) bound to one domain's spectral data and
    harmonic lift phi (`lift.solve_lift`)."""

    lam: float
    mu: float
    spectral: SpectralData
    lift: Field

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ArgumentError(f"lambda must be finite and >= 0, got {self.lam}")
        if not np.isfinite(self.mu) or self.mu < 0:
            raise ArgumentError(f"mu must be finite and >= 0, got {self.mu}")
        if self.spectral.domain is not self.lift.domain:
            raise ArgumentError("spectral data and lift built on different domains")

    @property
    def domain(self):
        return self.lift.domain

    @property
    def two_star(self):
        return self.domain.two_star

    @property
    def lambda1(self):
        return self.spectral.lambda1

    @cached_property
    def mu_phi(self) -> np.ndarray:
        """mu * phi, read-only."""
        mu_phi = self.mu * self.lift.values
        mu_phi.flags.writeable = False
        return mu_phi

    @cached_property
    def phi_l2(self) -> float:
        """||phi||_2^2, the lift's term of every fibering map."""
        return self.domain.l2_norm_sq(self.lift.values)

    @cached_property
    def energy_at_zero(self) -> float:
        """E(0), the bound the certificates compare branch energies with."""
        return energy(np.zeros(self.domain.n_interior), self)

    @cached_property
    def symmetry_group(self):
        """The symmetries g of the domain (`grid.Domain.symmetries`, identity
        first) with g (mu phi) = mu phi to `grid.SYMMETRY_TOL`: the group the
        discrete problem commutes with."""
        d = self.domain
        return [g for g in d.symmetries
                if _matches(d.apply_symmetry(g, self.mu_phi), self.mu_phi)]


def _checked(v, p: Params) -> np.ndarray:
    """The value array v, checked to have one value per interior node of p's domain."""
    v = np.asarray(v, dtype=float)
    if v.shape != (p.domain.n_interior,):
        raise ArgumentError(
            f"value array of shape {v.shape} does not match interior size {p.domain.n_interior}"
        )
    return v


def energy(v, p: Params, h1_sq=None) -> float:
    """E(v); h1_sq is ||v||^2 (`Domain.h1_norm_sq`) when the caller has it."""
    v = _checked(v, p)
    d = p.domain
    w = v + p.mu_phi
    ts = p.two_star
    return (
        0.5 * (d.h1_norm_sq(v) if h1_sq is None else h1_sq)
        - 0.5 * p.lam * d.l2_norm_sq(w)
        - d.weight * float(np.sum(abs_pow(w, ts))) / ts
    )


def gradient_values(v, p: Params) -> np.ndarray:
    """L2 representation of the gradient:
    -Lap v - lam (v + mu phi) - |v + mu phi|^(2*-2)(v + mu phi)."""
    v = _checked(v, p)
    w = v + p.mu_phi
    return p.domain.apply_neg_laplacian(v) - p.lam * w - signed_pow(w, p.two_star - 1.0)


def hessian_weight(v, p: Params) -> np.ndarray:
    """c = lam + (2*-1)|v + mu phi|^(2*-2): the Hessian of E at v is -Lap - diag(c)."""
    ts = p.two_star
    return p.lam + (ts - 1.0) * abs_pow(_checked(v, p) + p.mu_phi, ts - 2.0)


def hessian_apply(v, h, p: Params) -> np.ndarray:
    """-Lap h - c h, with c the Hessian weight at v (`hessian_weight`)."""
    h = _checked(h, p)
    return p.domain.apply_neg_laplacian(h) - hessian_weight(v, p) * h


def _fibering_t(t):
    """t as a float, or as a float array of several t; every t must be finite
    and >= 0."""
    if not isinstance(t, float):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            t = float(t)
    if isinstance(t, float):
        ok = 0.0 <= t < math.inf
    else:
        ok = np.isfinite(t).all() and t.min(initial=0.0) >= 0.0
    if not ok:
        raise ArgumentError(f"fibering parameter t must be finite and >= 0, got {t}")
    return t


def _horner(coef, t):
    """sum_j coef[j] t^j, for a float t or a float array of t."""
    acc = coef[-1]
    for c in coef[-2::-1]:
        acc = acc * t + c
    return acc


class FiberingProfile:
    """Scalar data of one fibering map t -> E(t v).

    Ray coefficients (||v||^2, ||v||_2^2, integrals against phi) are
    frozen at construction; ||phi||_2^2 is the Params' own
    (`Params.phi_l2`).  For even 2* so are the ray moments
    M_j = int v^j (mu phi)^(2*-j), j = 0..2*, and each critical integral at t
    is a binomial-weighted Horner polynomial in them, pure float for a
    scalar t.  For any other 2* the critical integrals are re-quadratured at
    every t.
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
        phi = p.lift.values
        self.a = d.h1_norm_sq(v)
        self.l2 = d.l2_norm_sq(v)
        self.phi_v = w0 * float(np.dot(phi, v))
        self._c = (ts - 1.0) * 2.0 ** (ts - 2.0)
        if ts.is_integer() and int(ts) % 2 == 0:
            q = int(ts)
            # rows v^k and (mu phi)^k for k = 1..q, then
            # M_0 = int (mu phi)^q, M_j = int v^j (mu phi)^(q-j), M_q = int v^q
            vp, pp = pows = np.empty((2, q, v.size))
            vp[0], pp[0] = v, p.mu_phi
            for k in range(1, q):
                np.multiply(pows[:, k - 1], pows[:, 0], out=pows[:, k])
            inner = np.einsum("jn,jn->j", vp[:-1], pp[-2::-1])
            self.moments = w0 * np.array([pp[-1].sum(), *inner, vp[-1].sum()])
            m = self.moments.tolist()
            # coefficients in t of crit_mass, crit_pair_v and crit_quad_v2:
            # int (t v + mu phi)^(q-k) v^k = sum_j C(q-k, j) M_(j+k) t^j
            self._coef = tuple(
                [math.comb(q - k, j) * m[j + k] for j in range(q - k + 1)] for k in range(3)
            )
            self.v_crit = m[q]
            self._c_psi_v2 = self._c * m[2]
            psi_pairing = m[1]
        else:
            self.moments = self._coef = None
            self.v_crit = w0 * float(np.sum(abs_pow(v, ts)))
            phi_crit_v2 = w0 * float(np.dot(abs_pow(phi, ts - 2.0), v**2))
            # c * int |mu phi|^(2*-2) v^2, the critical term of the t0 numerator
            self._c_psi_v2 = self._c * p.mu ** (ts - 2.0) * phi_crit_v2
            psi_pairing = p.mu ** (ts - 1.0) * w0 * float(np.dot(abs_pow(phi, ts - 1.0), v))
        self.sign_pairing = p.lam * p.mu * self.phi_v + psi_pairing
        # Every ray sum is finite exactly when the ray is: a NaN or inf value
        # fails here rather than in a root bracket.
        sums = [self.a, self.l2, self.phi_v, self.v_crit, self._c_psi_v2]
        if self.moments is not None:
            sums.extend(self.moments)
        if not np.isfinite(sums).all():
            raise ArgumentError("fibering ray contains non-finite values")

    @cached_property
    def t0(self) -> float:
        """Convexity threshold: T'' > 0 is guaranteed on (0, t0)."""
        p = self.p
        num = self.a - p.lam * self.l2 - self._c_psi_v2
        if num <= 0:
            raise MuTooLargeError(
                f"mu too large for this ray: t0 numerator {num:.6e} <= 0",
                numerator=num,
            )
        return (num / (self._c * self.v_crit)) ** (1.0 / (p.two_star - 2.0))

    # -- critical integrals, evaluated per t --------------------------------

    def _critical(self, t, k, kernel):
        """Critical integral k (0: mass, 1: pair with v, 2: quadratic in v)
        at t, after checking t: the moment polynomial for even 2*, otherwise
        the quadrature of `kernel` over every node."""
        t = _fibering_t(t)
        if self._coef is not None:
            return _horner(self._coef[k], t)
        tt = np.atleast_1d(t)
        n = self.v.size
        out = np.empty(tt.size)
        chunk = max(1, _BATCH_ELEMS // max(n, 1))
        muphi = self.p.mu_phi
        for s in range(0, tt.size, chunk):
            block = tt[s : s + chunk, None] * self.v[None, :] + muphi[None, :]
            out[s : s + chunk] = kernel(block)
        return float(out[0]) if isinstance(t, float) else out

    def crit_mass(self, t):
        """int |t v + mu phi|^{2*} dx."""
        ts = self.p.two_star
        w0 = self.p.domain.weight
        return self._critical(t, 0, lambda W: w0 * abs_pow(W, ts).sum(axis=1))

    def crit_pair_v(self, t):
        """int |t v + mu phi|^{2*-2} (t v + mu phi) v dx."""
        ts = self.p.two_star
        w0 = self.p.domain.weight
        return self._critical(
            t, 1, lambda W: w0 * (signed_pow(W, ts - 1.0) * self.v[None, :]).sum(axis=1)
        )

    def crit_quad_v2(self, t):
        """int |t v + mu phi|^{2*-2} v^2 dx."""
        ts = self.p.two_star
        w0 = self.p.domain.weight
        return self._critical(
            t, 2, lambda W: w0 * (abs_pow(W, ts - 2.0) * (self.v**2)[None, :]).sum(axis=1)
        )

    # -- fibering map and derivatives ----------------------------------------
    # A scalar t gives a float, an array of t an array; every t is checked
    # to be finite and >= 0.

    def T(self, t):
        p = self.p
        t = _fibering_t(t)
        quad = t * t * self.l2 + 2.0 * t * p.mu * self.phi_v + p.mu**2 * p.phi_l2
        return 0.5 * t * t * self.a - 0.5 * p.lam * quad - self.crit_mass(t) / p.two_star

    def dT(self, t):
        p = self.p
        t = _fibering_t(t)
        return t * self.a - p.lam * (t * self.l2 + p.mu * self.phi_v) - self.crit_pair_v(t)

    def d2T(self, t):
        p = self.p
        return self.a - p.lam * self.l2 - (p.two_star - 1.0) * self.crit_quad_v2(t)
