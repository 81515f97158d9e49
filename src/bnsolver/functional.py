"""Energy functional, derivatives, and fibering maps along rays.

For parameters (lam, mu) and harmonic lift phi (`lift.solve_lift`) the
energy of a field v is

    E(v) = 1/2 ||v||^2 - lam/2 ||v + mu phi||_2^2 - 1/2* ||v + mu phi||_{2*}^{2*}

with 2* the critical exponent of the dimension (`Domain.two_star`).  The
fibering map of a ray v is t -> E(t v), for t >= 0; its first two
derivatives in t and the convexity threshold t0 below which the second
derivative is guaranteed positive are evaluated here.  What depends only
on (lam, mu) and phi (mu*phi, ||phi||_2^2, E(0), the symmetry group, the
mirror axes that fix mu*phi, and for even 2* the powers (mu phi)^k with the
sum of (mu phi)^(2*)) is a cached property of `Params`, built once per
Params, and so is the problem on each reflection fold (`Params.folded`);
scalar ray coefficients are computed once per ray.  The critical integrals
along the ray take one of two paths, picked by the exponent:

* even 2* (6 in N = 3, 4 in N = 4): |t v + mu phi|^(2*) is a polynomial in
  t, so one pass over the nodes, the powers of v against the Params'
  powers of mu phi, gives the 2*+1 ray moments
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
from .grid import Field, SpectralData, _lattice_act, _matches, fixed_axes
from .numutil import abs_pow, signed_pow

# C(q - k, j), j = 0..q-k, one row for each k = 0, 1, 2, for the even 2* = q
# of N = 3 and 4 (2* = 2N/(N-2) is an even integer in no other dimension)
_BINOMIALS = {q: [[math.comb(q - k, j) for j in range(q - k + 1)] for k in range(3)]
              for q in (4, 6)}


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
    def lift_powers(self):
        """The rows (mu phi)^k, k = 1..2*-1, of one read-only (2*-1, n)
        array, each the previous times mu phi, for even 2* and mu > 0: the
        ray-independent half of every `FiberingProfile`'s moments.  None
        otherwise."""
        if self.mu == 0.0 or self.two_star not in _BINOMIALS:
            return None
        rows = np.empty((int(self.two_star) - 1, self.mu_phi.size))
        rows[0] = self.mu_phi
        for k in range(1, len(rows)):
            np.multiply(rows[k - 1], rows[0], out=rows[k])
        rows.flags.writeable = False
        return rows

    @cached_property
    def lift_crit_sum(self) -> float:
        """The node sum (`Domain.node_sum`) of (mu phi)^(2*), without the
        cell volume, from `lift_powers` (which must not be None)."""
        return self.domain.node_sum(self.lift_powers[-1] * self.lift_powers[0])

    @cached_property
    def phi_l2(self) -> float:
        """||phi||_2^2, the lift's term of every fibering map."""
        return self.domain.l2_norm_sq(self.lift.values)

    @cached_property
    def energy_at_zero(self) -> float:
        """E(0), the bound the certificates compare branch energies with;
        ||0||^2 = 0 is passed in, so it takes no -Lap product."""
        return energy(np.zeros(self.domain.n_interior), self, h1_sq=0.0)

    @cached_property
    def symmetry_group(self):
        """The symmetries g of the domain (`grid.Domain.symmetries`, identity
        first) with g (mu phi) = mu phi to `grid.SYMMETRY_TOL`: the group the
        discrete problem commutes with.  Each g is tested on a view of one
        lattice array of mu phi: g maps the interior nodes onto themselves,
        so this is `_matches` of `grid.Domain.apply_symmetry`."""
        d = self.domain
        full = d.lattice_array(self.mu_phi)
        return [g for g in d.symmetries if _matches(_lattice_act(full, *g), full)]

    @cached_property
    def mirror_axes(self):
        """The mirror axes of the lattice (`grid.Domain.mirror_axes`) whose
        mid-plane reflection fixes mu phi (`grid.fixed_axes`)."""
        d = self.domain
        return fixed_axes(d, d.mirror_axes, self.mu_phi)

    def folded(self, axes):
        """These parameters on the reflection fold of the lattice over
        `axes`, a tuple of `mirror_axes` (`grid.Domain.fold`), with the lift
        restricted to the fold, one gather; built on first use, once per
        tuple.  Its spectral data carry lambda1 and sobolev_S, which the
        searches read, and no e1 or Sobolev witness (None): no search on a
        fold reads them, and the convexity check restricts e1 itself."""
        folds = self._folds
        if axes not in folds:
            fold = self.domain.fold(axes)
            s = self.spectral
            folds[axes] = Params(self.lam, self.mu,
                                 SpectralData(fold, s.lambda1, None, s.sobolev_S, None),
                                 Field(fold.restrict(self.lift.values), fold))
        return folds[axes]

    @cached_property
    def _folds(self):
        return {}


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
        - d.weight * float(d.node_sum(abs_pow(w, ts))) / ts
    )


def gradient_values(v, p: Params, Av=None) -> np.ndarray:
    """L2 representation of the gradient:
    -Lap v - lam (v + mu phi) - |v + mu phi|^(2*-2)(v + mu phi); Av is
    -Lap v (`Domain.apply_neg_laplacian`) when the caller has it."""
    v = _checked(v, p)
    w = v + p.mu_phi
    if Av is None:
        Av = p.domain.apply_neg_laplacian(v)
    return Av - p.lam * w - signed_pow(w, p.two_star - 1.0)


def hessian_weight(v, p: Params) -> np.ndarray:
    """c = lam + (2*-1)|v + mu phi|^(2*-2): the Hessian of E at v is -Lap - diag(c)."""
    ts = p.two_star
    return p.lam + (ts - 1.0) * abs_pow(_checked(v, p) + p.mu_phi, ts - 2.0)


def hessian_apply(v, h, p: Params) -> np.ndarray:
    """-Lap h - c h, with c the Hessian weight at v (`hessian_weight`)."""
    h = _checked(h, p)
    return p.domain.apply_neg_laplacian(h) - hessian_weight(v, p) * h


def _fibering_t(t) -> float:
    """t as a float; t must be one finite real number >= 0."""
    if not isinstance(t, float):
        if np.ndim(t) != 0:
            raise ArgumentError(
                f"fibering parameter t must be one number, got an array of shape {np.shape(t)}")
        t = float(t)
    if not 0.0 <= t < math.inf:
        raise ArgumentError(f"fibering parameter t must be finite and >= 0, got {t}")
    return t


def _horner(coef, t):
    """sum_j coef[j] t^j for a float t."""
    acc = coef[-1]
    for c in coef[-2::-1]:
        acc = acc * t + c
    return acc


class FiberingProfile:
    """Scalar data of one fibering map t -> E(t v), evaluated at one real
    t at a time.

    Ray coefficients (||v||^2, ||v||_2^2, integrals against phi) are
    frozen at construction; ||v||^2 is `a` when the caller passes it (the
    value of `Domain.h1_norm_sq`), and ||phi||_2^2 is the Params' own
    (`Params.phi_l2`).  For even 2* so are the ray moments
    M_j = int v^j (mu phi)^(2*-j), j = 0..2*, the powers of v taken against
    `Params.lift_powers` (at mu = 0 every M_j but M_(2*) is 0), and each
    critical integral at t is a binomial-weighted Horner polynomial in
    them, pure float.  For any other 2* the critical integrals are one
    quadrature of t v + mu phi over every node at each t.  Every public
    method takes one finite t >= 0 and checks it once; anything else,
    an array included, is an ArgumentError.
    """

    def __init__(self, v, p: Params, a=None):
        v = _checked(v, p)
        if not np.any(v):
            raise ArgumentError("fibering ray must be nonzero")
        self.v = v
        self.p = p
        ts = p.two_star
        d = p.domain
        w0 = d.weight
        phi = p.lift.values
        self.a = d.h1_norm_sq(v) if a is None else a
        self.l2 = d.l2_norm_sq(v)
        self.phi_v = d.inner(phi, v)
        self._c = (ts - 1.0) * 2.0 ** (ts - 2.0)
        if ts in _BINOMIALS:
            q = int(ts)
            # rows v^k for k = 1..q against the Params' rows (mu phi)^k, then
            # M_0 = int (mu phi)^q, M_j = int v^j (mu phi)^(q-j), M_q = int v^q;
            # at mu = 0 every M_j but M_q is 0
            vp = np.empty((q, v.size))
            vp[0] = v
            for k in range(1, q):
                np.multiply(vp[k - 1], vp[0], out=vp[k])
            if p.lift_powers is None:
                lower = [0.0] * q
            else:
                lower = [p.lift_crit_sum, *d.node_dots(vp[:-1], p.lift_powers[::-1])]
            self.moments = w0 * np.array([*lower, d.node_sum(vp[-1])])
            m = self.moments.tolist()
            # coefficients in t of crit_mass, crit_pair_v and crit_quad_v2:
            # int (t v + mu phi)^(q-k) v^k = sum_j C(q-k, j) M_(j+k) t^j
            self._coef = tuple([c * m[j + k] for j, c in enumerate(row)]
                               for k, row in enumerate(_BINOMIALS[q]))
            self.v_crit = m[q]
            self._c_psi_v2 = self._c * m[2]
            psi_pairing = m[1]
        else:
            self.moments = self._coef = None
            self.v_crit = w0 * float(d.node_sum(abs_pow(v, ts)))
            phi_crit_v2 = d.inner(abs_pow(phi, ts - 2.0), v**2)
            # c * int |mu phi|^(2*-2) v^2, the critical term of the t0 numerator
            self._c_psi_v2 = self._c * p.mu ** (ts - 2.0) * phi_crit_v2
            psi_pairing = p.mu ** (ts - 1.0) * w0 * float(d.node_dot(abs_pow(phi, ts - 1.0), v))
        self.sign_pairing = p.lam * p.mu * self.phi_v + psi_pairing
        # Every ray sum is finite exactly when the ray is: a NaN or inf value
        # fails here rather than in a root bracket.
        sums = [self.a, self.l2, self.phi_v, self.v_crit, self._c_psi_v2,
                *(() if self.moments is None else self.moments)]
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

    def _critical(self, t, k):
        """Critical integral k (0: mass, 1: pair with v, 2: quadratic in v)
        at the checked float t: the Horner evaluation of the moment
        polynomial for even 2*, otherwise one quadrature of w = t v + mu phi
        over every node."""
        if self._coef is not None:
            return _horner(self._coef[k], t)
        ts = self.p.two_star
        w = t * self.v + self.p.mu_phi
        if k == 0:
            terms = abs_pow(w, ts)
        elif k == 1:
            terms = signed_pow(w, ts - 1.0) * self.v
        else:
            terms = abs_pow(w, ts - 2.0) * self.v**2
        d = self.p.domain
        return float(d.weight * d.node_sum(terms))

    def crit_mass(self, t):
        """int |t v + mu phi|^{2*} dx."""
        return self._critical(_fibering_t(t), 0)

    def crit_pair_v(self, t):
        """int |t v + mu phi|^{2*-2} (t v + mu phi) v dx."""
        return self._critical(_fibering_t(t), 1)

    def crit_quad_v2(self, t):
        """int |t v + mu phi|^{2*-2} v^2 dx."""
        return self._critical(_fibering_t(t), 2)

    # -- fibering map and derivatives ----------------------------------------

    def T(self, t):
        p = self.p
        t = _fibering_t(t)
        quad = t * t * self.l2 + 2.0 * t * p.mu * self.phi_v + p.mu**2 * p.phi_l2
        return 0.5 * t * t * self.a - 0.5 * p.lam * quad - self._critical(t, 0) / p.two_star

    def dT(self, t):
        p = self.p
        t = _fibering_t(t)
        return t * self.a - p.lam * (t * self.l2 + p.mu * self.phi_v) - self._critical(t, 1)

    def d2T(self, t):
        p = self.p
        return (self.a - p.lam * self.l2
                - (p.two_star - 1.0) * self._critical(_fibering_t(t), 2))
