"""Tensor-grid discretization of the domain.

Provides the discrete domain (box or annular shell satisfying the
containment condition used for multiplicity), the Dirichlet Laplacian as a
(2N+1)-point stencil, quadrature and Sobolev-type norms, the principal
Dirichlet eigenpair and a discrete best Sobolev constant.

Discrete conventions, fixed once and used everywhere:

* fields live on interior nodes only and are extended by zero (or by the
  boundary data, for the harmonic lift) on the rest of the lattice;
* the critical exponent 2* is `Domain.two_star`, computed once per domain;
  every other module reads it from there;
* quadrature weight is the constant cell volume prod(h); for functions
  vanishing on the boundary this coincides with the tensor trapezoid rule;
* the H^1_0 seminorm is ||v||^2 = <-Lap v, v>, one product with the CSR
  matrix of the stencil; by summation by parts it equals the edge sum of
  one-sided differences (the stencil's quadratic form) up to roundoff;
* `Field` lives only at the API edges: it is the type of stored and
  exchanged data (solution records, the lift, the eigenfunction, seeds and
  field dumps), an immutable checked array with no arithmetic of its own.
  The energy, fibering and manifold kernels and the `Domain` methods
  (quadrature `inner`, the norms `h1_norm_sq`, `l2_norm_sq`, `lp_norm`) take
  and return raw value arrays of length `n_interior`, and never write to
  their inputs;
* linear solves: every solve with -Lap (the Riesz lift, the harmonic lift,
  the inverse power eigensolve) goes through `Domain.solve_poisson`, exact
  on boxes, where the stencil is diagonal in the tensor sine basis (the
  sine matrix is applied along each axis by a BLAS product, and the
  eigenpair is closed-form), and CG on masked lattices.  The one exception
  is the Sobolev descent, which keeps its own inexact CG on every domain
  (see `estimate_sobolev_S`).  One Poisson preconditioner,
  `Domain.precondition`, serves the Newton polish's MINRES on every
  domain: the sine-transform solve on the bounding box of the lattice,
  restricted to the interior nodes, which on a box is the exact solve
  that `solve_poisson` returns;
* lattice symmetries: a signed axis permutation g = (P, S) (P a
  permutation of the axes, S the flipped axes) acts on a raw value array by
  zero-extending it onto the lattice, transposing the axes by P, flipping
  the axes in S and gathering the interior nodes (`Domain.apply_symmetry`);
  on points it acts by `symmetry_point`, so that a bump peaked at y maps to
  one peaked at g y.  g is a symmetry of the domain (`Domain.symmetries`)
  when it maps the interior mask onto itself and h[P[d]] == h[d] on every
  axis; it then permutes the interior nodes and commutes with the stencil
  and every norm.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field as dc_field
import numpy as np
from scipy import sparse

from .errors import ArgumentError, ConfigurationError, NumericalError
from .numutil import armijo, signed_pow, solve_cg

# Annulus realization constants: the continuum annulus r_in < |x| < r_out with
# r_in = ANNULUS_INNER_FACTOR*delta0 and r_out = ANNULUS_OUTER_FACTOR/delta0
# strictly contains the shell delta0 <= |x| <= 1/delta0 and stays clear of the
# excluded ball |x| < delta0/2.  The bounding box half-width exceeds r_out so
# the lattice hull never meets the mask.
ANNULUS_INNER_FACTOR = 0.75
ANNULUS_OUTER_FACTOR = 1.1
ANNULUS_BOX_FACTOR = 1.1

# Principal eigenpair by inverse power iteration (masked lattices): stop at
# eigen-residual EIG_TOL * lambda1, give up after EIG_MAX_OUTER iterations.
EIG_TOL = 1e-10
EIG_MAX_OUTER = 400

# Sobolev descent (see estimate_sobolev_S): outer iteration cap, relative
# stagnation test, inexact CG tolerance and the single-cell mass share past
# which an iterate counts as a lattice spike.
SOBOLEV_MAX_OUTER = 200
SOBOLEV_STAG_TOL = 1e-10
SOBOLEV_INNER_RTOL = 1e-6
SOBOLEV_SHARE_CAP = 0.25


@dataclass(frozen=True)
class Box:
    sides: tuple

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(float(s) for s in self.sides))
        if not self.sides or any(s <= 0 or not np.isfinite(s) for s in self.sides):
            raise ConfigurationError("box sides must all be strictly positive")


@dataclass(frozen=True)
class AnnulusD:
    delta0: float

    def __post_init__(self):
        d = float(self.delta0)
        object.__setattr__(self, "delta0", d)
        if not (0.0 < d < 1.0):
            raise ConfigurationError("annulus delta0 must lie in (0, 1)")


@dataclass(frozen=True)
class DomainSpec:
    shape: object  # Box or AnnulusD
    dimension: int
    resolution: int

    def __post_init__(self):
        if not isinstance(self.shape, (Box, AnnulusD)):
            raise ConfigurationError("shape must be Box(...) or AnnulusD(...)")
        if self.dimension < 3:
            raise ConfigurationError("dimension must be >= 3")
        if self.resolution < 4:
            raise ConfigurationError("resolution must be >= 4 points per axis")
        if isinstance(self.shape, Box) and len(self.shape.sides) != self.dimension:
            raise ConfigurationError(
                f"box has {len(self.shape.sides)} sides but dimension is {self.dimension}"
            )


class Domain:
    """Discretized domain: node set, interior mask, stencil wiring, quadrature.

    Immutable after construction; all public operations are pure functions of
    the stored arrays.
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        N = spec.dimension
        res = spec.resolution
        self.ndim = N
        self.two_star = 2.0 * N / (N - 2.0)  # the critical exponent 2* of dimension N
        self.lattice_shape = (res,) * N

        if isinstance(spec.shape, Box):
            sides = spec.shape.sides
            self.axes = [np.linspace(0.0, s, res) for s in sides]
        else:
            d0 = spec.shape.delta0
            self._r_in = ANNULUS_INNER_FACTOR * d0
            self._r_out = ANNULUS_OUTER_FACTOR / d0
            L = ANNULUS_BOX_FACTOR * self._r_out
            self.axes = [np.linspace(-L, L, res) for _ in range(N)]

        self.h = np.array([ax[1] - ax[0] for ax in self.axes])
        self.weight = float(np.prod(self.h))

        try:
            mesh = np.meshgrid(*self.axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
        except MemoryError:
            raise ConfigurationError(f"lattice of {res}^{N} nodes does not fit in memory") from None
        n_lattice = pts.shape[0]

        idx_nd = np.unravel_index(np.arange(n_lattice), self.lattice_shape)
        on_hull = np.zeros(n_lattice, dtype=bool)
        for d in range(N):
            on_hull |= (idx_nd[d] == 0) | (idx_nd[d] == res - 1)

        if isinstance(spec.shape, Box):
            interior = ~on_hull
        else:
            r = np.linalg.norm(pts, axis=1)
            interior = (r > self._r_in) & (r < self._r_out) & ~on_hull
            d0 = spec.shape.delta0
            across = int(np.sum((self.axes[0] >= d0) & (self.axes[0] <= 1.0 / d0)))
            if across < 3:
                raise ConfigurationError(
                    f"resolution too coarse for the annulus: only {across} axis nodes "
                    f"across the shell [{d0:g}, {1.0 / d0:g}] (need 3)"
                )

        self.interior_flat = np.flatnonzero(interior)
        self.n_interior = int(self.interior_flat.size)
        if self.n_interior == 0:
            raise ConfigurationError("domain mask has no interior nodes")
        self.interior_coords = pts[self.interior_flat]

        inv = np.full(n_lattice, -1, dtype=np.int32)  # the CSR's index type
        inv[self.interior_flat] = np.arange(self.n_interior)

        strides = np.array(
            [int(np.prod(self.lattice_shape[d + 1:])) for d in range(N)], dtype=np.int64
        )
        # Interior nodes are never on the lattice hull, so every +-step along an
        # axis lands on a lattice node.
        self.nb_plus = [inv[self.interior_flat + strides[d]] for d in range(N)]
        self.nb_minus = [inv[self.interior_flat - strides[d]] for d in range(N)]

        # Boundary = non-interior lattice nodes adjacent to an interior node.
        # Stencil edges into the boundary, per axis and side, for lift solves:
        # (axis, interior index, boundary-order index).
        edges = []
        for d in range(N):
            for sgn, nb in ((+1, self.nb_plus[d]), (-1, self.nb_minus[d])):
                miss = np.flatnonzero(nb < 0)
                edges.append((d, miss, self.interior_flat[miss] + sgn * strides[d]))
        self.boundary_flat = np.unique(np.concatenate([flat for _, _, flat in edges]))
        self.boundary_coords = pts[self.boundary_flat]
        self._boundary_edges = [
            (d, miss, np.searchsorted(self.boundary_flat, flat)) for d, miss, flat in edges
        ]

        self._matrix = None
        self._sine = None
        self._box_flat = None  # bounding-box node of each interior node
        self._symmetries = None

        if isinstance(spec.shape, AnnulusD):
            self._check_condition_d(r, interior)

    def _check_condition_d(self, r, interior):
        """The annulus mask, given the radii r of all lattice nodes, contains
        the shell delta0 <= |x| <= 1/delta0 and misses the ball |x| < delta0/2."""
        d0 = self.spec.shape.delta0
        shell = (r >= d0) & (r <= 1.0 / d0)
        if not interior[shell].all():
            raise ConfigurationError("annulus mask fails to contain the required shell")
        ball = r < 0.5 * d0
        if interior[ball].any():
            raise ConfigurationError("annulus mask intersects the excluded central ball")

    # -- linear algebra ----------------------------------------------------

    @property
    def matrix(self):
        """Sparse CSR matrix of -Lap on interior nodes (Dirichlet ghosts = 0)."""
        if self._matrix is None:
            # Assembled straight into CSR, one row per interior node with its
            # columns in increasing order (interior numbering follows the
            # lattice, so -stride_0 < ... < -1 < 0 < 1 < ... < stride_0).
            n = self.n_interior
            c = [-1.0 / h**2 for h in self.h]
            stencil = (
                [(self.nb_minus[d], c[d]) for d in range(self.ndim)]
                + [(np.arange(n), 2.0 * float(np.sum(1.0 / self.h**2)))]
                + [(self.nb_plus[d], c[d]) for d in reversed(range(self.ndim))]
            )
            cols = np.stack([nb for nb, _ in stencil], axis=1).astype(np.int32)
            keep = cols >= 0
            data = np.broadcast_to([v for _, v in stencil], cols.shape)[keep]
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(keep.sum(axis=1), out=indptr[1:])
            self._matrix = sparse.csr_matrix((data, cols[keep], indptr), shape=(n, n))
        return self._matrix

    def apply_neg_laplacian(self, values):
        return self.matrix @ values

    def _sine_basis(self):
        """(S, eig) of the lattice's bounding box (its (res-2)^N nodes off
        the hull, the interior of a box): the orthonormal sine matrix
        S[j, k] = sqrt(2/(n+1)) sin(pi (j+1) (k+1) / (n+1)), n = res - 2, that
        diagonalises the 3-point stencil on every axis, and the eigenvalues of
        -Lap on the tensor grid of sine modes.  Built once per domain."""
        if self._sine is None:
            n = self.spec.resolution - 2
            k = np.arange(1, n + 1)
            S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
            axis_eig = np.sin(0.5 * np.pi * k / (n + 1)) ** 2
            self._sine = (S, sum(np.ix_(*(4.0 / h**2 * axis_eig for h in self.h))))
        return self._sine

    def solve_poisson(self, b, x0=None, rtol=1e-8, maxiter=None, label="riesz lift"):
        """x = (-Lap)^{-1} b for a raw value array b.

        Exact on a box: the sine matrix is applied along every axis, the
        coefficients are divided by the stencil eigenvalues and the sine
        matrix is applied again.  On a masked lattice, CG from x0 to relative
        residual rtol within maxiter iterations (default 20 * n_interior) that
        raises NumericalError when it stops short.  The defaults are those of
        the Riesz lift in the descents.
        """
        if isinstance(self.spec.shape, Box):
            return self.precondition(b)
        return _cg(self.matrix, b, x0, rtol, maxiter or 20 * self.n_interior, label)

    def precondition(self, b):
        """The sine-transform solve of -Lap on the bounding box of the
        lattice (its (res-2)^N nodes off the hull), applied to the raw value
        array b zero-extended onto that box, restricted to the interior
        nodes.  On a box it is the exact solve (`solve_poisson`); on a masked
        lattice it is R^T A_box^{-1} R with R the zero extension, symmetric
        positive definite.  Either way it is one transform pair in two
        box-sized buffers; the result is gathered from (on a box, is) the
        first."""
        S, eig = self._sine_basis()
        if self._box_flat is None:
            mask = np.zeros(self.lattice_shape, dtype=bool)
            mask.flat[self.interior_flat] = True
            flat = np.flatnonzero(mask[(slice(1, -1),) * self.ndim])
            # interior nodes that fill their box are the box, in order
            self._box_flat = slice(None) if flat.size == eig.size else flat
        x, y = np.zeros(eig.shape), np.empty(eig.shape)
        x.reshape(-1)[self._box_flat] = b
        x, y = _sine_transform(S, x, y)
        x /= eig
        x, _ = _sine_transform(S, x, y)
        return x.reshape(-1)[self._box_flat]

    # -- lattice symmetries --------------------------------------------------

    @property
    def symmetries(self):
        """The signed axis permutations g = (P, S) that are symmetries of the
        domain: g maps the interior mask onto itself and keeps the spacings,
        h[P[d]] == h[d].  The identity comes first.  Found once per domain;
        only the (P, S) tuples are kept."""
        if self._symmetries is None:
            N = self.ndim
            mask = np.zeros(self.lattice_shape, dtype=bool)
            mask.flat[self.interior_flat] = True
            flips = [S for k in range(N + 1) for S in itertools.combinations(range(N), k)]
            self._symmetries = [
                (P, S) for P in itertools.permutations(range(N)) for S in flips
                if all(self.h[P[d]] == self.h[d] for d in range(N))
                and np.array_equal(_lattice_act(mask, P, S), mask)
            ]
        return self._symmetries

    def apply_symmetry(self, g, values):
        """The signed axis permutation g = (P, S) applied to a raw value
        array: zero-extended onto the lattice, axes transposed by P, the axes
        in S flipped, interior nodes gathered."""
        full = np.zeros(self.lattice_shape)
        full.flat[self.interior_flat] = values
        return _lattice_act(full, *g).ravel()[self.interior_flat]

    # -- quadrature and norms ----------------------------------------------

    def inner(self, u, v):
        return self.weight * float(np.dot(u, v))

    def l2_norm_sq(self, values):
        return self.weight * float(np.dot(values, values))

    def lp_norm(self, values, p):
        if p < 1:
            raise ArgumentError(f"lp_norm requires p >= 1, got {p}")
        return float((self.weight * np.sum(np.abs(values) ** p)) ** (1.0 / p))

    def h1_norm_sq(self, values):
        """Dirichlet energy <-Lap v, v>: one product with `matrix`.  By
        summation by parts it is the edge sum of one-sided differences, to
        roundoff."""
        return self.inner(self.matrix @ values, values)

    def gradient_direction_integral(self, values):
        """Vector integral of (x/|x|) |grad u|^2 via edge midpoints."""
        out = np.zeros(self.ndim)
        for d in range(self.ndim):
            c = self.weight / self.h[d] ** 2
            step = np.zeros(self.ndim)
            step[d] = 0.5 * self.h[d]
            nbp = self.nb_plus[d]
            vp = np.where(nbp >= 0, values[np.maximum(nbp, 0)], 0.0)
            mids = self.interior_coords + step
            norms = np.linalg.norm(mids, axis=1)
            ok = norms > 1e-12
            w = c * (vp - values) ** 2
            out += ((mids[ok] / norms[ok, None]) * w[ok, None]).sum(axis=0)
            miss = self.nb_minus[d] < 0
            if miss.any():
                mids = self.interior_coords[miss] - step
                norms = np.linalg.norm(mids, axis=1)
                ok = norms > 1e-12
                w = c * values[miss] ** 2
                out += ((mids[ok] / norms[ok, None]) * w[ok, None]).sum(axis=0)
        return out

    def __repr__(self):
        return (
            f"Domain({self.spec.shape!r}, N={self.ndim}, res={self.spec.resolution}, "
            f"interior={self.n_interior})"
        )


def _lattice_act(x, P, S):
    """The lattice array x with its axes transposed by P and the axes in S
    flipped (a view)."""
    return np.flip(np.transpose(x, P), S)


def symmetry_point(g, y):
    """The point g y of R^N, (g y)[d] = -+ y[P[d]] (minus when d is in S),
    in centred coordinates, for y of shape (..., N): `Domain.apply_symmetry`
    maps a bump peaked at y to one peaked at g y."""
    P, S = g
    gy = np.asarray(y, dtype=float)[..., list(P)]
    gy[..., list(S)] *= -1.0
    return gy


def _sine_transform(S, x, out):
    """The symmetric n x n matrix S applied along every axis of the array x
    of shape (n,) * N, by N BLAS products that alternate between the
    buffers x and out (both overwritten); returns (result, the other
    buffer).  Each product contracts the leading axis and appends the
    result as the last one, so after N of them the axes are back in order.
    No product allocates, so a solve adds no box-sized temporaries to the
    heap beyond its two buffers."""
    n = S.shape[0]
    for _ in range(x.ndim):
        np.dot(x.reshape(n, -1).T, S, out=out.reshape(-1, n))
        x, out = out, x
    return x, out


def _cg(A, b, x0, rtol, maxiter, label):
    """CG solve that raises NumericalError, with its label and relative
    residual, when it stops short of rtol."""
    x, ok = solve_cg(A, b, x0=x0, rtol=rtol, maxiter=maxiter, label=label)
    if not ok:
        resid = float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
        raise NumericalError(
            f"{label}: conjugate gradients stopped at relative residual {resid:.3e} "
            f"(rtol {rtol:g}) after {maxiter} iterations",
            residual=resid,
        )
    return x


@dataclass(frozen=True)
class Field:
    """Real grid function on the interior nodes of a domain."""

    values: np.ndarray
    domain: Domain

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.domain.n_interior,):
            raise ArgumentError(
                f"field length {v.shape} does not match interior size {self.domain.n_interior}"
            )
        if not np.all(np.isfinite(v)):
            raise ArgumentError("field contains non-finite values")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass
class SpectralData:
    """Principal eigenpair, best-quotient estimate and the per-lambda ground
    state cache for a fixed domain."""

    domain: Domain
    lambda1: float
    e1: Field
    sobolev_S: float
    ground_state_cache: dict = dc_field(default_factory=dict)

    @property
    def s_quantum(self):
        """(1/N) S^{N/2}: the compactness energy quantum of this grid."""
        N = self.domain.ndim
        return self.sobolev_S ** (N / 2.0) / N


# -- operations ------------------------------------------------------------


def build_domain(spec: DomainSpec) -> Domain:
    return Domain(spec)


def principal_eigenpair(domain: Domain):
    """Principal Dirichlet eigenpair (lambda1, e1) with e1 > 0 and ||e1||_2 = 1.

    On a box it is the closed form: the lowest stencil eigenvalue and the
    product of the first sine mode along every axis.  On a masked lattice it
    is inverse power iteration, stopped when the eigen-residual
    ||-Lap e1 - lambda1 e1||_2 < EIG_TOL * lambda1.
    """
    if isinstance(domain.spec.shape, Box):
        S, eig = domain._sine_basis()
        x = math.prod(np.ix_(*[S[:, 0]] * domain.ndim)).ravel()
        return float(eig.flat[0]), Field(x / (np.sqrt(domain.weight) * np.linalg.norm(x)), domain)
    return _inverse_power(domain, EIG_TOL, EIG_MAX_OUTER)


def _inverse_power(domain: Domain, tol: float, max_outer: int):
    """Inverse power iteration for the principal eigenpair (see
    principal_eigenpair); its inner solves run through solve_poisson."""
    A = domain.matrix
    w = domain.weight
    x = np.ones(domain.n_interior)
    x /= np.sqrt(w) * np.linalg.norm(x)
    lam = domain.inner(A @ x, x)
    z = x / lam
    for _ in range(max_outer):
        z = domain.solve_poisson(x, x0=z, rtol=1e-12, maxiter=20000, label="eigensolve")
        x = z / (np.sqrt(w) * np.linalg.norm(z))
        Ax = A @ x
        lam = domain.inner(Ax, x)
        resid = np.sqrt(w) * np.linalg.norm(Ax - lam * x)
        if resid < tol * lam:
            if np.sum(x) < 0:
                x = -x
            return float(lam), Field(x, domain)
    raise NumericalError(
        f"eigensolver did not reach tolerance {tol:g} in {max_outer} iterations",
        residual=resid,
    )


def rayleigh_quotient(domain: Domain, values, lam: float = 0.0):
    """(||u||^2 - lam ||u||_2^2) / ||u||_{2*}^2 for a raw value array."""
    num = domain.h1_norm_sq(values) - lam * domain.l2_norm_sq(values)
    den = domain.lp_norm(values, domain.two_star) ** 2
    if den == 0.0:
        raise ArgumentError("rayleigh quotient of the zero field")
    return num / den


def _default_bump(domain: Domain):
    """Smooth positive bump centered where the mask is thickest.  Raises
    ConfigurationError when it underflows to zero on every interior node (an
    elongated box at a coarse resolution)."""
    pts = domain.interior_coords
    if isinstance(domain.spec.shape, Box):
        center = np.array([0.5 * s for s in domain.spec.shape.sides])
        rho = 0.25 * min(domain.spec.shape.sides)
    else:
        r_mid = 0.5 * (domain._r_in + domain._r_out)
        center = np.zeros(domain.ndim)
        center[0] = r_mid
        rho = 0.5 * (domain._r_out - domain._r_in)
    d2 = np.sum((pts - center) ** 2, axis=1)
    bump = np.exp(-d2 / rho**2)
    if not np.any(bump):
        raise ConfigurationError(
            f"default bump underflows to zero on every interior node of {domain!r}"
        )
    return bump


def estimate_sobolev_S(domain: Domain) -> float:
    """Minimize the critical Rayleigh quotient by projected gradient descent.

    Descent direction is the Riesz lift (-Lap)^{-1} of the quotient gradient.
    Each step is the backtracking line search `numutil.armijo` with slope 0,
    so any decrease of the quotient is accepted; iterates are renormalized in
    the critical norm and the minimum quotient over the descent path is
    returned.  The descent stops when one step gains less than
    SOBOLEV_STAG_TOL relative, or after SOBOLEV_MAX_OUTER steps.

    The unconstrained discrete minimizer is a single-cell spike whose
    one-sided-difference quotient sits well below the continuum constant (a
    lattice artifact: measured limits are about 4.0 for N=3 and 6.4 for N=4
    against 5.478 and 10.260).  Iterates are therefore only scored while they
    remain grid-resolved, i.e. while no single cell carries more than
    SOBOLEV_SHARE_CAP of the critical mass; past that point the descent has
    entered the spike regime and is stopped.  The capped value sits above the
    continuum constant and decreases under refinement.
    """
    two_star = domain.two_star
    A = domain.matrix

    def peak_share(vals):
        mass = np.abs(vals) ** two_star
        tot = float(mass.sum())
        return float(mass.max()) / tot if tot > 0 else 1.0

    def renormalized(ut):
        """(quotient, ut / ||ut||_{2*}), or None when ut vanishes."""
        nt = domain.lp_norm(ut, two_star)
        if not nt > 0:
            return None
        ut = ut / nt
        return rayleigh_quotient(domain, ut), ut

    u = _default_bump(domain)
    u = u / domain.lp_norm(u, two_star)
    best = rayleigh_quotient(domain, u)

    q = best
    d_warm = None
    step = 1.0
    for _ in range(SOBOLEV_MAX_OUTER):
        # L2 gradient of the quotient at ||u||_{2*} = 1 (up to the factor 2)
        g = A @ u - q * signed_pow(u, two_star - 1.0)
        # Inexact CG on purpose, also on a box: the descent only needs a
        # direction, and the estimate is the best quotient along the path of
        # these iterates.  Exact solves move S by 2.7e-9 relative at res 25,
        # far outside the 1e-12 at which s_quantum is compared.
        d = _cg(A, g, d_warm, SOBOLEV_INNER_RTOL, 5000, "sobolev descent")
        d_warm = d
        gain = 0.0
        out = armijo(lambda beta: renormalized(u - beta * d), q, 0.0, step, 40)
        if out is not None:
            (qt, u), step = out
            gain, q = q - qt, qt
        if peak_share(u) > SOBOLEV_SHARE_CAP:
            break
        best = min(best, q)
        if gain < SOBOLEV_STAG_TOL * abs(q):
            break
    else:
        warnings.warn(
            f"sobolev estimate still descending after {SOBOLEV_MAX_OUTER} iterations",
            stacklevel=2,
        )
    return float(best)


def compute_spectral_data(domain: Domain) -> SpectralData:
    lam1, e1 = principal_eigenpair(domain)
    return SpectralData(domain=domain, lambda1=lam1, e1=e1, sobolev_S=estimate_sobolev_S(domain))


# -- field dump format -------------------------------------------------------


def dump_field(u: Field, path):
    """Text dump: header "N size_1 ... size_N", then one value per lattice
    node in row-major order (non-interior nodes as 0)."""
    d = u.domain
    full = np.zeros(int(np.prod(d.lattice_shape)))
    full[d.interior_flat] = u.values
    with open(path, "w") as f:
        f.write(" ".join(str(x) for x in (d.ndim, *d.lattice_shape)) + "\n")
        f.write(" ".join("%.17g" % x for x in full) + "\n")


def load_field(path, domain: Domain) -> Field:
    try:
        with open(path) as f:
            header = [int(s) for s in f.readline().split()]
            full = np.array([float(x) for x in f.read().split()])
    except (OSError, ValueError) as e:
        raise ArgumentError(f"{path}: unreadable field dump: {e}") from None
    if len(header) < 1:
        raise ArgumentError(f"{path}: empty field dump")
    ndim, sizes = header[0], tuple(header[1:])
    if ndim != domain.ndim or sizes != domain.lattice_shape:
        raise ArgumentError(
            f"{path}: dump lattice {ndim} {sizes} does not match domain "
            f"{domain.ndim} {domain.lattice_shape}"
        )
    if full.size != int(np.prod(domain.lattice_shape)):
        raise ArgumentError(f"{path}: expected {np.prod(domain.lattice_shape)} values")
    return Field(full[domain.interior_flat], domain)
