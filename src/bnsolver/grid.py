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
* a field dump is one binary `.npy` file: the zero-extended float64 lattice
  array of shape `lattice_shape` (`dump_field`, `load_field`);
* the spectral data of a run is one `.npz` archive (`dump_spectral_data`):
  lambda1 and sobolev_S as 0-d float64 arrays, e1 and the Sobolev witness as
  lattice arrays in the field dump layout.  `load_spectral_data` checks the
  stored values instead of searching again: the eigenpair against the
  eigen-residual test of `principal_eigenpair`, sobolev_S against the
  quotient of its witness and of the descent's starting bump;
* linear solves: the exact solve with -Lap of the harmonic lift goes
  through `Domain.solve_poisson`, exact on boxes, where the stencil is
  diagonal in the tensor sine basis (the sine matrix is applied along each
  axis by a BLAS product), and CG on masked lattices.  The Sobolev descent
  keeps its own inexact CG on every domain (see `estimate_sobolev_S`).
  Both are setup.  One Poisson preconditioner, `Domain.precondition`,
  serves everything else on every domain: the cone descent's gradient
  lift, the MINRES of the Newton polish and the one LOBPCG eigensolver
  `lowest_eigenpair`, which finds the masked-lattice eigenpair (closed-form
  on boxes) and the Hessian eigenvalue of the convexity check.  It is the
  sine-transform solve on the bounding box of the lattice, restricted to
  the interior nodes, which on a box is the exact solve that
  `solve_poisson` returns;
* lattice symmetries: a signed axis permutation g = (P, S) (P a
  permutation of the axes, S the flipped axes) acts on a raw value array by
  zero-extending it onto the lattice, transposing the axes by P, flipping
  the axes in S and gathering the interior nodes (`Domain.apply_symmetry`);
  on points it acts by `symmetry_point`, so that a bump peaked at y maps to
  one peaked at g y.  g is a symmetry of the domain (`Domain.symmetries`)
  when it maps the interior mask onto itself and h[P[d]] == h[d] on every
  axis; it then permutes the interior nodes and commutes with the stencil
  and every norm.  g maps one value array onto another when its image of
  the first agrees with the second to SYMMETRY_TOL relative sup-norm
  (`_matches`);
* bubble profiles (`solve.make_bubble`) are evaluated in a frame and under
  a radial cutoff that depend only on the domain (`Domain.bubble_frame`),
  built on the first bubble;
* derived data are kept one way: a value that depends only on the domain
  (the stencil matrix, the sine basis, the symmetries, the bubble frame,
  the default bump) is a `functools.cached_property` of `Domain`, and one
  that depends only on (lam, mu) and the lift (mu*phi, ||phi||_2^2, E(0),
  the symmetry group) is one of `functional.Params`: built on first use,
  once per object, and never recomputed by a caller.
"""

from __future__ import annotations

import itertools
import math
import warnings
import zipfile
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import lobpcg

from .errors import ArgumentError, ConfigurationError, NumericalError
from .numutil import abs_pow, armijo, signed_pow, smoothstep, solve_cg

# Annulus realization constants: the continuum annulus r_in < |x| < r_out with
# r_in = ANNULUS_INNER_FACTOR*delta0 and r_out = ANNULUS_OUTER_FACTOR/delta0
# strictly contains the shell delta0 <= |x| <= 1/delta0 and stays clear of the
# excluded ball |x| < delta0/2.  The bounding box half-width exceeds r_out so
# the lattice hull never meets the mask.
ANNULUS_INNER_FACTOR = 0.75
ANNULUS_OUTER_FACTOR = 1.1
ANNULUS_BOX_FACTOR = 1.1

# Principal eigenpair by LOBPCG (masked lattices): accept at eigen-residual
# EIG_TOL * lambda1, give up after EIG_MAXITER iterations.
EIG_TOL = 1e-10
EIG_MAXITER = 200

# Sobolev descent (see estimate_sobolev_S): outer iteration cap, relative
# stagnation test, inexact CG tolerance and the single-cell mass share past
# which an iterate counts as a lattice spike.
SOBOLEV_MAX_OUTER = 200
SOBOLEV_STAG_TOL = 1e-10
SOBOLEV_INNER_RTOL = 1e-6
SOBOLEV_SHARE_CAP = 0.25

# Relative sup-norm within which a symmetry maps one value array onto
# another (`_matches`).
SYMMETRY_TOL = 1e-12


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

        self._interior_mask = interior.reshape(self.lattice_shape)
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

    @cached_property
    def matrix(self):
        """Sparse CSR matrix of -Lap on interior nodes (Dirichlet ghosts = 0),
        assembled on first use."""
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
        return sparse.csr_matrix((data, cols[keep], indptr), shape=(n, n))

    def apply_neg_laplacian(self, values):
        return self.matrix @ values

    @cached_property
    def _sine_basis(self):
        """(S, eig) of the lattice's bounding box (its (res-2)^N nodes off
        the hull, the interior of a box): the orthonormal sine matrix
        S[j, k] = sqrt(2/(n+1)) sin(pi (j+1) (k+1) / (n+1)), n = res - 2, that
        diagonalises the 3-point stencil on every axis, and the eigenvalues of
        -Lap on the tensor grid of sine modes."""
        n = self.spec.resolution - 2
        k = np.arange(1, n + 1)
        S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
        axis_eig = np.sin(0.5 * np.pi * k / (n + 1)) ** 2
        return S, sum(np.ix_(*(4.0 / h**2 * axis_eig for h in self.h)))

    @cached_property
    def _box_flat(self):
        """The bounding-box node of each interior node: the whole box, in
        order, when the interior nodes fill it."""
        flat = np.flatnonzero(self._interior_mask[(slice(1, -1),) * self.ndim])
        return slice(None) if flat.size == self._sine_basis[1].size else flat

    def solve_poisson(self, b, rtol=1e-8, maxiter=None, label="poisson solve"):
        """x = (-Lap)^{-1} b for a raw value array b.

        Exact on a box: the sine matrix is applied along every axis, the
        coefficients are divided by the stencil eigenvalues and the sine
        matrix is applied again.  On a masked lattice, CG from zero to
        relative residual rtol within maxiter iterations (default
        20 * n_interior) that raises NumericalError, naming `label`, when it
        stops short.  The one program caller is the harmonic lift
        (`lift.solve_lift`), which passes its own tolerance, cap and label.
        """
        if isinstance(self.spec.shape, Box):
            return self.precondition(b)
        return _cg(self.matrix, b, None, rtol, maxiter or 20 * self.n_interior, label)

    def precondition(self, b):
        """The sine-transform solve of -Lap on the bounding box of the
        lattice (its (res-2)^N nodes off the hull), applied to the raw value
        array b zero-extended onto that box, restricted to the interior
        nodes.  On a box it is the exact solve (`solve_poisson`); on a masked
        lattice it is R^T A_box^{-1} R with R the zero extension, symmetric
        positive definite.  Either way it is one transform pair in two
        box-sized buffers; the result is gathered from (on a box, is) the
        first."""
        S, eig = self._sine_basis
        x, y = np.zeros(eig.shape), np.empty(eig.shape)
        x.reshape(-1)[self._box_flat] = b
        x, y = _sine_transform(S, x, y)
        x /= eig
        x, _ = _sine_transform(S, x, y)
        return x.reshape(-1)[self._box_flat]

    # -- lattice symmetries --------------------------------------------------

    @cached_property
    def symmetries(self):
        """The signed axis permutations g = (P, S) that are symmetries of the
        domain: g maps the interior mask onto itself and keeps the spacings,
        h[P[d]] == h[d].  The identity comes first.  Only the (P, S) tuples
        are kept."""
        N = self.ndim
        mask = self._interior_mask
        flips = [S for k in range(N + 1) for S in itertools.combinations(range(N), k)]
        return [
            (P, S) for P in itertools.permutations(range(N)) for S in flips
            if all(self.h[P[d]] == self.h[d] for d in range(N))
            and np.array_equal(_lattice_act(mask, P, S), mask)
        ]

    @cached_property
    def bubble_frame(self):
        """(c, cut): the interior nodes in the frame of the bubble profiles
        (`solve.make_bubble`), one contiguous row c[k] per axis, and the
        radial cutoff those profiles are multiplied by.  The frame is the
        absolute one on the annulus and the centre-scaled one on a box (the
        unit sphere maps to the inscribed sphere).  With r the frame radius
        the cutoff ramps up over [delta0, 2 delta0], is identically one on
        [2 delta0, 1/(2 delta0)], and ramps down over [1/(2 delta0),
        1/delta0]; delta0 is the annulus' own delta0 kept below the 1/2 that
        a nonempty plateau needs, and 0.25 on a box."""
        shape = self.spec.shape
        if isinstance(shape, AnnulusD):
            pts, delta0 = self.interior_coords, min(shape.delta0, 0.45)
        else:
            center = np.array([0.5 * s for s in shape.sides])
            pts, delta0 = (self.interior_coords - center) / (0.5 * min(shape.sides)), 0.25
        r = np.linalg.norm(pts, axis=1)
        cut = smoothstep((r - delta0) / delta0)
        hi_lo = 1.0 / (2.0 * delta0)
        hi_hi = 1.0 / delta0
        cut = cut * (1.0 - smoothstep((r - hi_lo) / (hi_hi - hi_lo)))
        return pts.T.copy(), cut

    @cached_property
    def default_bump(self):
        """Smooth positive bump centered where the mask is thickest, read-only:
        the start of the Sobolev descent and of the ground state, and a probe
        ray of the mu* continuation.  Raises ConfigurationError when it
        underflows to zero on every interior node (an elongated box at a
        coarse resolution)."""
        if isinstance(self.spec.shape, Box):
            center = np.array([0.5 * s for s in self.spec.shape.sides])
            rho = 0.25 * min(self.spec.shape.sides)
        else:
            center = np.zeros(self.ndim)
            center[0] = 0.5 * (self._r_in + self._r_out)
            rho = 0.5 * (self._r_out - self._r_in)
        d2 = np.sum((self.interior_coords - center) ** 2, axis=1)
        bump = np.exp(-d2 / rho**2)
        if not np.any(bump):
            raise ConfigurationError(
                f"default bump underflows to zero on every interior node of {self!r}"
            )
        bump.flags.writeable = False
        return bump

    def apply_symmetry(self, g, values):
        """The signed axis permutation g = (P, S) applied to a raw value
        array: zero-extended onto the lattice, axes transposed by P, the axes
        in S flipped, interior nodes gathered."""
        return _lattice_act(self.lattice_array(values), *g).ravel()[self.interior_flat]

    def lattice_array(self, values):
        """The raw value array zero-extended onto the lattice (non-interior
        nodes 0), of shape `lattice_shape`."""
        full = np.zeros(self.lattice_shape)
        full.flat[self.interior_flat] = values
        return full

    # -- quadrature and norms ----------------------------------------------

    def inner(self, u, v):
        return self.weight * float(np.dot(u, v))

    def l2_norm_sq(self, values):
        return self.weight * float(np.dot(values, values))

    def l2_norm(self, values):
        """||v||_2 = sqrt(weight) * |v|, the quadrature L2 norm."""
        return float(np.sqrt(self.weight) * np.linalg.norm(values))

    def lp_norm(self, values, p):
        if p < 1:
            raise ArgumentError(f"lp_norm requires p >= 1, got {p}")
        return float((self.weight * np.sum(abs_pow(values, p))) ** (1.0 / p))

    def h1_norm_sq(self, values):
        """Dirichlet energy <-Lap v, v>: one product with `matrix`.  By
        summation by parts it is the edge sum of one-sided differences, to
        roundoff."""
        return self.inner(self.matrix @ values, values)

    def gradient_direction_integral(self, values):
        """Vector integral of (x/|x|) |grad u|^2 over the lattice edges with
        an interior end: per axis, the squared differences of the
        zero-extended values, over the radius of the edge midpoints (edges
        whose midpoint is within 1e-12 of the origin are left out),
        contracted against each axis's coordinates."""
        full = self.lattice_array(values)
        out = np.zeros(self.ndim)
        dims = list(range(self.ndim))
        for d in dims:
            coords = list(self.axes)
            coords[d] = coords[d][:-1] + 0.5 * self.h[d]  # edge midpoints
            r = np.sqrt(sum(np.ix_(*(c * c for c in coords))))
            w = (self.weight / self.h[d] ** 2) * np.diff(full, axis=d) ** 2
            q = np.divide(w, r, out=np.zeros_like(w), where=r > 1e-12)
            out += [np.einsum(q, dims, c, [k], []) for k, c in enumerate(coords)]
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


def _matches(a, b):
    """a equals b within SYMMETRY_TOL relative sup-norm."""
    return float(np.max(np.abs(a - b))) <= SYMMETRY_TOL * float(np.max(np.abs(b)))


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
    """Principal eigenpair, best-quotient estimate with its witness (the
    field whose critical Rayleigh quotient is sobolev_S) and the per-lambda
    ground state cache for a fixed domain.  A run stores all but the cache
    (`dump_spectral_data`); certify reads them back (`load_spectral_data`)."""

    domain: Domain
    lambda1: float
    e1: Field
    sobolev_S: float
    sobolev_witness: Field
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
    is `lowest_eigenpair` of -Lap from the constant field, to LOBPCG
    residual EIG_TOL times the lowest stencil eigenvalue of the bounding
    box (the masked -Lap is a principal submatrix of the box's, so that
    eigenvalue is a lower bound for lambda1), within EIG_MAXITER
    iterations.  lambda1 is the Rayleigh quotient of e1, and the pair is
    accepted only when the eigen-residual ||-Lap e1 - lambda1 e1||_2 is
    below EIG_TOL * lambda1; otherwise NumericalError with that residual.
    """
    S, eig = domain._sine_basis
    if isinstance(domain.spec.shape, Box):
        x = math.prod(np.ix_(*[S[:, 0]] * domain.ndim)).ravel()
        return float(eig.flat[0]), Field(x / domain.l2_norm(x), domain)
    A = domain.matrix
    _, x = lowest_eigenpair(domain, A, np.ones(domain.n_interior),
                            EIG_TOL * eig.flat[0], EIG_MAXITER)
    x = x / domain.l2_norm(x)
    Ax = A @ x
    lam = domain.inner(Ax, x)
    resid, converged = _eigen_residual(domain, lam, x, Ax)
    if not converged:
        raise NumericalError(
            f"eigensolve: LOBPCG stopped at eigen-residual {resid:.3e} "
            f"(tolerance {EIG_TOL * lam:.3e}) after at most {EIG_MAXITER} iterations",
            residual=resid,
        )
    if np.sum(x) < 0:
        x = -x
    return float(lam), Field(x, domain)


def lowest_eigenpair(domain: Domain, op, x0, tol, maxiter, B=None):
    """(sigma, x), the lowest eigenpair of op x = sigma B x (B = I when
    None) by LOBPCG from the raw array x0, preconditioned by
    `Domain.precondition`: it stops once the residual ||op x - sigma B x||_2
    of the B-normalized x is below tol, or after maxiter iterations.
    LOBPCG's warning on a stop short of tol is silenced; the caller judges
    the pair."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        vals, X = lobpcg(op, x0[:, None], B=B, M=lambda R: domain.precondition(R.ravel())[:, None],
                         tol=tol, maxiter=maxiter, largest=False)
    return float(vals[0]), X[:, 0]


def _eigen_residual(domain: Domain, lam, x, Ax):
    """The acceptance test of a candidate principal pair (lam, x) with
    ||x||_2 = 1, given Ax = -Lap x: (the eigen-residual ||Ax - lam x||_2,
    whether it is below EIG_TOL * lam)."""
    resid = domain.l2_norm(Ax - lam * x)
    return resid, bool(resid < EIG_TOL * lam)


def rayleigh_quotient(domain: Domain, values, lam: float = 0.0):
    """(||u||^2 - lam ||u||_2^2) / ||u||_{2*}^2 for a raw value array."""
    num = domain.h1_norm_sq(values) - lam * domain.l2_norm_sq(values)
    den = domain.lp_norm(values, domain.two_star) ** 2
    if den == 0.0:
        raise ArgumentError("rayleigh quotient of the zero field")
    return num / den


def _renormalized(domain: Domain, ut):
    """(critical Rayleigh quotient, ut / ||ut||_{2*}), or None when ut
    vanishes."""
    nt = domain.lp_norm(ut, domain.two_star)
    if not nt > 0:
        return None
    ut = ut / nt
    return rayleigh_quotient(domain, ut), ut


def estimate_sobolev_S(domain: Domain):
    """Minimize the critical Rayleigh quotient by projected gradient descent;
    returns (S, witness), the minimum quotient and the Field that attains
    it: the normalized default bump the descent starts from, or the
    accepted iterate that set the minimum.

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

    best, u = _renormalized(domain, domain.default_bump)
    witness = u

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
        out = armijo(lambda beta: _renormalized(domain, u - beta * d), q, 0.0, step, 40)
        if out is not None:
            (qt, u), step = out
            gain, q = q - qt, qt
        if peak_share(u) > SOBOLEV_SHARE_CAP:
            break
        if q < best:
            best, witness = q, u
        if gain < SOBOLEV_STAG_TOL * abs(q):
            break
    else:
        warnings.warn(
            f"sobolev estimate still descending after {SOBOLEV_MAX_OUTER} iterations",
            stacklevel=2,
        )
    return float(best), Field(witness, domain)


def compute_spectral_data(domain: Domain) -> SpectralData:
    lam1, e1 = principal_eigenpair(domain)
    S, witness = estimate_sobolev_S(domain)
    return SpectralData(domain=domain, lambda1=lam1, e1=e1, sobolev_S=S, sobolev_witness=witness)


# -- field dumps --------------------------------------------------------------

# Members of the spectral data archive (`dump_spectral_data`), named after the
# SpectralData attributes they hold: two 0-d float64 arrays and two lattice
# arrays.
_SPECTRAL_SCALARS = ("lambda1", "sobolev_S")
_SPECTRAL_FIELDS = ("e1", "sobolev_witness")


def _lattice_field(full, domain: Domain, where) -> Field:
    """The field of the lattice array `full` read from `where` (a path, with
    the archive member if any).  ArgumentError, naming `where`, when it is
    not float64, not of shape `domain.lattice_shape` or not finite on the
    interior nodes."""
    if full.dtype != np.float64:
        raise ArgumentError(f"{where}: field dump of dtype {full.dtype}, not float64")
    if full.shape != domain.lattice_shape:
        raise ArgumentError(
            f"{where}: dump lattice {full.shape} does not match domain {domain.lattice_shape}"
        )
    try:
        return Field(full.ravel()[domain.interior_flat], domain)
    except ArgumentError as e:  # non-finite values
        raise ArgumentError(f"{where}: {e}") from None


def dump_field(u: Field, path):
    """Binary dump: the zero-extended lattice array of u (non-interior nodes
    0), of shape `lattice_shape`, as one float64 `.npy` array."""
    with open(path, "wb") as f:
        np.save(f, u.domain.lattice_array(u.values), allow_pickle=False)


def load_field(path, domain: Domain) -> Field:
    """The field of a `dump_field` dump on this domain.  ArgumentError,
    naming the path, when the file is not a readable `.npy` array (empty,
    truncated, text or pickled), not float64, not of shape
    `domain.lattice_shape` or not finite on the interior nodes."""
    try:
        with open(path, "rb") as f:
            full = np.lib.format.read_array(f, allow_pickle=False)
    except (OSError, ValueError, EOFError) as e:
        raise ArgumentError(f"{path}: not a readable .npy field dump: {e}") from None
    return _lattice_field(full, domain, path)


def dump_spectral_data(spectral: SpectralData, path):
    """One `.npz` archive (readable by `np.load`) of what the setup searches
    found: `lambda1` and `sobolev_S` as 0-d float64 arrays, `e1` and
    `sobolev_witness` as zero-extended lattice arrays in the layout of
    `dump_field`.  The members carry the fixed zip timestamp of 1980, so a
    rerun writes the same bytes."""
    arrays = {name: np.array(getattr(spectral, name), dtype=np.float64)
              for name in _SPECTRAL_SCALARS}
    arrays.update((name, spectral.domain.lattice_array(getattr(spectral, name).values))
                  for name in _SPECTRAL_FIELDS)
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in arrays.items():
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w") as f:
                np.lib.format.write_array(f, array, allow_pickle=False)


def load_spectral_data(path, domain: Domain) -> SpectralData:
    """The spectral data of a `dump_spectral_data` archive on this domain,
    checked instead of recomputed, each test at the cost of one product
    with -Lap:

    * (lambda1, e1) passes the eigen-residual test of `principal_eigenpair`
      ||-Lap e1 - lambda1 e1||_2 < EIG_TOL * lambda1, with sum(e1) > 0 and
      ||e1||_2 = 1 to 1e-12;
    * the critical Rayleigh quotient of sobolev_witness is sobolev_S to
      1e-12 relative, and sobolev_S is at most the quotient of the default
      bump that the Sobolev descent starts from, with the same slack.

    A stored value cannot be looser than the setup's starting point, but one
    between the true estimate and the bump's quotient, with a matching
    witness, passes: the archive is trusted as the run's config.ini and field
    dumps are.  ArgumentError, naming the path, when the file is not a
    readable archive of the four float64 arrays (each lattice array checked
    as `load_field` checks a dump) or fails a test."""
    arrays = {}
    try:
        with zipfile.ZipFile(path) as zf:
            for name in _SPECTRAL_SCALARS + _SPECTRAL_FIELDS:
                with zf.open(f"{name}.npy") as f:
                    arrays[name] = np.lib.format.read_array(f, allow_pickle=False)
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile) as e:
        raise ArgumentError(f"{path}: not a readable spectral data archive: {e}") from None
    for name in _SPECTRAL_SCALARS:
        x = arrays[name]
        if x.dtype != np.float64 or x.shape != () or not np.isfinite(x):
            raise ArgumentError(f"{path}: {name} is not a finite 0-d float64 array")
    lam1, S = float(arrays["lambda1"]), float(arrays["sobolev_S"])
    e1, witness = (_lattice_field(arrays[name], domain, f"{path}: {name}")
                   for name in _SPECTRAL_FIELDS)

    resid, converged = _eigen_residual(domain, lam1, e1.values, domain.matrix @ e1.values)
    norm = math.sqrt(domain.l2_norm_sq(e1.values))
    if not (converged and np.sum(e1.values) > 0 and abs(norm - 1.0) <= 1e-12):
        raise ArgumentError(
            f"{path}: (lambda1, e1) is not a normalized positive eigenpair: eigen-residual "
            f"{resid:.3e} (tolerance {EIG_TOL * lam1:.3e}), sum {np.sum(e1.values):.6g}, "
            f"norm {norm!r}"
        )
    try:
        q = rayleigh_quotient(domain, witness.values)
    except ArgumentError as e:  # the zero field
        raise ArgumentError(f"{path}: sobolev_witness: {e}") from None
    if not abs(q - S) <= 1e-12 * abs(S):
        raise ArgumentError(
            f"{path}: sobolev_S is not the quotient of its witness ({S!r} against {q!r})")
    q_bump, _ = _renormalized(domain, domain.default_bump)
    if not S <= q_bump + 1e-12 * q_bump:
        raise ArgumentError(
            f"{path}: sobolev_S is above the default bump's quotient ({S!r} against {q_bump!r})")
    return SpectralData(domain=domain, lambda1=lam1, e1=e1, sobolev_S=S,
                        sobolev_witness=witness)
