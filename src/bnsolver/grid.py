"""Tensor-grid discretization of the domain.

Provides the discrete domain (box or annular shell satisfying the
containment condition used for multiplicity), the Dirichlet Laplacian as a
(2N+1)-point stencil, quadrature and Sobolev-type norms, the principal
Dirichlet eigenpair and a discrete best Sobolev constant.

Discrete conventions, fixed once and used everywhere:

* the lattice is res^N nodes, at most the int32 range that the CSR indices
  address (`DomainSpec` checks it before anything is allocated), and is
  never stored as a coordinate table: the interior mask is a boolean
  lattice array (the block off the hull, on the annulus cut by |x| summed
  from the squared axes), the interior and boundary nodes are the flat
  indices of a mask, so they come out sorted and unique, and only their
  coordinates are gathered from the axes;
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
  array of shape `lattice_shape` (`dump_field`, `load_field`); a run stores
  its solution records and its harmonic lift in this layout;
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
  keeps its own inexact CG on every domain, on a box in sine coordinates,
  where -Lap is diagonal (see `estimate_sobolev_S`).
  Both are setup: `bnsolver certify` checks the run's stored spectral data
  and lift instead (`load_spectral_data`, `lift.load_lift`) and solves
  nothing.  On a masked lattice the set-up's three Krylov solves (the
  eigenpair's LOBPCG, the descent's CG and the lift's CG) run on the
  reflection fold over the mirror axes that fix their data (`fold_axes`),
  in the fold's weighted coordinates (`Fold.symmetric`), and their results
  are unfolded; every acceptance test stays on the lattice.  One Poisson
  preconditioner, `Domain.precondition`,
  serves everything else on every domain: the cone descent's gradient
  lift, the MINRES of the Newton polish and the one eigensolver
  `lowest_eigenpair`, a single-vector LOBPCG on raw arrays (one 3x3
  Rayleigh-Ritz step per iteration, by Cholesky and `eigh` of
  numpy.linalg), which finds the masked-lattice
  eigenpair (closed-form on boxes) and the Hessian eigenvalue of the
  convexity check.  The preconditioner is the sine-transform solve on
  the bounding box of the lattice, restricted to the interior nodes, which
  on a box is the exact solve that `solve_poisson` returns;
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
* reflection folds (`Domain.fold(axes)`, a `Fold`): the mirror axes
  (`Domain.mirror_axes`) are those whose mid-plane reflection maps the
  interior mask onto itself (`Domain.reflect` applies one, an int32
  gather).  For any tuple of them, the fields those reflections fix are
  carried by the nodes of box index n//2 and up on each folded axis and
  every box index on the others, so each folded axis halves the unknowns.
  A fold is a `Domain` with its own nodes, -Lap (the mirror stencil along a
  folded axis, the plain one along the others) and sine data (the odd sine
  modes along a folded axis, the full sine matrix along the others), whose
  node-sum kernels (`node_sum`, `node_dot`, `node_dots`) and residual
  weighting (`weigh`) count each node by its orbit size `Fold.mult`; every
  quadrature formula, the CSR compression of the stencil (`_stencil_csr`)
  and the transform pair of the preconditioner are written once and
  shared.  `restrict` and `unfold` move a field between the lattice and the
  fold, and the fold keeps no reference to its lattice.  `fixed_axes`
  picks the axes whose reflection fixes given data, with the fold's
  round trip as the gate, and `fold_axes` adds the node-count floor
  FOLD_MIN_NODES: the one gate of the set-up solves, the branch searches
  and the convexity check.  CG and LOBPCG, whose steps take plain dot
  products, run on a fold in the coordinates y = sqrt(mult) x
  (`Fold.symmetric`, `Fold.root_mult`), where those products are the
  lattice's, so they take the lattice's iterations on mirror-symmetric
  data;
* bubble profiles (`solve.make_bubble`) are evaluated in a frame and under
  a radial cutoff that depend only on the domain (`Domain.bubble_frame`),
  built on the first bubble;
* derived data are kept one way: a value that depends only on the domain
  (the stencil matrix, the sine basis, the symmetries, the mirror axes and
  their reflection tables, the bubble frame, the default bump) is a
  `functools.cached_property` of `Domain`, and one that depends only on
  (lam, mu) and the lift (mu*phi, ||phi||_2^2, E(0), the symmetry group,
  the mirror axes that fix mu*phi) is one of `functional.Params`: built on
  first use, once per object, and never recomputed by a caller.  The
  reflection folds of a domain, and the problem on each of them, are kept
  the same way, once per tuple of axes.
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

# Lattices with fewer interior nodes solve unfolded (`fold_axes`): the fold
# saves work in proportion to the lattice, while its Params, the data check
# and the record's rebuild on the lattice cost a fixed time per solve.  On
# the bench mu-star-sweep config (2-core VM, one BLAS thread) folding the
# branch searches ran 7% slower on a res-9 cube (343 nodes), 2% slower at
# res 10 (512), 2% faster at res 11 (729), 7% faster at res 12 (1000) and
# 15-20% faster at res 13 (1331).  A fold over one axis pays at the floor
# too: on a res-12 cube with boundary data peaked along (1, 1, 0), which
# only the third axis's reflection fixes, the Plus, ground-state and Minus
# solves took 4.18 ms on the 500-node fold against 4.50 ms unfolded (same
# VM, medians of 15).
FOLD_MIN_NODES = 1000


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
        n_lattice = self.resolution ** self.dimension
        if n_lattice > np.iinfo(np.int32).max:  # the CSR's index type
            raise ConfigurationError(
                f"lattice of {self.resolution}^{self.dimension} nodes ({n_lattice:.3g}) "
                f"exceeds the {np.iinfo(np.int32).max} nodes that int32 indices address"
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
            across = int(np.sum((self.axes[0] >= d0) & (self.axes[0] <= 1.0 / d0)))
            if across < 3:
                raise ConfigurationError(
                    f"resolution too coarse for the annulus: only {across} axis nodes "
                    f"across the shell [{d0:g}, {1.0 / d0:g}] (need 3)"
                )

        self.h = np.array([ax[1] - ax[0] for ax in self.axes])
        self.weight = float(np.prod(self.h))

        # The interior mask as a lattice array: the block off the hull, on the
        # annulus cut to r_in < |x| < r_out.  |x|^2 sums the squared axes in
        # axis order, the order of np.linalg.norm over a row of coordinates.
        inner = (slice(1, -1),) * N
        try:
            mask = np.zeros(self.lattice_shape, dtype=bool)
            if isinstance(spec.shape, Box):
                mask[inner] = True
            else:
                r = np.sqrt(sum(np.ix_(*(ax * ax for ax in self.axes))))
                mask[inner] = (r[inner] > self._r_in) & (r[inner] < self._r_out)
        except MemoryError:
            raise ConfigurationError(f"lattice of {res}^{N} nodes does not fit in memory") from None

        self._interior_mask = mask
        self.interior_flat = np.flatnonzero(mask)
        self.n_interior = int(self.interior_flat.size)
        if self.n_interior == 0:
            raise ConfigurationError("domain mask has no interior nodes")
        self.interior_coords = self._coords(self.interior_flat)

        inv = np.full(mask.size, -1, dtype=np.int32)  # the CSR's index type
        inv[self.interior_flat] = np.arange(self.n_interior)

        strides = np.array(
            [int(np.prod(self.lattice_shape[d + 1:])) for d in range(N)], dtype=np.int64
        )
        # Interior nodes are never on the lattice hull, so every +-step along an
        # axis lands on a lattice node.
        self.nb_plus = [inv[self.interior_flat + strides[d]] for d in range(N)]
        self.nb_minus = [inv[self.interior_flat - strides[d]] for d in range(N)]

        # Boundary = non-interior lattice nodes adjacent to an interior node,
        # marked on the lattice, so its flat indices come out sorted and
        # unique and the running count of marks numbers them.  Stencil edges
        # into the boundary, per axis and side, for lift solves:
        # (axis, interior index, boundary-order index).
        edges = []
        on_boundary = np.zeros(mask.size, dtype=bool)
        for d in range(N):
            for sgn, nb in ((+1, self.nb_plus[d]), (-1, self.nb_minus[d])):
                miss = np.flatnonzero(nb < 0)
                flat = self.interior_flat[miss] + sgn * strides[d]
                on_boundary[flat] = True
                edges.append((d, miss, flat))
        self.boundary_flat = np.flatnonzero(on_boundary)
        self.boundary_coords = self._coords(self.boundary_flat)
        order = np.cumsum(on_boundary) - 1
        self._boundary_edges = [(d, miss, order[flat]) for d, miss, flat in edges]

        if isinstance(spec.shape, AnnulusD):
            self._check_condition_d(r, mask)

    def _coords(self, flat):
        """The lattice points of the flat node indices `flat`, one row each."""
        idx = np.unravel_index(flat, self.lattice_shape)
        return np.stack([ax[i] for ax, i in zip(self.axes, idx)], axis=1)

    def _check_condition_d(self, r, interior):
        """The annulus mask, given the radii r of the lattice nodes (both
        lattice arrays), contains the shell delta0 <= |x| <= 1/delta0 and
        misses the ball |x| < delta0/2."""
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
        assembled on first use from the neighbour tables (`_stencil_csr`)."""
        c = [-1.0 / h**2 for h in self.h]
        return _stencil_csr(self.nb_minus, self.nb_plus,
                            [*c, 2.0 * float(np.sum(1.0 / self.h**2)), *reversed(c)])

    def apply_neg_laplacian(self, values):
        return self.matrix @ values

    @cached_property
    def _sine_basis(self):
        """(S, eig) of the lattice's bounding box (its (res-2)^N nodes off
        the hull, the interior of a box): S holds one orthonormal sine
        matrix per axis, the same S[j, k] = sqrt(2/(n+1)) sin(pi (j+1) (k+1)
        / (n+1)), n = res - 2, on each, which diagonalises the 3-point
        stencil, and eig the eigenvalues of -Lap on the tensor grid of sine
        modes."""
        n = self.spec.resolution - 2
        k = np.arange(1, n + 1)
        S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
        axis_eig = np.sin(0.5 * np.pi * k / (n + 1)) ** 2
        return (S,) * self.ndim, sum(np.ix_(*(4.0 / h**2 * axis_eig for h in self.h)))

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
        stops short; on the fold over the mirror axes whose reflection fixes
        b (`_setup_fold`), in its weighted coordinates (`Fold.symmetric`),
        where it takes the lattice's iterations, when there are such axes.
        The one program caller is the harmonic lift (`lift.solve_lift`),
        which passes its own tolerance, cap and label.
        """
        if isinstance(self.spec.shape, Box):
            return self.precondition(b)
        maxiter = maxiter or 20 * self.n_interior
        fold = _setup_fold(self, b)
        if fold is None:
            return _cg(self.matrix.dot, b, None, rtol, maxiter, label)
        r = fold.root_mult
        y = _cg(fold.symmetric(fold.matrix.dot), r * fold.restrict(b), None, rtol, maxiter, label)
        return fold.unfold(y / r)

    def precondition(self, b):
        """The sine-transform solve of -Lap on the bounding box of the
        lattice (its (res-2)^N nodes off the hull), applied to the raw value
        array b zero-extended onto that box, restricted to the interior
        nodes.  On a box it is the exact solve (`solve_poisson`); on a masked
        lattice it is R^T A_box^{-1} R with R the zero extension, symmetric
        positive definite.  Either way it is one transform pair in two
        box-sized buffers, into the modes by `_sine_basis` and back by
        `_sine_inverse`; the result is gathered from (on a box, is) the
        first.  On a lattice, whose nodes all weigh one, it is also
        `weighted_precondition`, the preconditioner of a residual weighted
        by `weigh`."""
        S, eig = self._sine_basis
        x, y = np.zeros(eig.shape), np.empty(eig.shape)
        x.reshape(-1)[self._box_flat] = b
        x, y = _sine_transform(S, x, y)
        x /= eig
        x, _ = _sine_transform(self._sine_inverse, x, y)
        return x.reshape(-1)[self._box_flat]

    weighted_precondition = precondition

    @cached_property
    def _sine_inverse(self):
        """The matrices, one per axis, that take the sine coefficients of
        `_sine_basis` back to node values: on the bounding box the sine
        matrices themselves, symmetric and orthogonal."""
        return self._sine_basis[0]

    @cached_property
    def mirror_axes(self):
        """The axes whose mid-plane reflection maps the interior mask onto
        itself, in increasing order."""
        mask = self._interior_mask
        return tuple(a for a in range(self.ndim) if np.array_equal(np.flip(mask, a), mask))

    def fold(self, axes):
        """The reflection fold of the lattice over `axes`, an increasing
        tuple of its mirror axes (`Fold`).  Built on the first solve folded
        over those axes or the first gate that tries them (`fixed_axes`),
        not by `build_domain`: on a masked lattice past FOLD_MIN_NODES that
        is the set-up (`principal_eigenpair`, `estimate_sobolev_S`, the
        lift's `solve_poisson`).  Kept per tuple."""
        if not set(axes) <= set(self.mirror_axes):
            raise ArgumentError(f"axes {axes} are not among the mirror axes "
                                f"{self.mirror_axes} of {self!r}")
        folds = self._folds
        if axes not in folds:
            folds[axes] = Fold(self, axes)
        return folds[axes]

    @cached_property
    def _folds(self):
        return {}

    def reflect(self, a, values):
        """The mid-plane reflection of the mirror axis a applied to a raw
        value array: one int32 gather, `apply_symmetry` of the reflection
        bit for bit."""
        return values[self._reflections[a]]

    @cached_property
    def _reflections(self):
        """For each mirror axis, the interior index of the mirror image of
        every interior node (int32), built on the first `reflect`."""
        inv = np.full(self.lattice_shape, -1, dtype=np.int32)
        inv.flat[self.interior_flat] = np.arange(self.n_interior)
        return {a: np.flip(inv, a).ravel()[self.interior_flat] for a in self.mirror_axes}

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
        x = self.interior_coords
        d2 = (x[:, 0] - center[0]) ** 2
        for k in range(1, self.ndim):
            d2 += (x[:, k] - center[k]) ** 2
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
    #
    # Every node sum of the quadrature is one of the kernels node_sum (of x),
    # node_dot (of x y) and node_dots (of each row product X[j] Y[j]), and a
    # residual is weighted by weigh: a lattice node is one cell, so the first
    # two are numpy's own sums, called with no frame of ours, and weigh is
    # the identity.  A `Fold` weights each of its nodes by its orbit size.

    node_sum = staticmethod(np.sum)
    node_dot = staticmethod(np.dot)

    @staticmethod
    def node_dots(X, Y):
        return np.einsum("jn,jn->j", X, Y)

    @staticmethod
    def weigh(x):
        return x

    def inner(self, u, v):
        return self.weight * float(self.node_dot(u, v))

    def l2_norm_sq(self, values):
        return self.weight * float(self.node_dot(values, values))

    def l2_norm(self, values):
        """||v||_2 = sqrt(weight) * sqrt(<v, v>), the quadrature L2 norm (on
        a lattice sqrt(weight) * np.linalg.norm(v), bit for bit)."""
        return float(np.sqrt(self.weight) * np.sqrt(self.node_dot(values, values)))

    def lp_norm(self, values, p):
        if p < 1:
            raise ArgumentError(f"lp_norm requires p >= 1, got {p}")
        return float((self.weight * self.node_sum(abs_pow(values, p))) ** (1.0 / p))

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


class Fold(Domain):
    """The reflection fold of a lattice over some of its mirror axes
    (`Domain.mirror_axes`, `folded_axes` here): its interior nodes with box
    index at least n//2 on each folded axis and any box index on the others
    (n = res - 2 box nodes per axis), the unknowns of a field that each
    folded axis's mid-plane reflection fixes.  Along a folded axis fold node
    k is box node n//2 + k; its orbit under that reflection has 2 nodes,
    except the mid-plane node of an odd n, which is its own mirror.  Along
    an unfolded axis fold node k is box node k.  `mult`, the product of the
    per-axis orbit sizes (1 or 2, so mult * x is exact), weights each fold
    node in every node sum, so the quadrature of a folded field is that of
    its unfolding; `root_mult` = sqrt(mult) carries the Krylov solves of a
    fold in coordinates where the plain dot products are the lattice's
    (`symmetric`).

    A fold is a `Domain` that differs from its lattice only in its nodes,
    its -Lap (`matrix`), its sine data (`_sine_basis`, `_sine_inverse`,
    `_box_flat`) and the node-sum kernels, which weight each node by `mult`;
    the quadrature, the -Lap product and the transform pair of the
    preconditioner are `Domain`'s own methods.  It has no lattice mask,
    spec or axes, so the lattice-only queries (`symmetries`,
    `bubble_frame`, `mirror_axes`, `fold`, `reflect` and the rest) raise
    AttributeError.  It keeps no reference to its lattice, so dropping the
    lattice frees it at once.
    """

    def __init__(self, domain: Domain, axes):  # built from its lattice, not by Domain's
        N = domain.ndim
        self.folded_axes = axes
        self.two_star, self.weight = domain.two_star, domain.weight
        box = domain._interior_mask[(slice(1, -1),) * N]
        n = box.shape[0]
        half, odd = n // 2, n % 2
        first = [half if a in axes else 0 for a in range(N)]  # the first box index kept
        shape = tuple(n - f for f in first)
        keep = tuple(slice(f, None) for f in first)
        flat = np.flatnonzero(box[keep])
        nf = self.n_interior = int(flat.size)
        inv = np.full(math.prod(shape), -1, dtype=np.int32)  # the CSR's index type
        inv[flat] = np.arange(nf)
        k = np.unravel_index(flat, shape)

        # -Lap on the fold, by `_stencil_csr` as `Domain.matrix` is: along a
        # folded axis the minus neighbour of k = 0 is the mirror image of box
        # node n//2 - 1, the plus neighbour k = 1 on an odd n (that entry
        # doubles) and the node itself on an even n (the entry lands on the
        # diagonal); along an unfolded axis the stencil is the lattice's.
        c = [-1.0 / h**2 for h in domain.h]
        diag = np.full(nf, 2.0 * float(np.sum(1.0 / domain.h**2)))
        minus, plus, c_minus, c_plus = [], [], [], []
        mult = np.ones(nf)
        for a in range(N):
            stride = math.prod(shape[a + 1:])
            low, last = k[a] == 0, k[a] == shape[a] - 1
            minus.append(np.where(low, -1, inv[flat - stride * ~low]))
            plus.append(np.where(last, -1, inv[flat + stride * ~last]))
            c_minus.append(np.full(nf, c[a]))
            c_plus.append(np.full(nf, c[a]))
            if a in axes and odd:
                c_plus[a][low] *= 2.0
                mult[~low] *= 2.0
            elif a in axes:
                diag[low] += c[a]
                mult *= 2.0
        self.mult = mult
        self.root_mult = np.sqrt(mult)
        # diag(mult) matrix is symmetric: -Lap in the weighted inner product
        self.matrix = _stencil_csr(minus, plus,
                                   np.stack([*c_minus, diag, *reversed(c_plus)], axis=1))

        # restrict: the interior index of each fold node; unfold: the fold
        # node of each interior node, its mirror image max(j, n-1-j) along
        # each folded axis
        interior = np.full(n**N, -1, dtype=np.int64)
        interior[domain._box_flat] = np.arange(domain.n_interior)
        self._restrict = interior.reshape((n,) * N)[keep].ravel()[flat]
        j = np.arange(n)
        image = [np.maximum(j, n - 1 - j) - half if a in axes else j for a in range(N)]
        self._unfold = inv.reshape(shape)[np.ix_(*image)].ravel()[domain._box_flat]

        # along a folded axis the odd (mirror-symmetric) sine modes, on the
        # fold's half of the axis, with their stencil eigenvalues, and the
        # way back; along an unfolded axis the lattice's sine matrix
        S, eig = domain._sine_basis
        sine = np.ascontiguousarray(S[0][half:, 0::2])
        back = np.ascontiguousarray(sine.T)
        modes = tuple(slice(None, None, 2 if a in axes else 1) for a in range(N))
        self._sine_basis = (tuple(sine if a in axes else S[a] for a in range(N)),
                            np.ascontiguousarray(eig[modes]))
        self._sine_inverse = tuple(back if a in axes else S[a] for a in range(N))
        self._box_flat = slice(None) if nf == inv.size else flat

    def __repr__(self):
        return f"Fold(folded_axes={self.folded_axes}, interior={self.n_interior})"

    # -- the node-sum kernels of `Domain`, each node weighted by its orbit size

    def node_sum(self, x):
        return np.dot(self.mult, x)

    def node_dot(self, x, y):
        return np.dot(self.mult * x, y)

    def node_dots(self, X, Y):
        return np.einsum("jn,jn,n->j", X, Y, self.mult)

    def weigh(self, x):
        return self.mult * x

    def precondition(self, b):
        """`Domain.precondition` restricted to mirror-symmetric fields: the
        odd sine modes of each axis carry them, so mult * b, zero-extended
        onto the fold's half of the bounding box, is transformed by those
        modes, divided by their eigenvalues and transformed back
        (`weighted_precondition`, precondition(r / mult): the
        preconditioner of diag(mult) -Lap, whose inverse it is on a box).
        Exact on a box."""
        return self.weighted_precondition(self.mult * b)

    def symmetric(self, op):
        """The map y -> root_mult * op(y / root_mult) of the coordinates
        y = root_mult * x of the fold values x, for a map op of fold values
        that is symmetric in the fold's weighted inner product <mult x, z>
        (`matrix`, `precondition`, and the Hessian, -Lap - diag(c)): it is
        symmetric in the plain one, and the plain dot products and norms of
        y are the lattice's of the unfolded fields.  So CG and LOBPCG, run
        on y, take the lattice's steps and stop tests on mirror-symmetric
        data."""
        r = self.root_mult
        return lambda y: r * op(y / r)

    def restrict(self, values):
        """The fold's values of a raw value array of the lattice."""
        return values[self._restrict]

    def unfold(self, values):
        """The mirror-symmetric lattice array whose fold values are these."""
        return values[self._unfold]


def _stencil_csr(minus, plus, values):
    """The CSR matrix of a (2N+1)-point stencil on n nodes, assembled
    straight into CSR.  Row k holds the diagonal and the neighbours that
    the tables minus[a] and plus[a] give along each axis a (-1 where the
    neighbour is no node), in the column order minus[0], ..., minus[N-1],
    the node itself, plus[N-1], ..., plus[0]: increasing when the node
    numbering follows the lattice (-stride_0 < ... < -1 < 0 < 1 < ... <
    stride_0).  `values` is the (n, 2N+1) table of the entries in that
    order, or one row of them shared by every node.  One int32 table of the
    columns and the values are compressed by the same mask."""
    n = minus[0].size
    cols = np.stack([*minus, np.arange(n), *reversed(plus)], axis=1, dtype=np.int32)
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(sum(keep.T), out=indptr[1:])  # row lengths, one add per column
    return sparse.csr_matrix((np.broadcast_to(values, cols.shape)[keep], cols[keep], indptr),
                             shape=(n, n))


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


def fixed_axes(domain: Domain, axes, x):
    """The axes among `axes` (mirror axes of the domain, in increasing
    order) whose mid-plane reflection fixes the raw value array x, as the
    gate of a fold over them: x comes back from its values on their fold
    (`Fold.restrict`, `Fold.unfold`) to SYMMETRY_TOL (`_matches`).  When
    the fold over all of `axes` fails the gate, the axes whose reflection
    maps x onto itself (`Domain.reflect`) are kept if their fold passes it,
    and none otherwise; data fixed by every reflection take no reflection."""
    def gate(axes):
        fold = domain.fold(axes)
        return _matches(fold.unfold(fold.restrict(x)), x)

    if axes and not gate(axes):
        axes = tuple(a for a in axes if _matches(domain.reflect(a, x), x))
        if axes and not gate(axes):
            axes = ()
    return axes


def fold_axes(domain: Domain, axes, x):
    """The axes of the reflection fold that a solve from the raw value
    array x runs on: `fixed_axes(domain, axes, x)` on a lattice of at least
    FOLD_MIN_NODES interior nodes, none (the lattice itself) on a smaller
    one.  The one gate of the set-up solves, the branch searches
    (`solve._on_fold`) and the convexity check's eigensolve."""
    return fixed_axes(domain, axes, x) if domain.n_interior >= FOLD_MIN_NODES else ()


def _setup_fold(domain: Domain, x):
    """The fold over the mirror axes whose reflection fixes the data x of a
    set-up solve on a masked lattice (`fold_axes`), or None when the solve
    runs on the lattice."""
    axes = fold_axes(domain, domain.mirror_axes, x)
    return domain.fold(axes) if axes else None


def _sine_transform(S, x, out):
    """The square matrix S[d] applied along axis d of the N-dimensional array
    x, for every d, x_j -> sum_i x_i S[d][i, j], by N BLAS products that
    alternate between the buffers x and out (both overwritten); returns
    (result, the other buffer).  Each product contracts the leading axis and
    appends the result as the last one, so after N of them the axes are
    back in order.  No product allocates, so a solve adds no box-sized
    temporaries to the heap beyond its two buffers."""
    for Sd in S:
        n = Sd.shape[0]
        np.dot(x.reshape(n, -1).T, Sd, out=out.reshape(-1, n))
        x, out = out, x
    return x, out


def _cg(A, b, x0, rtol, maxiter, label):
    """CG solve of A x = b, A the map x -> A x, that raises NumericalError,
    with its label and relative residual, when it stops short of rtol."""
    x, ok = solve_cg(A, b, x0=x0, rtol=rtol, maxiter=maxiter, label=label)
    if not ok:
        resid = float(np.linalg.norm(b - A(x)) / np.linalg.norm(b))
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
    (`dump_spectral_data`); certify reads them back (`load_spectral_data`).
    On a fold's Params (`functional.Params.folded`) e1 and the witness are
    None."""

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
    iterations: on the fold over every mirror axis (`_setup_fold`), in its
    weighted coordinates (`Fold.symmetric`), where it takes the lattice's
    iterations, and unfolded.  lambda1 is the Rayleigh quotient of e1 on
    the lattice, and the pair is accepted only when the eigen-residual
    ||-Lap e1 - lambda1 e1||_2 is below EIG_TOL * lambda1; otherwise
    NumericalError with that residual.
    """
    S, eig = domain._sine_basis
    if isinstance(domain.spec.shape, Box):
        x = math.prod(np.ix_(*(Sd[:, 0] for Sd in S))).ravel()
        return float(eig.flat[0]), Field(x / domain.l2_norm(x), domain)
    A = domain.matrix
    x0, tol = np.ones(domain.n_interior), EIG_TOL * eig.flat[0]
    fold = _setup_fold(domain, x0)
    if fold is None:
        _, x, iters = lowest_eigenpair(domain.precondition, A.dot, x0, tol, EIG_MAXITER)
    else:
        r = fold.root_mult
        _, y, iters = lowest_eigenpair(fold.symmetric(fold.precondition),
                                       fold.symmetric(fold.matrix.dot), r * fold.restrict(x0),
                                       tol, EIG_MAXITER)
        x = fold.unfold(y / r)
    x = x / domain.l2_norm(x)
    Ax = A @ x
    lam = domain.inner(Ax, x)
    resid, converged = _eigen_residual(domain, lam, x, Ax)
    if not converged:
        raise NumericalError(
            f"eigensolve: LOBPCG stopped at eigen-residual {resid:.3e} "
            f"(tolerance {EIG_TOL * lam:.3e}) after {iters} iterations",
            residual=resid,
        )
    if np.sum(x) < 0:
        x = -x
    return float(lam), Field(x, domain)


def lowest_eigenpair(M, op, x0, tol, maxiter, B=None):
    """(sigma, x, iterations), the lowest eigenpair of op x = sigma B x
    (B = I when None; op and B act on raw arrays) by single-vector LOBPCG
    from the raw array x0, preconditioned by the map M, a domain's
    `Domain.precondition` or its symmetric form on a fold (`Fold.symmetric`)
    (Knyazev, SIAM J. Sci. Comput. 23, 2001).  The rows of V are the basis
    x, w = M r (B-orthogonal to x) and p, with their op and B images in
    AV and BV; each iteration is one Rayleigh-Ritz step on the 3x3 Gram
    matrices by numpy.linalg (`_lowest_ritz_pair`), on [x, w] alone when
    the B-Gram matrix is not positive definite, and renews x and p in
    place, B-normalized.  It stops once
    the residual ||op x - sigma B x||_2 is at most tol, or after maxiter
    iterations; the caller judges the pair."""
    V, AV = np.empty((3, x0.size)), np.empty((3, x0.size))
    BV = V if B is None else np.empty((3, x0.size))
    rows = (V, AV) if B is None else (V, AV, BV)

    def renew(i, v):
        Bv = v if B is None else B(v)
        s = 1.0 / np.sqrt(v @ Bv)
        V[i], BV[i] = s * v, s * Bv
        AV[i] = op(V[i])

    renew(0, x0)
    sigma, k = V[0] @ AV[0], 2
    for it in range(maxiter + 1):
        r = AV[0] - sigma * BV[0]
        if it == maxiter or np.linalg.norm(r) <= tol:
            return float(sigma), V[0].copy(), it
        w = M(r)
        w -= (BV[0] @ w) * V[0]
        renew(1, w)
        gA, gB = V[:k] @ AV[:k].T, V[:k] @ BV[:k].T
        try:
            sigma, c = _lowest_ritz_pair(gA, gB)
        except np.linalg.LinAlgError:
            sigma, c = _lowest_ritz_pair(gA[:2, :2], gB[:2, :2])
        k = 3
        for Z in rows:
            Z[2] = c[1:] @ Z[1:c.size]
            Z[0] = c[0] * Z[0] + Z[2]
        s = 1.0 / np.sqrt(V[2] @ BV[2])
        for Z in rows:
            Z[2] *= s


def _lowest_ritz_pair(gA, gB):
    """(sigma, c), the lowest eigenpair of the small symmetric pencil
    gA c = sigma gB c, with c B-normalized (c' gB c = 1): gB = L L' by
    Cholesky, (sigma, y) the lowest eigenpair of L^-1 gA L^-T (two solves,
    no inverse), and c = L^-T y.  np.linalg.LinAlgError when gB is not
    positive definite."""
    L = np.linalg.cholesky(gB)
    vals, Y = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, gA).T))
    return vals[0], np.linalg.solve(L.T, Y[:, 0])


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

    The lift is CG to relative residual SOBOLEV_INNER_RTOL, warm-started
    from the previous direction.  On a masked lattice CG runs on the CSR
    matrix: the descent runs on the fold over the mirror axes whose
    reflection fixes the default bump (`_setup_fold`), its CG in the fold's
    weighted coordinates (`Fold.symmetric`), where it takes the lattice's
    iterations, when there are such axes and an odd number of box nodes per
    axis (res - 2), so that the mid-plane nodes can carry a spike.  The
    witness is unfolded, and S is its quotient on the lattice.  On a box CG runs in sine coordinates,
    where -Lap = Q diag(eig) Q is the map x -> eig * x (Q the symmetric
    orthonormal sine transform of `Domain._sine_basis`): CG is invariant
    under an orthogonal change of basis, so it takes the same iterations as
    on the CSR matrix, each one a scaling instead of a sparse product, and
    the gradient and the direction cost one transform each.  The box
    descent stays on the lattice: on the odd sine modes alone its CG would
    drop the roundoff that the lattice CG carries in the even ones, which
    moves S by 1.6e-11 at res 29, past the 1e-12 at which `s_quantum` is
    compared.

    The unconstrained discrete minimizer is a single-cell spike whose
    one-sided-difference quotient sits well below the continuum constant (a
    lattice artifact: measured limits are about 4.0 for N=3 and 6.4 for N=4
    against 5.478 and 10.260).  Iterates are therefore only scored while they
    remain grid-resolved, i.e. while no single node carries more than
    SOBOLEV_SHARE_CAP of the critical mass (on a fold, of the mass weighted
    by `Fold.mult`); past that point the descent has entered the spike
    regime and is stopped.  The capped value sits above the continuum
    constant and decreases under refinement.
    """
    two_star = domain.two_star
    d, bump = domain, domain.default_bump  # the domain the descent runs on, its start
    if isinstance(domain.spec.shape, Box):
        Q, eig = domain._sine_basis
        diag = eig.reshape(-1)

        def op(x):
            return diag * x

        def sine(v):
            x = np.array(v, dtype=float).reshape(eig.shape)
            return _sine_transform(Q, x, np.empty(eig.shape))[0].reshape(-1)

        into = back = sine  # into the CG's coordinates and back
    else:
        # With an even number of box nodes per axis no node is its own
        # mirror image, so a mirror-symmetric iterate never puts more than
        # half its mass per folded axis on one node: the folded descent
        # would never meet the spike cap where the lattice descent, whose
        # roundoff breaks the symmetry, stops at it.
        fold = _setup_fold(domain, bump) if domain.spec.resolution % 2 else None
        if fold is None:
            op, into, back = domain.matrix.dot, (lambda v: v), (lambda y: y)
        else:
            d, bump, r = fold, fold.restrict(bump), fold.root_mult
            op, into, back = fold.symmetric(fold.matrix.dot), (lambda v: r * v), (lambda y: y / r)
    A = d.matrix

    def peak_share(vals):
        mass = np.abs(vals) ** two_star
        tot = float(d.node_sum(mass))
        return float(mass.max()) / tot if tot > 0 else 1.0

    best, u = _renormalized(d, bump)
    witness = u

    q = best
    d_cg = None
    step = 1.0
    for _ in range(SOBOLEV_MAX_OUTER):
        # L2 gradient of the quotient at ||u||_{2*} = 1 (up to the factor 2)
        g = A @ u - q * signed_pow(u, two_star - 1.0)
        # Inexact CG on purpose, also on a box, where the diagonal map in
        # sine coordinates would allow an exact solve: the descent only
        # needs a direction, and the estimate is the best quotient along the
        # path of these iterates.  Exact solves move S by 2.7e-9 relative at
        # res 25, far outside the 1e-12 at which s_quantum is compared.  The
        # warm start stays in the CG's coordinates.
        d_cg = _cg(op, into(g), d_cg, SOBOLEV_INNER_RTOL, 5000, "sobolev descent")
        direction = back(d_cg)
        gain = 0.0
        out = armijo(lambda beta: _renormalized(d, u - beta * direction), q, 0.0, step, 40)
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
    if d is not domain:
        witness = d.unfold(witness)
        best = rayleigh_quotient(domain, witness)
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


def _read_npy(f):
    """The array of the `.npy` stream f (`np.lib.format.read_array`, no
    pickles).  A header that numpy has to repair first, one written by
    Python 2, is refused (its UserWarning raised): no dump of ours has one.
    Every way these bytes can fail to be read raises; the callers name the
    file."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        return np.lib.format.read_array(f, allow_pickle=False)


def load_field(path, domain: Domain) -> Field:
    """The field of a `dump_field` dump on this domain.  ArgumentError,
    naming the path, when the file is not a readable `.npy` array (empty,
    truncated, damaged, text or pickled), not float64, not of shape
    `domain.lattice_shape` or not finite on the interior nodes."""
    try:
        with open(path, "rb") as f:
            full = _read_npy(f)
    except Exception as e:  # the reader's failures on damaged bytes have many types
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


@np.errstate(over="ignore", invalid="ignore")  # damaged values that overflow fail the tests
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
                    arrays[name] = _read_npy(f)
    except Exception as e:  # zipfile's and the reader's failures have many types
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
