import io
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse.linalg import cg as scipy_cg

from bnsolver import grid, numutil
from bnsolver.errors import ArgumentError, ConfigurationError, NumericalError
from bnsolver.grid import (
    AnnulusD,
    Box,
    DomainSpec,
    Field,
    build_domain,
    dump_field,
    dump_spectral_data,
    estimate_sobolev_S,
    load_field,
    load_spectral_data,
    lowest_eigenpair,
    principal_eigenpair,
    rayleigh_quotient,
    _sine_transform,
)
from bnsolver.lift import NodeTable, solve_lift
from bnsolver.numutil import solve_cg
from bnsolver.solve import make_bubble

from conftest import count_builds, text_dump

S4_CONTINUUM = 10.2603986413  # best critical quotient in dimension 4 (closed form)


def exact_box_lambda1(sides, res):
    # per-axis discrete Dirichlet eigenvalue of the 3-point stencil
    return sum(
        (4.0 / h**2) * np.sin(np.pi * h / (2.0 * s)) ** 2
        for s, h in ((s, s / (res - 1)) for s in sides)
    )


# -- domain construction ------------------------------------------------------


def test_box_interior_count():
    dom = build_domain(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 5))
    assert dom.n_interior == 27


def test_annulus_condition_d_mask():
    d0 = 0.5
    dom = build_domain(DomainSpec(AnnulusD(d0), 3, 9))
    # rebuild the full lattice and scan the containment relations
    mesh = np.meshgrid(*dom.axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    r = np.linalg.norm(pts, axis=1)
    interior = np.zeros(len(pts), dtype=bool)
    interior[dom.interior_flat] = True
    shell = (r >= d0) & (r <= 1.0 / d0)
    assert interior[shell].all(), "shell node excluded from the mask"
    ball = r < 0.5 * d0
    assert not interior[ball].any(), "mask intersects the excluded ball"


def test_annulus_too_coarse():
    with pytest.raises(ConfigurationError):
        build_domain(DomainSpec(AnnulusD(0.5), 3, 4))


def test_degenerate_resolution_rejected():
    with pytest.raises(ConfigurationError):
        DomainSpec(AnnulusD(0.5), 3, 3)
    with pytest.raises(ConfigurationError):
        DomainSpec(Box((1.0,) * 3), 3, 2)


def test_oversized_lattice_is_a_config_error():
    """25^12 nodes: each meshgrid axis would take 424 PiB, so the first
    allocation fails at once and nothing large is ever held."""
    with pytest.raises(ConfigurationError, match=r"lattice of 25\^12 nodes"):
        build_domain(DomainSpec(Box((1.0,) * 12), 12, 25))


def test_bad_box_sides():
    with pytest.raises(ConfigurationError):
        Box((1.0, -1.0, 1.0))
    with pytest.raises(ConfigurationError):
        DomainSpec(Box((1.0, 1.0)), 3, 5)


# -- Laplacian and norms ------------------------------------------------------


def test_laplacian_of_zero(box9):
    z = np.zeros(box9.domain.n_interior)
    assert not np.any(box9.domain.apply_neg_laplacian(z))


def test_laplacian_matches_discrete_eigenfunction(box9):
    # product of axis sines is the exact eigenvector of the stencil
    dom = box9.domain
    x = dom.interior_coords
    u = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) * np.sin(np.pi * x[:, 2])
    lam_h = exact_box_lambda1((1.0, 1.0, 1.0), dom.spec.resolution)
    res = dom.apply_neg_laplacian(u) - lam_h * u
    assert np.abs(res).max() < 1e-10 * lam_h
    assert abs(lam_h - 3 * np.pi**2) < 0.5  # O(h^2) away from the continuum value


def test_laplacian_of_e1(box9):
    e1 = box9.spectral.e1
    lam1 = box9.spectral.lambda1
    dom = box9.domain
    res = dom.apply_neg_laplacian(e1.values) - lam1 * e1.values
    assert np.sqrt(dom.weight) * np.linalg.norm(res) < 1e-9 * lam1


# Box sides in [0.5, 2] at resolutions 4-9, and annuli with delta0 in
# [0.3, 0.5] at resolutions 9-13 (all keep three nodes across the shell), in
# dimensions 3 and 4.
sbp_domains = st.one_of(
    st.builds(lambda N, sides, res: DomainSpec(Box(tuple(sides[:N])), N, res),
              st.sampled_from([3, 4]),
              st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4),
              st.integers(4, 9)),
    st.builds(lambda N, d0, res: DomainSpec(AnnulusD(d0), N, res),
              st.sampled_from([3, 4]), st.floats(0.3, 0.5), st.integers(9, 13)),
)


def edge_sum(dom, u):
    """The Dirichlet energy as the sum over stencil edges of squared
    one-sided differences (edges into the boundary see a zero ghost): the
    oracle that `h1_norm_sq` and <-Lap u, u> must both match."""
    total = 0.0
    for d in range(dom.ndim):
        nbp = dom.nb_plus[d]
        up = np.where(nbp >= 0, u[np.maximum(nbp, 0)], 0.0)
        total += float(np.sum((up - u) ** 2)) / dom.h[d] ** 2
        total += float(np.sum(u[dom.nb_minus[d] < 0] ** 2)) / dom.h[d] ** 2
    return dom.weight * total


def edge_midpoint_direction_integral(dom, u):
    """The vector integral of (x/|x|) |grad u|^2 node by node: for every
    interior node and axis, the edge to its plus neighbour and, where its
    minus neighbour is not interior, the edge to that one, each weighted by
    its squared one-sided difference (zero ghost) and the unit vector of its
    midpoint (left out within 1e-12 of the origin).  Returns the integral
    and, per component, the sum of the absolute values of its terms: the
    oracle for `Domain.gradient_direction_integral`."""
    out, scale = np.zeros(dom.ndim), np.zeros(dom.ndim)
    for d in range(dom.ndim):
        step = np.zeros(dom.ndim)
        step[d] = 0.5 * dom.h[d]
        nbp = dom.nb_plus[d]
        up = np.where(nbp >= 0, u[np.maximum(nbp, 0)], 0.0)
        miss = dom.nb_minus[d] < 0
        for mids, w in ((dom.interior_coords + step, (up - u) ** 2),
                        (dom.interior_coords[miss] - step, u[miss] ** 2)):
            norms = np.linalg.norm(mids, axis=1)
            ok = norms > 1e-12
            terms = (dom.weight / dom.h[d] ** 2) * w[ok, None] * mids[ok] / norms[ok, None]
            out += terms.sum(axis=0)
            scale += np.abs(terms).sum(axis=0)
    return out, scale


@pytest.mark.parametrize("setup", ["box9", "annulus9"])
def test_gradient_direction_integral_matches_edge_oracle(request, setup):
    dom = request.getfixturevalue(setup).domain
    rng = np.random.default_rng(5)
    fields = [rng.standard_normal(dom.n_interior) for _ in range(4)]
    fields.append(make_bubble(0.3, np.eye(dom.ndim)[0], dom))
    for u in fields:
        got = dom.gradient_direction_integral(u)
        want, scale = edge_midpoint_direction_integral(dom, u)
        assert np.all(np.abs(got - want) <= 1e-13 * scale), (got, want)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=sbp_domains, seed=st.integers(0, 2**32 - 1))
def test_summation_by_parts(spec, seed):
    rng = np.random.default_rng(seed)
    dom = build_domain(spec)
    # sorted columns, no duplicates: the row sums run in a fixed order
    assert dom.matrix.has_canonical_format
    for _ in range(4):
        u = rng.standard_normal(dom.n_interior)
        v = rng.standard_normal(dom.n_interior)
        Au = dom.apply_neg_laplacian(u)
        Av = dom.apply_neg_laplacian(v)
        sym = abs(dom.inner(Au, v) - dom.inner(Av, u))
        assert sym <= 1e-12 * max(1.0, abs(dom.inner(Au, v)))
        edges = edge_sum(dom, u)
        assert abs(dom.inner(Au, u) - edges) <= 1e-12 * edges
        assert abs(dom.h1_norm_sq(u) - edges) <= 1e-12 * edges


def test_norms_zero_and_homogeneity(box9):
    dom = box9.domain
    z = np.zeros(dom.n_interior)
    h1, l2, lp = dom.h1_norm_sq(z), dom.l2_norm_sq(z), dom.lp_norm(z, dom.two_star)
    assert h1 == 0 and l2 == 0 and lp == 0
    rng = np.random.default_rng(3)
    u = rng.standard_normal(dom.n_interior)
    for p in (1.0, 2.0, 6.0):
        a = dom.lp_norm(-2.0 * u, p)
        b = 2.0 * dom.lp_norm(u, p)
        assert abs(a - b) <= 1e-12 * b


def test_lp_norm_rejects_p_below_one(box9):
    with pytest.raises(ArgumentError):
        box9.domain.lp_norm(np.ones(box9.domain.n_interior), 0.5)


def test_quadrature_positivity(box9, annulus9):
    for setup in (box9, annulus9):
        assert setup.domain.weight > 0
        u = np.zeros(setup.domain.n_interior)
        assert setup.domain.lp_norm(u, 2.0) == 0.0
        u[0] = 1e-8
        assert setup.domain.lp_norm(u, 2.0) > 0.0


# -- lattice symmetries -----------------------------------------------------------


@settings(max_examples=12, deadline=None, derandomize=True)
@given(spec=sbp_domains, seed=st.integers(0, 2**32 - 1))
def test_symmetries_permute_nodes_and_commute_with_the_stencil(spec, seed):
    """Every accepted signed axis permutation is a bijection on the interior
    nodes that moves each node x to g x (`grid.symmetry_point`, centred
    coordinates) and commutes with -Lap, the H^1_0 norm and the critical
    norm."""
    dom = build_domain(spec)
    assert dom.symmetries[0] == (tuple(range(dom.ndim)), ())
    labels = np.arange(1.0, dom.n_interior + 1.0)
    x = dom.interior_coords - [0.5 * (ax[0] + ax[-1]) for ax in dom.axes]
    u = np.random.default_rng(seed).standard_normal(dom.n_interior)
    Au = dom.matrix @ u
    h1, lp = dom.h1_norm_sq(u), dom.lp_norm(u, dom.two_star)
    for g in dom.symmetries:
        assert np.array_equal(np.sort(dom.apply_symmetry(g, labels)), labels)
        # (g u)(x) = u(g^-1 x), so g maps the coordinate functions to g^-1 x
        pre = np.stack([dom.apply_symmetry(g, x[:, e]) for e in range(dom.ndim)], axis=1)
        assert np.max(np.abs(grid.symmetry_point(g, pre) - x)) <= 1e-12 * np.max(np.abs(x))
        gu = dom.apply_symmetry(g, u)
        assert np.max(np.abs(dom.matrix @ gu - dom.apply_symmetry(g, Au))) <= 1e-12 * np.max(
            np.abs(Au))
        assert abs(dom.h1_norm_sq(gu) - h1) <= 1e-12 * h1
        assert abs(dom.lp_norm(gu, dom.two_star) - lp) <= 1e-12 * lp


@pytest.mark.parametrize("sides", [(1.0, 1.3, 0.7), (1.0, 1.3, 0.7, 1.6)], ids=["N3", "N4"])
def test_unequal_box_sides_reject_axis_swaps(sides):
    """On a box with unequal sides only the 2^N axis flips are symmetries."""
    N = len(sides)
    dom = build_domain(DomainSpec(Box(sides), N, 7))
    assert {P for P, _ in dom.symmetries} == {tuple(range(N))}
    assert len(dom.symmetries) == 2**N


def test_cube_and_annulus_have_every_signed_axis_permutation(box9, annulus9):
    assert len(box9.domain.symmetries) == 48
    assert len(annulus9.domain.symmetries) == 48


# -- Poisson layer --------------------------------------------------------------

# Random boxes: N in {3, 4}, res in 5..17, sides in [0.5, 2].  The condition
# number of -Lap is about 4 (res - 1)^2 / pi^2 <= 104 whatever the sides, so
# CG at rtol 1e-13 is within 1e-11 of the exact solve.
box_specs = st.builds(
    lambda N, res, sides: DomainSpec(Box(tuple(sides[:N])), N, res),
    st.sampled_from([3, 4]),
    st.integers(5, 17),
    st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4),
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(spec=box_specs, seed=st.integers(0, 2**32 - 1))
def test_box_poisson_solve_is_exact(spec, seed):
    dom = build_domain(spec)
    b = np.random.default_rng(seed).standard_normal(dom.n_interior)
    x = dom.solve_poisson(b)
    A = dom.matrix
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
    x_cg, ok = solve_cg(A, b, rtol=1e-13, maxiter=50 * dom.n_interior)
    assert ok
    assert np.linalg.norm(x - x_cg) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("spec", [
    DomainSpec(Box((1.0, 0.3, 2.5)), 3, 25),
    DomainSpec(Box((1.0, 0.5, 1.7, 0.8)), 4, 11),
], ids=["N3", "N4"])
def test_anisotropic_box_poisson_residual(spec):
    """The sine-transform solve at the benchmark's box resolution and on a
    four-axis lattice, with sides far apart: relative residual 1e-13."""
    dom = build_domain(spec)
    b = np.random.default_rng(11).standard_normal(dom.n_interior)
    x = dom.solve_poisson(b)
    assert np.linalg.norm(dom.matrix @ x - b) <= 1e-13 * np.linalg.norm(b)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(spec=box_specs.filter(lambda s: s.resolution <= 11))
def test_box_eigenpair_matches_lobpcg(spec):
    """The closed-form box eigenpair against `lowest_eigenpair` of -Lap
    from the constant field, to residual 1e-12 lambda1."""
    dom = build_domain(spec)
    lam, e1 = principal_eigenpair(dom)
    A = dom.matrix
    _, x = lowest_eigenpair(dom, A, np.ones(dom.n_interior), 1e-12 * lam, 50)
    x = np.sign(x.sum()) * x / (np.sqrt(dom.weight) * np.linalg.norm(x))
    assert abs(lam - dom.inner(A @ x, x)) <= 1e-12 * lam
    assert np.abs(e1.values - x).max() <= 1e-8
    assert abs(lam - exact_box_lambda1(spec.shape.sides, spec.resolution)) <= 1e-12 * lam


@settings(max_examples=8, deadline=None, derandomize=True)
@given(spec=box_specs, seed=st.integers(0, 2**32 - 1))
def test_box_lift_matches_cg_and_maximum_principle(spec, seed):
    dom = build_domain(spec)
    g = np.random.default_rng(seed).uniform(0.0, 2.0, dom.boundary_flat.size)
    phi = solve_lift(NodeTable(g), dom).values
    # the lift's right-hand side, assembled on the full lattice: the stencil
    # weights of the boundary neighbours of each interior node
    full = np.zeros(int(np.prod(dom.lattice_shape)))
    full[dom.boundary_flat] = g
    full = full.reshape(dom.lattice_shape)
    rhs = sum((np.roll(full, 1, d) + np.roll(full, -1, d)) / dom.h[d] ** 2
              for d in range(dom.ndim)).ravel()[dom.interior_flat]
    raw = dom.solve_poisson(rhs)
    phi_cg, ok = solve_cg(dom.matrix, rhs, rtol=1e-13, maxiter=50 * dom.n_interior)
    assert ok
    assert np.abs(phi - phi_cg).max() <= 1e-12 * g.max()
    # maximum principle on the unclipped exact solve
    assert raw.min() >= g.min() - 1e-13 * g.max()
    assert raw.max() <= g.max() * (1.0 + 1e-13)


def test_annulus_poisson_solve_is_plain_cg(annulus9):
    dom = annulus9.domain
    rng = np.random.default_rng(5)
    b = rng.standard_normal(dom.n_interior)
    x = dom.solve_poisson(b)
    ref, _ = solve_cg(dom.matrix, b, rtol=1e-8, maxiter=20 * dom.n_interior)
    assert x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("warm", [False, True])
def test_solve_cg_matches_scipy_cg_bit_for_bit(annulus9, warm):
    """solve_cg's loop reproduces scipy's cg (M = I) on a masked-lattice
    system, cold and warm-started, converged and cut by maxiter, and leaves
    x0 unwritten."""
    dom = annulus9.domain
    rng = np.random.default_rng(11)
    b, x0 = rng.standard_normal((2, dom.n_interior))
    x0 = x0 if warm else None
    kept = None if x0 is None else x0.copy()
    for rtol, maxiter in ((1e-8, None), (1e-12, 2000), (1e-12, 7)):
        ref, info = scipy_cg(dom.matrix, b, x0=None if x0 is None else x0.copy(),
                             rtol=rtol, atol=0.0, maxiter=maxiter)
        x, ok = solve_cg(dom.matrix, b, x0=x0, rtol=rtol, maxiter=maxiter)
        assert x.tobytes() == ref.tobytes()
        assert ok == (info == 0) and ok == (maxiter != 7)
    if warm:
        assert x0.tobytes() == kept.tobytes()


def test_solve_cg_zero_rhs_and_breakdown(annulus9):
    """b = 0 returns x = 0 at once, warm start or not; a matrix that is not
    positive definite raises NumericalError with the label."""
    dom = annulus9.domain
    zero = np.zeros(dom.n_interior)
    for x0 in (None, np.ones(dom.n_interior)):
        x, ok = solve_cg(dom.matrix, zero, x0=x0)
        assert ok and not x.any()
    with pytest.raises(NumericalError, match="probe: conjugate gradients broke down"):
        solve_cg(-dom.matrix, np.ones(dom.n_interior), label="probe")


@pytest.mark.parametrize("N, n", [(2, 9), (3, 7), (3, 23), (4, 5)])
def test_sine_transform_matches_axis_by_axis_products(N, n):
    """The buffer-alternating BLAS transform against S applied along each
    axis in turn by `np.tensordot`, to 1e-14 relative."""
    rng = np.random.default_rng(n)
    S = rng.standard_normal((n, n))
    S = S + S.T
    x = rng.standard_normal((n,) * N)
    ref = x
    for d in range(N):
        ref = np.moveaxis(np.tensordot(S, ref, axes=(1, d)), 0, d)
    got, _ = _sine_transform(S, x.copy(), np.empty_like(x))
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("N", [3, 4])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(res=st.integers(5, 11), sides=st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_box_precondition_is_solve_poisson(N, res, sides, seed):
    """On a box the preconditioner is the exact solve, bit for bit the one
    `solve_poisson` returns."""
    dom = build_domain(DomainSpec(Box(tuple(sides[:N])), N, res))
    b = np.random.default_rng(seed).standard_normal(dom.n_interior)
    x = dom.precondition(b)
    assert x.tobytes() == dom.solve_poisson(b).tobytes()
    assert np.linalg.norm(dom.matrix @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("N", [3, 4])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(d0=st.floats(0.3, 0.5), res=st.integers(9, 13), seed=st.integers(0, 2**32 - 1))
def test_annulus_precondition_is_symmetric_positive(N, d0, res, seed):
    """On a masked lattice the bounding-box sine solve restricted to the
    interior is symmetric to 1e-12 and positive definite."""
    dom = build_domain(DomainSpec(AnnulusD(d0), N, res))
    b, c = np.random.default_rng(seed).standard_normal((2, dom.n_interior))
    Pb, Pc = dom.precondition(b), dom.precondition(c)
    scale = np.linalg.norm(b) * np.linalg.norm(Pc) + np.linalg.norm(c) * np.linalg.norm(Pb)
    assert abs(np.dot(c, Pb) - np.dot(b, Pc)) <= 1e-12 * scale
    assert np.dot(b, Pb) > 0 and np.dot(c, Pc) > 0


def test_unconverged_cg_raises_with_label_and_residual(annulus9, box9, monkeypatch):
    dom = annulus9.domain
    with pytest.raises(NumericalError, match="poisson solve") as err:
        dom.solve_poisson(np.ones(dom.n_interior), rtol=1e-14, maxiter=2)
    assert err.value.residual > 1e-14

    def one_iteration(A, b, **kwargs):
        return solve_cg(A, b, **{**kwargs, "maxiter": 1})

    monkeypatch.setattr(grid, "solve_cg", one_iteration)
    with pytest.raises(NumericalError, match="sobolev descent") as err:
        estimate_sobolev_S(box9.domain)
    assert err.value.residual > 1e-6


# -- eigenpair ----------------------------------------------------------------


def test_eigenpair_positive_and_normalized(box9, annulus9):
    for setup in (box9, annulus9):
        e1 = setup.spectral.e1
        assert e1.values.min() > 0
        assert abs(np.sqrt(setup.domain.l2_norm_sq(e1.values)) - 1.0) < 1e-10


@pytest.mark.parametrize("spec", [DomainSpec(AnnulusD(0.5), 3, 9), DomainSpec(AnnulusD(0.5), 4, 9)],
                         ids=["N3", "N4"])
def test_annulus_eigenpair_matches_dense_eigh(spec):
    """The masked-lattice eigenpair against the lowest eigenpair of the
    dense -Lap (LAPACK): lambda1 to 1e-12 relative, e1 to 1e-8 of its
    maximum."""
    dom = build_domain(spec)
    lam, e1 = principal_eigenpair(dom)
    vals, vecs = eigh(dom.matrix.toarray(), subset_by_index=[0, 0])
    ref = vecs[:, 0] / (np.sqrt(dom.weight) * np.linalg.norm(vecs[:, 0]))
    ref *= np.sign(ref.sum())
    assert abs(lam - vals[0]) <= 1e-12 * vals[0]
    assert np.abs(e1.values - ref).max() <= 1e-8 * np.abs(ref).max()


def test_annulus_eigenpair_runs_no_cg(annulus9, monkeypatch):
    """The masked-lattice eigensolve is LOBPCG preconditioned by the
    bounding-box sine solve: no conjugate gradients."""

    def no_cg(*args, **kwargs):
        raise AssertionError("conjugate gradients called by the eigensolve")

    # grid binds solve_cg at import, so patch its name there too
    for module in (numutil, grid):
        monkeypatch.setattr(module, "solve_cg", no_cg)
    lam, e1 = principal_eigenpair(annulus9.domain)
    assert lam == annulus9.spectral.lambda1
    assert e1.values.tobytes() == annulus9.spectral.e1.values.tobytes()


def test_eigensolve_cut_short_raises_with_residual(annulus9, monkeypatch):
    monkeypatch.setattr(grid, "EIG_MAXITER", 1)
    with pytest.raises(NumericalError, match="eigensolve: LOBPCG stopped") as err:
        principal_eigenpair(annulus9.domain)
    assert err.value.residual >= grid.EIG_TOL * annulus9.spectral.lambda1


def test_eigenvalue_matches_stencil_formula(box9):
    lam_exact = exact_box_lambda1((1.0, 1.0, 1.0), 9)
    assert abs(box9.spectral.lambda1 - lam_exact) < 1e-8 * lam_exact


def test_eigenvalue_box_scaling():
    # same resolution on a doubled box is the identical operator scaled by 1/4
    res = 9
    lam_small, _ = principal_eigenpair(build_domain(DomainSpec(Box((1.0,) * 3), 3, res)))
    lam_big, _ = principal_eigenpair(build_domain(DomainSpec(Box((2.0,) * 3), 3, res)))
    assert abs(lam_big - lam_small / 4.0) < 1e-8 * lam_small


def test_eigenvalue_monotone_domain_inclusion():
    lam_small, _ = principal_eigenpair(build_domain(DomainSpec(Box((1.0,) * 3), 3, 9)))
    lam_big, _ = principal_eigenpair(build_domain(DomainSpec(Box((1.5, 1.0, 1.0)), 3, 9)))
    assert lam_big < lam_small


# -- Sobolev estimate -----------------------------------------------------------


def test_sobolev_below_probe_quotients(box9):
    dom = box9.domain
    S = box9.spectral.sobolev_S
    x = dom.interior_coords
    bump = np.exp(-np.sum((x - 0.5) ** 2, axis=1) / 0.0625)
    assert S <= rayleigh_quotient(dom, bump) + 1e-12
    assert S <= rayleigh_quotient(dom, box9.spectral.e1.values) + 1e-12


def test_rayleigh_scale_invariance(box9):
    dom = box9.domain
    rng = np.random.default_rng(5)
    u = rng.standard_normal(dom.n_interior)
    q1 = rayleigh_quotient(dom, u)
    q2 = rayleigh_quotient(dom, 2.0 * u)
    assert abs(q1 - q2) <= 1e-12 * q1


def test_sobolev_refinement_trend_dimension4():
    # resolved-profile estimate decreases toward the continuum constant
    vals = []
    for res in (9, 11, 13):
        dom = build_domain(DomainSpec(Box((1.0,) * 4), 4, res))
        S, witness = estimate_sobolev_S(dom)
        assert rayleigh_quotient(dom, witness.values) == S
        vals.append(S)
    assert vals[0] > vals[1] > vals[2], f"not monotone: {vals}"
    assert abs(vals[-1] - S4_CONTINUUM) < 0.10 * S4_CONTINUUM, vals


# -- fields and dumps ------------------------------------------------------------


def test_field_validation(box9):
    dom = box9.domain
    with pytest.raises(ArgumentError):
        Field(np.ones(dom.n_interior + 1), dom)
    bad = np.ones(dom.n_interior)
    bad[0] = np.nan
    with pytest.raises(ArgumentError):
        Field(bad, dom)


def test_field_immutability_and_algebra(box9):
    dom = box9.domain
    rng = np.random.default_rng(0)
    u = Field(rng.standard_normal(dom.n_interior), dom)
    with pytest.raises(ValueError):
        u.values[0] = 1.0


def test_dump_roundtrip(tmp_path, box9, annulus9):
    rng = np.random.default_rng(11)
    for setup in (box9, annulus9):
        u = setup.random_field(rng)
        path = tmp_path / "field.npy"
        dump_field(u, path)
        v = load_field(path, setup.domain)
        assert np.array_equal(u.values, v.values)
        full = np.load(path, allow_pickle=False)
        assert full.dtype == np.float64 and full.shape == setup.domain.lattice_shape


def test_spectral_data_roundtrip(tmp_path, box9, annulus9):
    """The spectral archive gives back every stored value bit for bit, its
    lattice arrays are zero off the interior nodes, and a rewrite is
    byte-identical."""
    for setup in (box9, annulus9):
        sd, path = setup.spectral, tmp_path / "spectral.npz"
        dump_spectral_data(sd, path)
        back = load_spectral_data(path, setup.domain)
        assert (back.lambda1, back.sobolev_S) == (sd.lambda1, sd.sobolev_S)
        for name in ("e1", "sobolev_witness"):
            assert np.array_equal(getattr(back, name).values, getattr(sd, name).values)
            full = np.load(path, allow_pickle=False)[name].ravel()
            assert full.size == np.prod(setup.domain.lattice_shape)
            assert not np.delete(full, setup.domain.interior_flat).any()
        first = path.read_bytes()
        dump_spectral_data(sd, path)
        assert path.read_bytes() == first


def test_dump_mismatch_rejected(tmp_path, box9, box13):
    u = box9.random_field(np.random.default_rng(1))
    path = tmp_path / "field.npy"
    dump_field(u, path)
    with pytest.raises(ArgumentError):
        load_field(path, box13.domain)

    truncated = tmp_path / "short.npy"
    truncated.write_bytes(path.read_bytes()[:-24])
    with pytest.raises(ArgumentError):
        load_field(truncated, box9.domain)


def _npy_bytes(array, allow_pickle=False):
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


BAD_DUMPS = {
    "empty": lambda full: b"",
    "header-only": lambda full: _npy_bytes(full)[:64],
    "truncated-data": lambda full: _npy_bytes(full)[:-8],
    "text-dump": lambda full: text_dump(full).encode(),
    "pickle": pickle.dumps,
    "object-array": lambda full: _npy_bytes(full.astype(object), allow_pickle=True),
    "float32": lambda full: _npy_bytes(full.astype(np.float32)),
    "flat": lambda full: _npy_bytes(full.ravel()),
    "wrong-shape": lambda full: _npy_bytes(full[:, :, :-1]),
    "non-finite": lambda full: _npy_bytes(np.full_like(full, np.nan)),
}


@pytest.mark.parametrize("kind", list(BAD_DUMPS))
def test_bad_dump_is_argument_error_naming_the_path(tmp_path, box9, kind):
    """Every file that is not a float64 `.npy` array of the domain's lattice
    shape is an ArgumentError that names the file."""
    good = tmp_path / "good.npy"
    dump_field(box9.random_field(np.random.default_rng(2)), good)
    path = tmp_path / "bad.npy"
    path.write_bytes(BAD_DUMPS[kind](np.load(good)))
    with pytest.raises(ArgumentError, match=re.escape(str(path))):
        load_field(path, box9.domain)


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unopenable_dump_is_argument_error(tmp_path, box9, kind):
    path = tmp_path / "dump"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(ArgumentError, match=re.escape(str(path))):
        load_field(path, box9.domain)


def test_annulus_dimension4_condition_d():
    dom = build_domain(DomainSpec(AnnulusD(0.45), 4, 9))
    r = np.linalg.norm(dom.interior_coords, axis=1)
    assert dom.n_interior > 0
    assert r.min() > 0.5 * 0.45
    mesh = np.meshgrid(*dom.axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    rr = np.linalg.norm(pts, axis=1)
    interior = np.zeros(len(pts), dtype=bool)
    interior[dom.interior_flat] = True
    shell = (rr >= 0.45) & (rr <= 1.0 / 0.45)
    assert interior[shell].all()


@pytest.mark.parametrize("spec", [DomainSpec(Box((1.0, 1.0, 1.0)), 3, 7),
                                  DomainSpec(AnnulusD(0.5), 3, 9)])
def test_domain_derived_data_are_built_once(spec, monkeypatch):
    """Each cached property of a Domain is built on first use, once per
    domain, however often the set-up, the preconditioner and the bubbles
    read it; the default bump is read-only."""
    names = ("matrix", "_sine_basis", "_box_flat", "symmetries", "bubble_frame",
             "default_bump")
    builds = count_builds(monkeypatch, grid.Domain, names)
    dom = build_domain(spec)
    assert builds == []
    first = {name: getattr(dom, name) for name in names}
    for _ in range(2):
        grid.compute_spectral_data(dom)
        solve_lift(NodeTable(np.ones(dom.boundary_flat.size)), dom)
        dom.precondition(np.ones(dom.n_interior))
        make_bubble(0.3, np.array([1.0, 0.0, 0.0]), dom)
        assert all(getattr(dom, name) is first[name] for name in names)
    assert sorted(builds) == sorted((name, id(dom)) for name in names)
    with pytest.raises(ValueError):
        dom.default_bump[0] = 1.0

