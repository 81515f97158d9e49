import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bnsolver import grid
from bnsolver.errors import ArgumentError, MuBeyondRangeError, MuTooLargeError
from bnsolver.functional import (
    FiberingProfile,
    Params,
    energy,
    gradient_values,
    hessian_apply,
)
from bnsolver.grid import Box, Domain, DomainSpec, _matches, build_domain
from bnsolver.lift import BumpOnBoundary, Constant, solve_lift
from bnsolver.nehari import t_minus
from bnsolver.solve import _admissible

from conftest import Setup, count_builds, quadrature_fibering


@functools.cache
def unit_box(ndim):
    """Unit box of dimension ndim with its spectral data and g = 1 lift."""
    return Setup(DomainSpec(Box((1.0,) * ndim), ndim, {3: 7, 4: 5, 5: 5}[ndim]))


def profile_pairs(prof):
    """(k, C_k, T^(k)) for k = 0, 1, 2: the profile's methods that
    `quadrature_fibering(..., order=k)` evaluates independently."""
    return ((0, prof.crit_mass, prof.T), (1, prof.crit_pair_v, prof.dT),
            (2, prof.crit_quad_v2, prof.d2T))


def homogeneous_energy(dom, vvals, lam):
    """Independent evaluation of the mu = 0 energy via raw sums."""
    ts = 2.0 * dom.ndim / (dom.ndim - 2.0)
    h1 = dom.h1_norm_sq(vvals)
    l2 = dom.weight * float(np.sum(vvals * vvals))
    crit = dom.weight * float(np.sum(np.abs(vvals) ** ts))
    return 0.5 * h1 - 0.5 * lam * l2 - crit / ts


def test_energy_zero_field(box9, monkeypatch):
    """E(0) as `Params.energy_at_zero` takes it, without a -Lap product, is
    the full evaluation's float: +0.0 at mu = 0, sign included."""
    zeros = np.zeros(box9.domain.n_interior)
    full = {mu: energy(zeros, box9.params(mu=mu)) for mu in (0.0, 0.04)}
    assert full[0.0] == 0.0 and math.copysign(1.0, full[0.0]) == 1.0

    def no_product(self, values):
        raise AssertionError("E(0) took a -Lap product")

    monkeypatch.setattr(Domain, "h1_norm_sq", no_product)
    for mu, e0 in full.items():
        at_zero = box9.params(mu=mu).energy_at_zero
        assert at_zero == e0 and math.copysign(1.0, at_zero) == math.copysign(1.0, e0)


def test_energy_at_zero_negative_for_positive_mu(box9):
    p = box9.params(mu=0.2)
    dom = box9.domain
    e0 = energy(np.zeros(dom.n_interior), p)
    phi = box9.lift.values
    ts = p.two_star
    expected = (
        -0.5 * p.lam * dom.weight * np.sum((p.mu * phi) ** 2)
        - dom.weight * np.sum((p.mu * phi) ** ts) / ts
    )
    assert e0 < 0
    assert abs(e0 - expected) <= 1e-12 * abs(expected)


def test_mu_zero_reduction_matches_independent_path(box9):
    rng = np.random.default_rng(21)
    dom = box9.domain
    for lam in (0.0, 0.5 * box9.spectral.lambda1):
        p = box9.params(lam=lam, mu=0.0)
        for _ in range(5):
            v = rng.standard_normal(dom.n_interior)
            e1 = energy(v, p)
            e2 = homogeneous_energy(dom, v, lam)
            assert abs(e1 - e2) <= 1e-12 * (1.0 + abs(e2))
            # gradient reduces to -Lap v - lam v - |v|^(2*-2) v
            g = gradient_values(v, p)
            ts = p.two_star
            g2 = dom.apply_neg_laplacian(v) - lam * v - np.sign(v) * np.abs(v) ** (ts - 1)
            assert np.abs(g - g2).max() <= 1e-12 * (1.0 + np.abs(g2).max())


def test_gradient_finite_differences(box9):
    rng = np.random.default_rng(8)
    dom = box9.domain
    lam1 = box9.spectral.lambda1
    for lam, mu in ((0.0, 0.0), (0.5 * lam1, 0.0), (0.0, 0.01), (0.5 * lam1, 0.01)):
        p = box9.params(lam=lam, mu=mu)
        for _ in range(4):
            v = box9.random_field(rng)
            h = box9.random_field(rng)
            g = gradient_values(v.values, p)
            step = 1e-5
            fd = (energy(v.values + step * h.values, p)
                  - energy(v.values + (-step) * h.values, p)) / (2 * step)
            an = dom.inner(g, h.values)
            assert abs(fd - an) / (1.0 + abs(fd)) < 1e-6


def test_hessian_finite_differences_symmetry_and_eigenbound(box9):
    rng = np.random.default_rng(13)
    dom = box9.domain
    p = box9.params(lam_factor=0.5, mu=0.01)

    z = hessian_apply(box9.random_field(rng).values, np.zeros(dom.n_interior), p)
    assert not np.any(z)

    for _ in range(4):
        v = box9.random_field(rng)
        h = box9.random_field(rng)
        step = 1e-5
        fd = (gradient_values(v.values + step * h.values, p)
              - gradient_values(v.values + (-step) * h.values, p)) / (2 * step)
        an = hessian_apply(v.values, h.values, p)
        assert np.linalg.norm(fd - an) / (1.0 + np.linalg.norm(an)) < 1e-5

    v = box9.random_field(rng)
    h1f = box9.random_field(rng)
    h2f = box9.random_field(rng)
    s12 = dom.inner(hessian_apply(v.values, h1f.values, p), h2f.values)
    s21 = dom.inner(hessian_apply(v.values, h2f.values, p), h1f.values)
    assert abs(s12 - s21) <= 1e-12 * max(1.0, abs(s12))

    # at v = 0, mu = 0 the form is ||h||^2 - lam ||h||_2^2 > 0 for lam < lambda1
    p0 = box9.params(lam_factor=0.5, mu=0.0)
    for _ in range(5):
        h = box9.random_field(rng)
        form = dom.inner(hessian_apply(np.zeros(dom.n_interior), h.values, p0), h.values)
        expected = dom.h1_norm_sq(h.values) - p0.lam * dom.l2_norm_sq(h.values)
        assert abs(form - expected) <= 1e-12 * abs(expected)
        assert form > 0


def test_fibering_homogeneous_closed_forms(box9):
    rng = np.random.default_rng(30)
    dom = box9.domain
    p = box9.params(lam=0.0, mu=0.0)
    ts = p.two_star
    v = box9.random_field(rng)
    prof = FiberingProfile(v.values, p)
    a = dom.h1_norm_sq(v.values)
    b = dom.weight * np.sum(np.abs(v.values) ** ts)
    for t in (0.3, 1.0, 2.7):
        expected = t * a - t ** (ts - 1.0) * b
        assert abs(prof.dT(t) - expected) <= 1e-12 * (1.0 + abs(expected))
    t_minus = (a / b) ** (1.0 / (ts - 2.0))
    assert abs(prof.dT(t_minus)) <= 1e-9 * a


def test_fibering_derivative_identities(box9):
    rng = np.random.default_rng(31)
    p = box9.params(lam_factor=0.5, mu=0.01)
    dom = box9.domain
    for _ in range(5):
        v = box9.random_field(rng)
        prof = FiberingProfile(v.values, p)
        # T'(1) = <grad E(v), v>
        g = gradient_values(v.values, p)
        assert abs(prof.dT(1.0) - dom.inner(g, v.values)) <= 1e-11 * (
            1.0 + abs(prof.dT(1.0))
        )
        # T(t v) = energy(t v) by construction
        for t in (0.5, 1.7):
            assert abs(prof.T(t) - energy(t * v.values, p)) <= 1e-11 * (1.0 + abs(prof.T(t)))
        # finite differences of T match T' and T''
        step = 1e-5
        for t in (0.4, 1.1):
            fd1 = (prof.T(t + step) - prof.T(t - step)) / (2 * step)
            fd2 = (prof.dT(t + step) - prof.dT(t - step)) / (2 * step)
            assert abs(fd1 - prof.dT(t)) / (1.0 + abs(fd1)) < 1e-6
            assert abs(fd2 - prof.d2T(t)) / (1.0 + abs(fd2)) < 1e-6


def test_fibering_eventual_negativity(box9):
    rng = np.random.default_rng(32)
    p = box9.params(lam_factor=0.5, mu=0.01)
    for _ in range(5):
        v = box9.random_field(rng)
        prof = FiberingProfile(v.values, p)
        t = prof.t0
        for _ in range(60):
            if prof.dT(t) < 0:
                break
            t *= 2.0
        else:
            pytest.fail("T' never became negative within 60 doublings")
        assert prof.d2T(4.0 * t) < 0


def test_t0_formula_and_scaling(box9):
    rng = np.random.default_rng(33)
    dom = box9.domain
    lam = 0.5 * box9.spectral.lambda1
    p0 = box9.params(lam=lam, mu=0.0)
    ts = p0.two_star
    v = box9.random_field(rng)
    a = dom.h1_norm_sq(v.values) - lam * dom.l2_norm_sq(v.values)
    b = dom.weight * np.sum(np.abs(v.values) ** ts)
    c = (ts - 1.0) * 2.0 ** (ts - 2.0)
    expected = (a / (c * b)) ** (1.0 / (ts - 2.0))
    t0 = FiberingProfile(v.values, p0).t0
    assert abs(t0 - expected) <= 1e-12 * expected
    # homogeneity at mu = 0: doubling the ray halves t0
    t0_scaled = FiberingProfile(2.0 * v.values, p0).t0
    assert abs(t0_scaled - 0.5 * t0) <= 1e-12 * t0


def test_t0_guarantees_convexity_below(box9):
    rng = np.random.default_rng(34)
    p = box9.params(lam_factor=0.5, mu=0.01)
    for _ in range(8):
        v = box9.random_field(rng)
        prof = FiberingProfile(v.values, p)
        t0 = prof.t0
        for t in np.linspace(0.05, 0.95, 7) * t0:
            assert prof.d2T(t) > 0


def test_t0_mu_too_large(box9):
    p_big = box9.params(lam_factor=0.5, mu=50.0)
    assert not _admissible(p_big)
    v = box9.spectral.e1.values
    with pytest.raises(MuTooLargeError) as ei:
        FiberingProfile(v, p_big).t0
    assert ei.value.numerator is not None and ei.value.numerator <= 0


def test_fibering_argument_errors(box9):
    p = box9.params()
    with pytest.raises(ArgumentError):
        FiberingProfile(np.zeros(box9.domain.n_interior), p)
    v = box9.random_field(np.random.default_rng(0)).values
    prof = FiberingProfile(v, p)
    for f in (prof.T, prof.dT, prof.d2T):
        with pytest.raises(ArgumentError):
            f(-1.0)


@pytest.mark.parametrize("ndim", [3, 5])
def test_nonfinite_t_rejected_on_both_paths(ndim):
    """NaN and inf t fail as a negative t does, on the moment polynomial
    (N = 3) and on the quadrature (N = 5); an array of t is an error too."""
    setup = unit_box(ndim)
    p = setup.params(lam_factor=0.5, mu=0.01)
    prof = FiberingProfile(setup.random_field(np.random.default_rng(7)).values, p)
    assert (prof.moments is None) == (ndim == 5)
    for _, crit, deriv in profile_pairs(prof):
        for f in (crit, deriv):
            for bad in (np.nan, np.inf, -np.inf, -1.0):
                with pytest.raises(ArgumentError, match="finite and >= 0"):
                    f(bad)
            for array in (np.array([0.5, 1.0]), [0.5], np.zeros((1, 1))):
                with pytest.raises(ArgumentError, match="must be one number"):
                    f(array)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ndim=st.sampled_from([3, 4]), signed=st.booleans(),
       mu=st.just(0.0) | st.floats(1e-3, 0.02), lam_factor=st.floats(0.0, 0.9),
       seed=st.integers(0, 2**32 - 1))
def test_moment_polynomial_matches_quadrature(ndim, signed, mu, lam_factor, seed):
    """For even 2* (N = 3, 4) the critical integrals and T, T', T'' of the
    moment polynomial, and the pairing -T'(0), agree with direct quadrature
    on [0, 4 t_minus], to 1e-13 of the largest quadrature magnitude there,
    at each t."""
    setup = unit_box(ndim)
    p = setup.params(lam_factor=lam_factor, mu=mu)
    v = setup.random_field(np.random.default_rng(seed), positive=not signed).values
    prof = FiberingProfile(v, p)
    assert len(prof.moments) == p.two_star + 1
    try:
        tm = t_minus(prof)
    except (MuTooLargeError, MuBeyondRangeError):
        assume(False)
    ts = np.linspace(0.0, 4.0 * tm, 33)
    for order, crit, deriv in profile_pairs(prof):
        for f, ref in zip((crit, deriv), quadrature_fibering(v, p, ts, order)):
            assert max(abs(f(t) - r) for t, r in zip(ts, ref)) <= 1e-13 * np.abs(ref).max()
        if order == 1:
            # the pairing is -T'(0), read off the moments: checked against the
            # size of its own terms, which are far below max |T'| for small mu
            w0, psi = p.domain.weight, p.mu_phi
            scale = w0 * np.abs(v).dot(p.lam * psi + np.abs(psi) ** (p.two_star - 1.0))
            assert abs(prof.sign_pairing + ref[0]) <= 1e-13 * scale


def _moments_from_one_buffer(v, p):
    """The ray moments M_j = int v^j (mu phi)^(2*-j), j = 0..2*, built from
    one (2, 2*, n) buffer of the rows v^k and (mu phi)^k: the reference
    for the moments taken against `Params.lift_powers`."""
    q = int(p.two_star)
    vp, pp = pows = np.empty((2, q, v.size))
    vp[0], pp[0] = v, p.mu_phi
    for k in range(1, q):
        np.multiply(pows[:, k - 1], pows[:, 0], out=pows[:, k])
    inner = np.einsum("jn,jn->j", vp[:-1], pp[-2::-1])
    return p.domain.weight * np.array([pp[-1].sum(), *inner, vp[-1].sum()])


@pytest.mark.parametrize("ndim", [3, 4])
@pytest.mark.parametrize("mu", [0.0, 0.01])
def test_moments_match_the_one_buffer_moments_bit_for_bit(ndim, mu):
    """The profile's moments, from the powers of v against the Params'
    cached powers of mu phi (none at mu = 0), equal the one-buffer moments
    bit for bit, on signed and positive rays."""
    setup = unit_box(ndim)
    p = setup.params(lam_factor=0.5, mu=mu)
    rng = np.random.default_rng(13)
    for positive in (False, True, False, True):
        v = setup.random_field(rng, positive=positive).values * rng.uniform(0.1, 10.0)
        moments = FiberingProfile(v, p).moments
        assert moments.tobytes() == _moments_from_one_buffer(v, p).tobytes()


def test_lift_powers_are_cached_read_only_rows():
    """Params.lift_powers holds the rows (mu phi)^k, k = 1..2*-1, read-only
    and built once; it is None at mu = 0 and for the fractional 2* of N = 5."""
    for ndim in (3, 4):
        p = unit_box(ndim).params(lam_factor=0.5, mu=0.01)
        rows = p.lift_powers
        assert rows.shape == (p.two_star - 1, p.domain.n_interior)
        assert rows[0].tobytes() == p.mu_phi.tobytes()
        assert np.allclose(rows[-1], p.mu_phi ** (p.two_star - 1), rtol=1e-14, atol=0.0)
        assert p.lift_powers is rows and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        assert unit_box(ndim).params(lam_factor=0.5, mu=0.0).lift_powers is None
    assert unit_box(5).params(lam_factor=0.5, mu=0.01).lift_powers is None


def test_dimension5_takes_the_quadrature_path():
    """2* = 10/3 is not an even integer: the profile has no ray moments, and
    its integrals are the quadrature's."""
    setup = unit_box(5)
    p = setup.params(lam_factor=0.5, mu=0.01)
    v = setup.random_field(np.random.default_rng(9)).values
    prof = FiberingProfile(v, p)
    assert prof.moments is None
    ts = np.linspace(0.0, 4.0 * t_minus(prof), 9)
    for order, crit, deriv in profile_pairs(prof):
        for f, ref in zip((crit, deriv), quadrature_fibering(v, p, ts, order)):
            assert max(abs(f(t) - r) for t, r in zip(ts, ref)) <= 1e-13 * np.abs(ref).max()


def test_dimension5_fractional_exponent():
    # 2* = 10/3: fractional powers on both the energy and derivative paths
    from conftest import Setup
    from bnsolver.nehari import Klass, classify, t_minus, t_plus

    setup = Setup(DomainSpec(Box((1.0,) * 5), 5, 5))
    dom = setup.domain
    assert dom.n_interior == 3**5
    p = setup.params(lam_factor=0.5, mu=0.01)
    rng = np.random.default_rng(55)
    v = setup.random_field(rng)
    h = setup.random_field(rng)
    step = 1e-5
    fd = (energy(v.values + step * h.values, p)
          - energy(v.values + (-step) * h.values, p)) / (2 * step)
    an = dom.inner(gradient_values(v.values, p), h.values)
    assert abs(fd - an) / (1.0 + abs(fd)) < 1e-6
    pos = np.abs(v.values) + 0.1
    prof = FiberingProfile(pos, p)
    tp, tm = t_plus(prof), t_minus(prof)
    assert tp is not None and 0 < tp < tm
    assert classify(tm * pos, p).klass is Klass.MINUS


def test_params_validation(box9, box13):
    with pytest.raises(ArgumentError):
        box9.params(lam=-1.0)
    with pytest.raises(ArgumentError):
        box9.params(mu=float("nan"))
    with pytest.raises(ArgumentError):
        Params(lam=1.0, mu=0.0, spectral=box9.spectral, lift=box13.lift)
    assert box9.domain.two_star == 6.0
    dom5 = build_domain(DomainSpec(Box((1.0,) * 5), 5, 4))
    assert abs(dom5.two_star - 10.0 / 3.0) < 1e-15


def test_params_derived_data_are_built_once(box9, monkeypatch):
    """mu*phi, ||phi||_2^2, E(0), the symmetry group and the mirror axes
    are built on first use, once per Params, however many rays read them;
    so is the problem on a fold, once per tuple of axes; mu*phi is
    read-only."""
    names = ("mu_phi", "phi_l2", "energy_at_zero", "symmetry_group", "mirror_axes")
    builds = count_builds(monkeypatch, Params, names)
    p = box9.params(mu=0.2)
    assert builds == []
    first = {name: getattr(p, name) for name in names}
    rng = np.random.default_rng(5)
    for _ in range(3):
        prof = FiberingProfile(np.abs(rng.standard_normal(box9.domain.n_interior)), p)
        for t in (0.0, 0.5, 2.0):
            prof.T(t)
        assert all(getattr(p, name) is first[name] for name in names)
    assert sorted(builds) == sorted((name, id(p)) for name in names)
    assert p.energy_at_zero == energy(np.zeros(box9.domain.n_interior), p)
    assert p.folded((1,)) is p.folded((1,)) is not p.folded((0, 1, 2))
    with pytest.raises(ValueError):
        p.mu_phi[0] = 1.0


def test_folded_params_restrict_the_lift_alone(box9, monkeypatch):
    """`Params.folded` restricts phi onto its fold, one gather per Params
    and tuple of axes, and neither e1 nor the Sobolev witness, which no
    search on a fold reads; the fold's spectral data keep lambda1 and S."""
    calls = []
    restrict = grid.Fold.restrict

    def counted(self, values):
        calls.append((self.folded_axes, values.size))
        return restrict(self, values)

    monkeypatch.setattr(grid.Fold, "restrict", counted)
    p, q = box9.params(mu=0.2), box9.params(mu=0.1)
    for params in (p, q, p, q):
        for axes in ((0, 1, 2), (1,), (0, 1, 2)):
            params.folded(axes)
    n = box9.domain.n_interior
    assert calls == [((0, 1, 2), n), ((1,), n)] * 2
    s = p.folded((1,)).spectral
    assert s.e1 is None and s.sobolev_witness is None
    assert (s.lambda1, s.sobolev_S) == (box9.spectral.lambda1, box9.spectral.sobolev_S)
    fold = box9.domain.fold((1,))
    assert np.array_equal(p.folded((1,)).lift.values, restrict(fold, box9.lift.values))


@pytest.mark.parametrize("setup, boundary, order", [
    ("box9", Constant(1.0), 48), ("annulus9", Constant(1.0), 48),
    ("box9", BumpOnBoundary((1.0, 0.0, 0.0), 0.3, 1.0), 8),
    ("annulus9", BumpOnBoundary((1.0, 1.0, 0.0), 0.5, 1.0), 4)],
    ids=["box", "annulus", "box-bump", "annulus-bump"])
def test_symmetry_group_is_the_symmetries_that_fix_mu_phi(setup, boundary, order, request):
    """`Params.symmetry_group`, tested on one lattice array of mu phi, is
    the list of the domain's symmetries g with `_matches` of
    `Domain.apply_symmetry(g, mu phi)` and mu phi, in the same order; the
    mirror axes are the reflections among them."""
    s = request.getfixturevalue(setup)
    d = s.domain
    p = Params(lam=1.0, mu=0.01, spectral=s.spectral, lift=solve_lift(boundary, d))
    want = [g for g in d.symmetries if _matches(d.apply_symmetry(g, p.mu_phi), p.mu_phi)]
    assert p.symmetry_group == want and len(want) == order
    assert p.mirror_axes == tuple(S[0] for P, S in want if P == (0, 1, 2) and len(S) == 1)

