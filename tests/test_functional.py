import numpy as np
import pytest

from bnsolver.errors import ArgumentError, MuTooLargeError
from bnsolver.functional import (
    FiberingProfile,
    Params,
    energy,
    gradient_values,
    hessian_apply,
)
from bnsolver.grid import Box, DomainSpec, build_domain
from bnsolver.solve import _admissible


def homogeneous_energy(dom, vvals, lam):
    """Independent evaluation of the mu = 0 energy via raw sums."""
    ts = 2.0 * dom.ndim / (dom.ndim - 2.0)
    h1 = dom.h1_norm_sq(vvals)
    l2 = dom.weight * float(np.sum(vvals * vvals))
    crit = dom.weight * float(np.sum(np.abs(vvals) ** ts))
    return 0.5 * h1 - 0.5 * lam * l2 - crit / ts


def test_energy_zero_field(box9):
    p0 = box9.params(mu=0.0)
    assert energy(np.zeros(box9.domain.n_interior), p0) == 0.0


def test_energy_at_zero_negative_for_positive_mu(box9):
    p = box9.params(mu=0.2)
    dom = box9.domain
    e0 = energy(np.zeros(dom.n_interior), p)
    phi = box9.lift.phi.values
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


def test_dimension5_fractional_exponent():
    # 2* = 10/3: fractional powers on both the energy and derivative paths
    from conftest import Setup
    from bnsolver.nehari import Klass, classify, find_roots

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
    rr = find_roots(pos, p)
    assert rr.t_plus is not None and 0 < rr.t_plus < rr.t_minus
    assert classify(rr.t_minus * pos, p).klass is Klass.MINUS


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
