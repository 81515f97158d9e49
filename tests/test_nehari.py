import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bnsolver.errors import ArgumentError, MuTooLargeError
from bnsolver.functional import FiberingProfile
from bnsolver.grid import Field
from bnsolver.nehari import Klass, barycenter, classify, find_roots, reduced_functional
from bnsolver.solve import make_bubble


def scan_oracle(prof, t_hi, samples=100_000, refine_tol=1e-9):
    """Independent root locator: dense sign-change scan of T' followed by
    bisection inside each sign-changing interval."""
    ts = np.linspace(1e-4, t_hi, samples)
    vals = prof.dT(ts)
    roots = []
    sign = np.sign(vals)
    flips = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    for i in flips:
        lo, hi = ts[i], ts[i + 1]
        flo = vals[i]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = prof.dT(mid)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
            if hi - lo < refine_tol * max(1.0, hi):
                break
        roots.append(0.5 * (lo + hi))
    exact = np.flatnonzero(vals == 0.0)
    roots.extend(ts[exact])
    return sorted(roots)


def test_mu_zero_closed_form_root(box9):
    rng = np.random.default_rng(40)
    dom = box9.domain
    lam = 0.5 * box9.spectral.lambda1
    p = box9.params(lam=lam, mu=0.0)
    ts = p.two_star
    for _ in range(10):
        v = box9.random_field(rng)
        rr = find_roots(v.values, p)
        a = dom.h1_norm_sq(v.values) - lam * dom.l2_norm_sq(v.values)
        b = dom.weight * np.sum(np.abs(v.values) ** ts)
        expected = (a / b) ** (1.0 / (ts - 2.0))
        assert rr.t_plus is None
        assert abs(rr.t_minus - expected) <= 1e-10 * expected


@settings(max_examples=50, deadline=None, derandomize=True)
@given(lam_factor=st.floats(0.05, 0.95), mu=st.floats(1e-4, 1.0),
       offset=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_root_ordering_and_pairing(box9, lam_factor, mu, offset, seed):
    """A positive ray has positive pairing, and in the two-root regime (t0
    defined and T'(t0) > 0) its roots satisfy 0 < t_plus < t0 < t_minus with
    T'' > 0 at t_plus and T'' < 0 at t_minus."""
    p = box9.params(lam_factor=lam_factor, mu=mu)
    v = np.abs(np.random.default_rng(seed).standard_normal(box9.domain.n_interior)) + offset
    prof = FiberingProfile(v, p)
    try:
        two_root = prof.dT(prof.t0) > 0
    except MuTooLargeError:
        two_root = False
    assume(two_root)
    rr = find_roots(v, p, profile=prof)
    assert rr.pairing_sign > 0
    assert rr.t_plus is not None
    assert 0.0 < rr.t_plus < prof.t0 < rr.t_minus
    assert prof.d2T(rr.t_plus) > 0
    assert prof.d2T(rr.t_minus) < 0


def test_negative_pairing_has_no_plus_root(box9):
    p = box9.params(lam_factor=0.5, mu=0.01)
    v = -1.0 * box9.spectral.e1.values
    prof = FiberingProfile(v, p)
    assert prof.sign_pairing < 0
    rr = find_roots(v, p, profile=prof)
    assert rr.t_plus is None
    assert rr.t_minus > prof.t0


def test_roots_match_scan_oracle(box5):
    rng = np.random.default_rng(42)
    p = box5.params(lam_factor=0.5, mu=0.02)
    for _ in range(25):
        v = box5.random_field(rng).values
        prof = FiberingProfile(v, p)
        rr = find_roots(v, p, profile=prof)
        lo = 1e-4
        roots = scan_oracle(prof, 4.0 * rr.t_minus, samples=20_000)
        expected = [t for t in (rr.t_plus, rr.t_minus) if t is not None and t >= lo]
        assert len(roots) == len(expected), (roots, expected)
        for a, b in zip(roots, expected):
            assert abs(a - b) <= 1e-6 * max(1.0, b)


def test_classify_constructed_points(box9):
    rng = np.random.default_rng(43)
    p = box9.params(lam_factor=0.5, mu=0.01)
    hits = {Klass.PLUS: 0, Klass.MINUS: 0}
    for _ in range(20):
        v = box9.random_field(rng, positive=True).values
        rr = find_roots(v, p)
        cm = classify(rr.t_minus * v, p)
        assert cm.klass is Klass.MINUS
        hits[Klass.MINUS] += 1
        if rr.t_plus is not None:
            cp = classify(rr.t_plus * v, p)
            assert cp.klass is Klass.PLUS
            hits[Klass.PLUS] += 1
        off = classify(v, p)
        assert off.klass is Klass.NOT_ON_MANIFOLD
    assert hits[Klass.PLUS] > 0 and hits[Klass.MINUS] > 0


def test_nonfinite_or_misfit_ray_rejected(box9, box5):
    p = box9.params(lam_factor=0.5, mu=0.01)
    v = box9.random_field(np.random.default_rng(51), positive=True).values.copy()
    v[7] = np.nan
    with pytest.raises(ArgumentError, match="non-finite"):
        find_roots(v, p)
    with pytest.raises(ArgumentError, match="non-finite"):
        classify(v, p)
    # a ray from another domain is rejected by its length
    with pytest.raises(ArgumentError, match="interior size"):
        find_roots(box5.random_field(np.random.default_rng(52)).values, p)


def test_no_zero_class_on_random_rescaled_rays(box5):
    rng = np.random.default_rng(44)
    p = box5.params(lam_factor=0.5, mu=0.02)
    for _ in range(100):
        v = box5.random_field(rng).values
        rr = find_roots(v, p)
        assert classify(rr.t_minus * v, p).klass is not Klass.ZERO
        if rr.t_plus is not None:
            assert classify(rr.t_plus * v, p).klass is not Klass.ZERO


def test_reduced_J_homogeneous_closed_form(box9):
    rng = np.random.default_rng(45)
    dom = box9.domain
    lam = 0.5 * box9.spectral.lambda1
    p = box9.params(lam=lam, mu=0.0)
    ts = p.two_star
    N = dom.ndim
    for _ in range(8):
        raw = np.abs(rng.standard_normal(dom.n_interior)) + 0.05
        raw /= dom.lp_norm(raw, ts)
        J, _, _ = reduced_functional(raw, p)
        a = dom.h1_norm_sq(raw) - lam * dom.l2_norm_sq(raw)
        expected = a ** (N / 2.0) / N
        assert abs(J - expected) <= 1e-9 * expected
        assert J > 0


def test_reduced_J_is_ray_maximum(box9):
    rng = np.random.default_rng(46)
    dom = box9.domain
    p = box9.params(lam_factor=0.5, mu=0.01)
    raw = np.abs(rng.standard_normal(dom.n_interior)) + 0.05
    raw /= dom.lp_norm(raw, p.two_star)
    J, t_minus, _ = reduced_functional(raw, p)
    prof = FiberingProfile(raw, p)
    samples = prof.T(np.linspace(0.0, 3.0 * t_minus, 100))
    assert J >= samples.max() - 1e-10 * (1.0 + abs(J))


def test_minimum_on_segment(box9):
    rng = np.random.default_rng(48)
    p = box9.params(lam_factor=0.5, mu=0.01)
    for _ in range(6):
        v = box9.random_field(rng, positive=True).values
        prof = FiberingProfile(v, p)
        rr = find_roots(v, p, profile=prof)
        assert rr.t_plus is not None
        grid = np.linspace(0.0, rr.t_minus, 250)
        vals = prof.T(grid)
        assert prof.T(rr.t_plus) <= vals.min() + 1e-10 * (1.0 + abs(vals.min()))


def test_barycenter_symmetry_and_translation(box9):
    dom = box9.domain
    x = dom.interior_coords
    center = np.array([0.5, 0.5, 0.5])
    bump = np.exp(-np.sum((x - center) ** 2, axis=1) / 0.02)
    beta = barycenter(Field(bump, dom))
    assert np.abs(beta - center).max() < 1e-10

    # shift by one lattice cell along x: barycenter moves by exactly h
    h = dom.h[0]
    bump2 = np.exp(-np.sum((x - center - np.array([h, 0, 0])) ** 2, axis=1) / 0.02)
    beta2 = barycenter(Field(bump2, dom))
    shift = beta2 - beta
    # the shifted profile loses a little tail mass across the boundary
    assert abs(shift[0] - h) < 0.05 * h
    assert np.abs(shift[1:]).max() < 1e-10


def test_barycenter_of_bubble_aligns(annulus9):
    dom = annulus9.domain
    y = np.array([0.0, 1.0, 0.0])
    b = make_bubble(0.3, y, dom, 0.45)
    beta = barycenter(b.field)
    assert np.dot(beta, y) > 0.1


def test_barycenter_zero_field_rejected(box9):
    with pytest.raises(ArgumentError):
        barycenter(Field(np.zeros(box9.domain.n_interior), box9.domain))


def test_gradient_direction_integral_symmetry(annulus9):
    dom = annulus9.domain
    y = np.array([1.0, 0.0, 0.0])
    b = make_bubble(0.3, y, dom, 0.45)
    gdi = dom.gradient_direction_integral(b.field.values)
    assert np.dot(gdi, y) > 0
    # centered symmetric profile: integral vanishes
    r = np.linalg.norm(dom.interior_coords, axis=1)
    radial = np.exp(-((r - 1.2) ** 2) / 0.1)
    gdi0 = dom.gradient_direction_integral(radial)
    assert np.abs(gdi0).max() < 1e-10 * dom.h1_norm_sq(radial)


def ray_position(u, p, rtol=1e-8):
    """Position of u relative to the Minus part along its own ray, from the
    ratio t_minus(u/||u||)/||u||: "on" the Minus part, inside the set
    "A_minus" below it (ratio < 1) or "A_plus" beyond it."""
    nu = np.sqrt(p.domain.h1_norm_sq(u))
    ratio = find_roots(u / nu, p).t_minus / nu
    if abs(ratio - 1.0) <= rtol:
        return "on"
    return "A_minus" if ratio < 1.0 else "A_plus"


def test_ray_set_membership(box9):
    rng = np.random.default_rng(49)
    p = box9.params(lam_factor=0.5, mu=0.01)
    v = box9.random_field(rng, positive=True).values
    rr = find_roots(v, p)
    w = rr.t_minus * v
    assert ray_position(w, p) == "on"
    assert ray_position(3.0 * w, p) == "A_minus"
    assert rr.t_plus is not None
    small = 0.5 * rr.t_plus * v
    assert ray_position(small, p) == "A_plus"


def test_manifold_separation_sampled_floor(box9):
    rng = np.random.default_rng(50)
    dom = box9.domain
    floors = []
    for lam_factor in (0.25, 0.5, 0.75):
        p = box9.params(lam_factor=lam_factor, mu=0.01)
        minus_pts, plus_pts = [], []
        for _ in range(8):
            v = box9.random_field(rng, positive=True)
            rr = find_roots(v.values, p)
            minus_pts.append(rr.t_minus * v.values)
            if rr.t_plus is not None:
                plus_pts.append(rr.t_plus * v.values)
        floor = min(
            np.sqrt(dom.h1_norm_sq(a - b)) for a in minus_pts for b in plus_pts
        )
        floors.append(floor)
        assert floor > 0.0
    print(f"sampled Minus/Plus separation floors by lambda factor: {floors}")
