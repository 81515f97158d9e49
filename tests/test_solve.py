import numpy as np
import pytest

from bnsolver.errors import (
    ArgumentError,
    BranchAbsentError,
    NonconvergenceError,
    PreconditionError,
)
from bnsolver.functional import energy
from bnsolver.grid import Field
from bnsolver.nehari import Klass
from bnsolver.numutil import signed_pow, solve_cg
from bnsolver.solve import (
    SeedKind,
    estimate_mu_star,
    ground_state,
    make_bubble,
    minimax_gamma,
    minimize_on_Nminus,
    minimize_on_Nplus,
    multistart_Nminus,
)


@pytest.fixture(scope="module")
def cell13(box13):
    """Solved two-branch cell on the 13^3 box at lam = lam1/2, mu = 0.01."""
    p = box13.params(lam_factor=0.5, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, box13.spectral, box13.lift)
    rec_minus = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    return p, rec_plus, rec_minus


def test_plus_branch_record(cell13, box13):
    p, rec, _ = cell13
    dom = box13.domain
    assert rec.energy < 0
    assert rec.nehari_class.klass is Klass.PLUS
    assert rec.positive
    assert rec.energy <= energy(np.zeros(dom.n_interior), p) + 1e-12
    h1 = np.sqrt(dom.h1_norm_sq(rec.v.values))
    assert rec.grad_norm < 1e-8 * (1.0 + abs(rec.energy))
    assert rec.grad_norm < 1e-7 * (1.0 + h1)


def test_minus_branch_record(cell13):
    p, rec_plus, rec = cell13
    assert rec.energy > 0
    assert rec.nehari_class.klass is Klass.MINUS
    assert rec.positive
    q = p.spectral.s_quantum
    assert rec.energy < rec_plus.energy + q


def test_newton_polish_counts_steps_taken(box9, monkeypatch):
    # a zero Newton direction fails the first line search: no step is taken
    from bnsolver import solve

    p = box9.params(lam_factor=0.5, mu=0.01)
    monkeypatch.setattr(solve, "solve_minres", lambda A, b, **kw: (np.zeros_like(b), True))
    _, _, steps, ok = solve._newton_polish(p, solve.zero_relax_seed(p).values)
    assert not ok
    assert steps == 0


def test_unconverged_newton_inner_solves_are_reported(box9, monkeypatch):
    """Every MINRES solve of the polish stops short: the Plus and Minus
    errors name the count of inner solves that did."""
    from bnsolver import solve

    p = box9.params(lam_factor=0.5, mu=0.01)
    gs = ground_state(p.lam, box9.spectral, box9.lift)
    monkeypatch.setattr(solve, "solve_minres", lambda A, b, **kw: (np.zeros_like(b), False))
    with pytest.raises(NonconvergenceError, match="1 of 1 Newton inner solves stopped short"):
        minimize_on_Nplus(p)
    with pytest.raises(NonconvergenceError, match="3 of 3 Newton inner solves stopped short"):
        minimize_on_Nminus(p, gs)


def test_unconverged_newton_inner_solve_in_minimax_reason(annulus9, monkeypatch):
    from bnsolver import solve

    p = annulus9.params(lam_factor=0.25, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, annulus9.spectral, annulus9.lift)
    rec_minus = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    monkeypatch.setattr(solve, "solve_minres", lambda A, b, **kw: (np.zeros_like(b), False))
    mm = minimax_gamma(p, 0.3, rec_plus, rec_minus, n_radii=3, relax_rounds=1)
    assert not mm.found
    assert mm.reason.endswith("(1 of 1 Newton inner solves stopped short)")


def test_plus_branch_absent_at_mu_zero(box13):
    p0 = box13.params(mu=0.0)
    with pytest.raises(BranchAbsentError):
        minimize_on_Nplus(p0)


def test_plus_uniqueness_two_seeds(cell13, box13):
    p, rec, _ = cell13
    seed2 = Field(np.abs(box13.spectral.e1.values), box13.domain)
    rec2 = minimize_on_Nplus(p, seed=seed2)
    dist = np.sqrt(box13.domain.h1_norm_sq(rec.v.values - rec2.v.values))
    assert dist < 1e-6


def test_warm_start_reproduces(cell13):
    p, rec, _ = cell13
    rec2 = minimize_on_Nplus(p, seed=rec.v)
    dist = np.sqrt(p.domain.h1_norm_sq(rec.v.values - rec2.v.values))
    assert dist < 1e-10


def rayleigh_min_oracle(dom, lam, iters=800):
    """Independent minimizer of (||u||^2 - lam ||u||_2^2)/||u||_{2*}^2 by plain
    projected descent; upper bound on the discrete constrained minimum."""
    ts = 2.0 * dom.ndim / (dom.ndim - 2.0)
    A = dom.matrix
    x = dom.interior_coords
    u = np.exp(-np.sum((x - 0.5) ** 2, axis=1) / 0.04)
    u /= dom.lp_norm(u, ts)
    q = (dom.h1_norm_sq(u) - lam * dom.l2_norm_sq(u))
    step = 1.0
    warm = None
    for _ in range(iters):
        g = A @ u - lam * u - q * signed_pow(u, ts - 1.0)
        d, _ = solve_cg(A, g, x0=warm, rtol=1e-6, maxiter=4000)
        warm = d
        beta, moved = step, False
        for _ in range(40):
            ut = u - beta * d
            nt = dom.lp_norm(ut, ts)
            if nt > 0:
                ut /= nt
                qt = dom.h1_norm_sq(ut) - lam * dom.l2_norm_sq(ut)
                if qt < q:
                    u, q, moved = ut, qt, True
                    step = min(2 * beta, 4.0)
                    break
            beta *= 0.5
        if not moved:
            break
    return q


def test_minus_branch_mu_zero_matches_quotient_oracle(box9):
    lam = 0.5 * box9.spectral.lambda1
    p0 = box9.params(lam=lam, mu=0.0)
    gs = ground_state(lam, box9.spectral, box9.lift)
    rec = minimize_on_Nminus(p0, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    N = box9.domain.ndim
    q_min = rayleigh_min_oracle(box9.domain, lam)
    level = q_min ** (N / 2.0) / N
    assert rec.energy <= level * (1.0 + 1e-6)
    assert rec.energy >= level * (1.0 - 0.05)


def test_minus_needs_seed(box13):
    p = box13.params()
    with pytest.raises(ArgumentError):
        minimize_on_Nminus(p, Field(np.zeros(box13.domain.n_interior), box13.domain))


def test_two_branches_dimension4():
    # integer critical exponent 2* = 4: the native dimension of the
    # two-solution statement
    from conftest import Setup
    from bnsolver.grid import Box, DomainSpec
    from bnsolver.verify import certify_solution, threshold_report

    setup = Setup(DomainSpec(Box((1.0,) * 4), 4, 9))
    p = setup.params(lam_factor=0.5, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, setup.spectral, setup.lift)
    rec_minus = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    assert rec_plus.energy < 0 < rec_minus.energy
    assert certify_solution(rec_plus, p).overall
    assert certify_solution(rec_minus, p).overall
    assert threshold_report(p, [rec_plus, rec_minus]).overall


# -- bubbles ------------------------------------------------------------------


def test_bubble_support_and_positivity(annulus9):
    dom = annulus9.domain
    y = np.array([1.0, 0.0, 0.0])
    d0 = 0.45
    b = make_bubble(0.3, y, dom, d0)
    vals = b.field.values
    assert vals.min() >= 0.0
    r = np.linalg.norm(dom.interior_coords, axis=1)
    outside = (r <= d0) | (r >= 1.0 / d0)
    assert not np.any(vals[outside])
    assert np.any(vals > 0)
    # peak sits near (1 - eps) * direction
    peak_node = dom.interior_coords[np.argmax(vals)]
    assert np.linalg.norm(peak_node - 0.7 * y) <= np.linalg.norm(dom.h)


def test_bubble_argument_errors(annulus9):
    dom = annulus9.domain
    y = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ArgumentError):
        make_bubble(0.0, y, dom, 0.45)
    with pytest.raises(ArgumentError):
        make_bubble(1.5, y, dom, 0.45)
    with pytest.raises(ArgumentError):
        make_bubble(0.3, np.array([1.0, 1.0, 0.0]), dom, 0.45)
    with pytest.raises(ArgumentError):
        make_bubble(0.3, y, dom, 0.6)  # cutoff plateau empty


def test_bubble_mirror_symmetry(annulus9):
    p = annulus9.params(lam_factor=0.25, mu=0.01)
    y = np.array([0.0, 0.0, 1.0])
    b1 = make_bubble(0.3, y, annulus9.domain, 0.45)
    b2 = make_bubble(0.3, -y, annulus9.domain, 0.45)
    e1 = energy(b1.field.values, p)
    e2 = energy(b2.field.values, p)
    assert abs(e1 - e2) <= 1e-8 * (1.0 + abs(e1))


def test_multistart_on_box_is_permitted(box13):
    p = box13.params(lam_factor=0.25, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    dirs = [np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])]
    recs = multistart_Nminus(p, dirs, 0.3, rec_plus)
    assert len(recs) >= 1  # no distinctness claim without the annular geometry
    for r in recs:
        assert r.nehari_class.klass is Klass.MINUS
        assert r.seed is SeedKind.BUBBLE


def test_minimax_needs_annulus(box13):
    p = box13.params(lam_factor=0.25, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, box13.spectral, box13.lift)
    rec_minus = minimize_on_Nminus(p, gs)
    with pytest.raises(PreconditionError):
        minimax_gamma(p, 0.2, rec_plus, rec_minus)


# -- continuation -----------------------------------------------------------


def test_mu_star_precondition(box9):
    with pytest.raises(PreconditionError):
        estimate_mu_star(2.0 * box9.spectral.lambda1, box9.spectral, box9.lift)
    with pytest.raises(PreconditionError):
        estimate_mu_star(0.0, box9.spectral, box9.lift)


def test_mu_star_finite_positive_and_deterministic(box9):
    cfg = dict(max_cells=10)
    lam = 0.5 * box9.spectral.lambda1
    mu1, rows1 = estimate_mu_star(lam, box9.spectral, box9.lift, **cfg)
    assert 0.0 < mu1 < np.inf
    assert rows1, "no successful continuation cells"
    mus = [r.mu for r in rows1]
    assert mus == sorted(mus)
    for r in rows1:
        assert r.plus_converged
        assert r.energy_plus < 0
    # energy at zero decreases in mu (closed form), a monotone backdrop
    e0s = [energy(np.zeros(box9.domain.n_interior), box9.params(lam=lam, mu=m)) for m in mus]
    assert all(b < a for a, b in zip(e0s, e0s[1:]))

    mu2, rows2 = estimate_mu_star(lam, box9.spectral, box9.lift, **cfg)
    assert repr((mu1, [(r.mu, r.energy_plus, r.energy_minus) for r in rows1])) == repr(
        (mu2, [(r.mu, r.energy_plus, r.energy_minus) for r in rows2])
    )
