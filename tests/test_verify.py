from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from bnsolver import functional, verify
from bnsolver.errors import IncompleteInputError, PreconditionError
from bnsolver.functional import Params, energy, gradient_values, hessian_apply
from bnsolver.grid import Domain, Field
from bnsolver.nehari import Klass, classify
from bnsolver.solve import (
    SeedKind,
    build_record,
    ground_state,
    minimize_on_Nminus,
    minimize_on_Nplus,
)
from bnsolver.verify import (
    certify_solution,
    convexity_ball_check,
    nonexistence_certificate,
    r_lambda,
    threshold_report,
)


@pytest.fixture(scope="module")
def cell9(box9):
    p = box9.params(lam_factor=0.5, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, box9.spectral, box9.lift)
    rec_minus = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    return p, rec_plus, rec_minus


def test_certify_converged_records(cell9):
    p, rec_plus, rec_minus = cell9
    cp = certify_solution(rec_plus, p)
    cm = certify_solution(rec_minus, p)
    assert cp.overall, str(cp)
    assert cm.overall, str(cm)
    res_check = next(c for c in cp.checks if "residual" in c.name)
    assert res_check.lhs < res_check.tolerance
    sign_check = next(c for c in cp.checks if "sign pattern" in c.name)
    assert sign_check.lhs < 0


def test_certify_takes_one_product_per_record(cell9, monkeypatch):
    """certify_solution multiplies a record's v by -Lap once and takes no
    ||v||^2 of its own; the certificate is the one that gradient_values,
    classify and energy give when each takes its own products."""
    p, rec_plus, rec_minus = cell9
    assert p.energy_at_zero < 0  # the Params' E(0), taken once per Params
    with monkeypatch.context() as m:
        m.setattr(verify, "gradient_values", lambda v, q, Av=None: gradient_values(v, q))
        m.setattr(verify, "classify", lambda v, q, h1_sq=None: classify(v, q))
        m.setattr(verify, "energy", lambda v, q, h1_sq=None: energy(v, q))
        expected = [certify_solution(rec, p) for rec in (rec_plus, rec_minus)]

    calls = []
    for name in ("apply_neg_laplacian", "h1_norm_sq"):
        def counted(self, values, name=name, method=getattr(Domain, name)):
            calls.append(name)
            return method(self, values)
        monkeypatch.setattr(Domain, name, counted)
    for rec, want in zip((rec_plus, rec_minus), expected):
        calls.clear()
        cert = certify_solution(rec, p)
        assert calls == ["apply_neg_laplacian"]
        assert cert == want and cert.overall, str(cert)


def _fails_alone(cert, fragment):
    failed = [c.name for c in cert.failed()]
    assert len(failed) == 1 and fragment in failed[0], str(cert)


def test_certify_detects_corruption(cell9, box9, monkeypatch):
    """Every check of certify_solution and nonexistence_certificate has a
    corruption that fails it and no other check, but the positivity of
    v + mu*phi, which no change of v fails alone.  A corrupted field is
    stored with its own energy and gradient norm, and a shifted energy with
    the stored energy shifted alike, so the checks of the stored values
    pass there."""
    p, rec_plus, rec_minus = cell9
    d = p.domain

    # residual: a high-frequency perturbation orthogonal to H(v) v moves the
    # gradient but keeps T'(1) inside the manifold tolerance
    v = rec_plus.v.values
    hv = hessian_apply(rec_plus.v.values, rec_plus.v.values, p)
    h = np.sin(7 * np.pi * d.interior_coords[:, 0]) * p.spectral.e1.values
    h -= d.inner(h, hv) / d.inner(hv, hv) * hv
    bad = build_record(p, v + 1e-7 * h, gn=None, seed_kind=rec_plus.seed, iterations=0)
    _fails_alone(certify_solution(bad, p), "residual")

    # stored values: each key non-finite or moved past STORED_RTOL relative
    for key, rec in (("energy", rec_plus), ("grad_norm", rec_minus)):
        for stored in (np.nan, np.inf, getattr(rec, key) * (1.0 + 1e-11)):
            _fails_alone(certify_solution(replace(rec, **{key: stored}), p),
                         f"stored {key}")

    # positivity is read off v + mu*phi, so a node where that sum is 0 also
    # moves the residual and the class: this check cannot fail alone
    v = rec_plus.v.values.copy()
    v[0] = -p.mu_phi[0]
    cert = certify_solution(replace(rec_plus, v=Field(v, d)), p)
    assert any("positive nodewise" in c.name for c in cert.failed()), str(cert)
    _fails_alone(
        certify_solution(replace(rec_plus, klass=rec_minus.klass), p),
        "manifold class",
    )

    # sign patterns: the energy and E(0) shifted by one constant, so every
    # energy difference (and with it every bound relative to energy(0)) is kept
    e_plus, e_minus = energy(rec_plus.v.values, p), energy(rec_minus.v.values, p)
    e0 = p.energy_at_zero

    def shift(m, c):
        m.setattr(verify, "energy", lambda f, q, h1_sq=None: energy(f, q, h1_sq) + c)
        m.setattr(Params, "energy_at_zero", property(lambda q: e0 + c))

    with monkeypatch.context() as m:
        shift(m, 1.0 - e_plus)
        _fails_alone(certify_solution(replace(rec_plus, energy=e_plus + (1.0 - e_plus)), p),
                     "energy < 0 on Plus")
    with monkeypatch.context() as m:
        shift(m, -1.0 - e_minus)
        _fails_alone(certify_solution(replace(rec_minus, energy=e_minus + (-1.0 - e_minus)), p),
                     "energy > 0 on Minus")
    with monkeypatch.context() as m:
        m.setattr(Params, "energy_at_zero", property(lambda q: e_plus - 1.0))
        _fails_alone(certify_solution(rec_plus, p), "energy <= energy(0) on Plus")

    # Minus upper bounds: a quantum from a corrupted Sobolev estimate
    tiny_S = replace(p.spectral, sobolev_S=1e-6 * p.spectral.sobolev_S)
    p_tiny = Params(lam=p.lam, mu=p.mu, spectral=tiny_S, lift=p.lift)
    _fails_alone(certify_solution(rec_minus, p_tiny), "(1/N) S^(N/2) on Minus")
    _fails_alone(certify_solution(replace(rec_minus, seed=SeedKind.MINIMAX), p_tiny),
                 "on minimax Minus")

    # nonexistence pairing
    sp, dom = box9.spectral, box9.domain
    lam1, e1 = sp.lambda1, sp.e1

    def cert(lam, mu, candidate=None, spectral=sp, lift=box9.lift):
        q = Params(lam=lam, mu=mu, spectral=spectral, lift=lift)
        return nonexistence_certificate(q, candidate=candidate)

    # int(phi e1) positive but below the strict margin, while lam*mu lifts
    # the a-priori margin above it
    phi = box9.lift.values
    faint = Field(5e-13 / dom.inner(phi, e1.values) * phi, dom)
    _fails_alone(cert(lam1, 1.0, lift=faint), "int(phi e1) positive")
    _fails_alone(cert(lam1, 1e-14), "a-priori pairing margin")
    u = e1.values.copy()
    u[0] = -1e-3
    _fails_alone(cert(lam1, 0.01, Field(u, dom)), "candidate nonnegative")
    _fails_alone(cert(lam1, 0.0, Field(1e-8 * e1.values, dom)), "pairing margin")
    # negative within the nonnegativity tolerance, amplified by lam - lam1
    _fails_alone(cert(100.0 * lam1, 1e-8, Field(np.full(dom.n_interior, -1e-13), dom)),
                 "margin dominates")
    shifted = replace(sp, lambda1=lam1 * (1.0 + 1e-3))
    _fails_alone(cert(shifted.lambda1, 0.01, e1, spectral=shifted), "eigen defect")


def test_certify_homogeneous_ground_state(box9):
    # the exact discrete ground state of the lam = 0, mu = 0 problem
    p00 = box9.params(lam=0.0, mu=0.0)
    gs = ground_state(0.0, box9.spectral, box9.lift)
    rec = minimize_on_Nminus(p00, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    cert = certify_solution(rec, p00)
    assert rec.klass is Klass.MINUS
    assert cert.overall, str(cert)


def test_certificates_deterministic(cell9):
    p, rec_plus, _ = cell9
    a = certify_solution(rec_plus, p).to_json_dict()
    b = certify_solution(rec_plus, p).to_json_dict()
    assert a == b
    ca = convexity_ball_check(p, [rec_plus]).to_json_dict()
    cb = convexity_ball_check(p, [rec_plus]).to_json_dict()
    assert ca == cb


# -- nonexistence -------------------------------------------------------------


def test_nonexistence_requires_regime(cell9):
    p, _, _ = cell9
    with pytest.raises(PreconditionError):
        nonexistence_certificate(p)


def test_nonexistence_a_priori_and_probe(box9):
    dom = box9.domain
    for factor in (1.0, 1.5):
        p = box9.params(lam=factor * box9.spectral.lambda1, mu=0.01)
        cert = nonexistence_certificate(p)
        assert cert.overall, str(cert)
        probe = nonexistence_certificate(p, candidate=box9.spectral.e1)
        assert probe.overall, str(probe)
        margin = next(c for c in probe.checks if c.name.startswith("pairing margin"))
        a_priori = p.lam * p.mu * dom.inner(box9.lift.values, box9.spectral.e1.values)
        assert margin.lhs >= a_priori - 1e-12


def test_nonexistence_margin_monotone_in_mu(box9):
    lam = box9.spectral.lambda1
    u = box9.spectral.e1
    margins = []
    for mu in (0.01, 0.02, 0.05, 0.1):
        p = box9.params(lam=lam, mu=mu)
        cert = nonexistence_certificate(p, candidate=u)
        margins.append(next(c for c in cert.checks if c.name.startswith("pairing margin")).lhs)
    assert all(b > a for a, b in zip(margins, margins[1:])), margins


def test_nonexistence_degenerate_probe_inconclusive(box9):
    """At mu = 0 the zero candidate and the candidate-free probe prove
    nothing: their zero margins are reported as failed checks."""
    p = box9.params(lam=box9.spectral.lambda1, mu=0.0)
    zero = Field(np.zeros(box9.domain.n_interior), box9.domain)
    cert = nonexistence_certificate(p, candidate=zero)
    assert not cert.overall
    _fails_alone(cert, "pairing margin (lam-lam1)")
    _fails_alone(nonexistence_certificate(p), "a-priori pairing margin")


# -- convexity ball ------------------------------------------------------------


def test_r_lambda_needs_subcritical_lambda(box9):
    p = box9.params(lam=1.5 * box9.spectral.lambda1, mu=0.01)
    with pytest.raises(PreconditionError):
        r_lambda(p)


def test_convexity_ball_positive_forms(cell9):
    p, rec_plus, _ = cell9
    cert = convexity_ball_check(p, [rec_plus])
    assert cert.overall, str(cert)
    starts = ("second variation positive at the worst one-node pair in B(0, r_lam)",
              "Plus record 0 inside B(0, r_lam)",
              "smallest eigenvalue of (E'', -Lap) at Plus record 0 positive")
    assert len(cert.checks) == 3
    assert all(c.name.startswith(s) for c, s in zip(cert.checks, starts)), str(cert)
    rl = r_lambda(p)
    assert np.sqrt(p.domain.h1_norm_sq(rec_plus.v.values)) < rl
    # the Hessian is -Lap minus a positive weight, so sigma < 1; at a
    # resolved Plus record the weight is about lam, so sigma ~ 1 - lam/lambda1
    sigma = cert.checks[2].lhs
    assert 0.0 < sigma < 1.0 and abs(sigma - (1.0 - p.lam / p.lambda1)) < 1e-2


def test_convexity_ball_fails_on_a_thirtyfold_radius(cell9, monkeypatch):
    """With r_lam scaled by 30 the worst one-node pair has a negative form,
    and that check alone fails: the record stays inside the larger ball and
    its eigenvalue does not depend on r_lam."""
    p, rec_plus, _ = cell9
    rl = r_lambda(p)
    monkeypatch.setattr(verify, "r_lambda", lambda p: 30.0 * rl)
    cert = convexity_ball_check(p, [rec_plus])
    _fails_alone(cert, "worst one-node pair")
    assert cert.checks[0].lhs < 0.0


def test_one_node_form_matches_hessian_on_every_node(cell9):
    """The closed form 1 - c_k / A_kk is the second variation
    <E''(u) h, h> on u = s e_k at 0.999 r_lam (sign of phi_k) and
    h = e_k / ||e_k||: the certificate's minimum and its node agree with the
    Hessian applied on every node, to 1e-12."""
    p, _, _ = cell9
    d = p.domain
    rl = r_lambda(p)
    forms = np.empty(d.n_interior)
    for k in range(d.n_interior):
        e = np.zeros(d.n_interior)
        e[k] = 1.0
        ne = np.sqrt(d.h1_norm_sq(e))
        u = np.sign(p.mu_phi[k]) * (0.999 * rl / ne) * e
        h = e / ne
        forms[k] = d.inner(hessian_apply(u, h, p), h)
    check = convexity_ball_check(p).checks[0]
    assert abs(check.lhs - forms.min()) <= 1e-12
    assert f"(node {int(np.argmin(forms))})" in check.name


def test_hessian_eigenvalue_matches_dense_eigh(cell9):
    """The LOBPCG eigenvalue of (E''(v+), -Lap) against scipy.linalg.eigh
    of the dense pencil built column by column from hessian_apply."""
    p, rec_plus, _ = cell9
    d = p.domain
    v = rec_plus.v.values
    H = np.stack([hessian_apply(v, e, p) for e in np.eye(d.n_interior)], axis=1)
    ref = scipy.linalg.eigh(H, d.matrix.toarray(), eigvals_only=True, subset_by_index=[0, 0])
    sigma, resid, _ = verify.hessian_min_eigenvalue(p, v)
    assert resid <= verify.CONVEXITY_EIG_RTOL
    assert abs(sigma - ref[0]) <= 1e-8
    check = convexity_ball_check(p, [rec_plus]).checks[2]
    assert check.lhs == sigma


def test_hessian_eigen_solve_from_an_eigenvector_runs_no_iteration(box9):
    """At v = 0 and mu = 0 the Hessian is A - lam I, whose lowest
    eigenvector is the start vector e1: the solve returns it after 0
    iterations, with sigma = 1 - lam / lambda1."""
    p = box9.params(lam=0.5 * box9.spectral.lambda1, mu=0.0)
    sigma, resid, iters = verify.hessian_min_eigenvalue(p, np.zeros(p.domain.n_interior))
    assert iters == 0
    assert resid <= verify.CONVEXITY_EIG_RTOL
    assert abs(sigma - 0.5) <= 1e-12


def test_hessian_eigen_solve_stopped_short_fails_its_check(cell9, monkeypatch):
    """An eigen solve that stops short of its tolerance fails its check, and
    the check's name gives the residual (no LOBPCG warning escapes)."""
    p, rec_plus, _ = cell9
    monkeypatch.setattr(verify, "CONVEXITY_EIG_MAXITER", 1)
    monkeypatch.setattr(verify, "CONVEXITY_EIG_RTOL", 1e-30)
    cert = convexity_ball_check(p, [rec_plus])
    _fails_alone(cert, "eigen solve stopped at relative residual")
    assert "rtol 1e-30, after 1 iterations" in cert.failed()[0].name
    assert cert.failed()[0].lhs > 0.0


def test_convexity_fails_far_outside(box9):
    # scaled ground state far outside the ball gives a negative form with h = u.
    # (The threshold scale: with h = u the form turns negative once
    # ||u|| exceeds (2*-1)^(-1/(2*-2)) ||U0||, around 13 r_lambda here, so the
    # probe uses 20 r_lambda.)
    p00 = box9.params(lam=0.0, mu=0.0)
    gs = ground_state(0.0, box9.spectral, box9.lift)
    rl = r_lambda(p00)
    nv = np.sqrt(box9.domain.h1_norm_sq(gs.values))
    u = (20.0 * rl / nv) * gs.values
    form = box9.domain.inner(hessian_apply(u, u, p00), u)
    assert form < 0


# -- thresholds -----------------------------------------------------------------


def test_threshold_report_passes(cell9):
    p, rec_plus, rec_minus = cell9
    cert = threshold_report(p, [rec_plus, rec_minus])
    assert cert.overall, str(cert)
    gap = next(c for c in cert.checks if c.name.startswith("gap"))
    assert gap.lhs < gap.rhs


def test_energy_at_zero_is_computed_once_per_params(cell9, monkeypatch):
    """The certificates of a cell and its threshold report share one E(0)."""
    p, rec_plus, rec_minus = cell9
    zeros = []

    def counted(v, q, h1_sq=None):
        zeros.append(not np.any(v))
        return energy(v, q, h1_sq)

    monkeypatch.setattr(functional, "energy", counted)
    fresh = Params(lam=p.lam, mu=p.mu, spectral=p.spectral, lift=p.lift)
    assert certify_solution(rec_plus, fresh).overall
    assert certify_solution(rec_minus, fresh).overall
    assert threshold_report(fresh, [rec_plus, rec_minus]).overall
    assert zeros == [True]


def test_threshold_report_needs_both_branches(cell9):
    p, rec_plus, _ = cell9
    with pytest.raises(IncompleteInputError):
        threshold_report(p, [rec_plus])
