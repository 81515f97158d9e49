"""Certificates: numerical checks of every computable claim about solutions.

Each certificate is a list of named checks with the compared values and the
tolerance used.  Checks certify the discrete inequalities directly (residual,
positivity, manifold class, sign pattern, energy gaps, pairing margins,
convexity radius); discrete spectral quantities are substituted for their
continuum counterparts throughout, so thresholds and the energies they bound
come from the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import IncompleteInputError, PreconditionError
from .functional import Params, energy, gradient_values, hessian_apply
from .grid import Field
from .nehari import Klass, classify
from .numutil import signed_pow
from .solve import SeedKind, SolutionRecord

STRICT_MARGIN = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    lhs: float
    rhs: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    def to_json_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "tolerance": float(self.tolerance),
        }


@dataclass(frozen=True)
class Certificate:
    checks: Tuple[Check, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self):
        return {"overall": self.overall, "checks": [c.to_json_dict() for c in self.checks]}

    def __str__(self):
        lines = []
        for c in self.checks:
            lines.append(
                f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: "
                f"lhs={c.lhs!r} rhs={c.rhs!r} tol={c.tolerance:g}"
            )
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def r_lambda(p: Params) -> float:
    """Strict-convexity ball radius built from the discrete constants:
    ((1/2)(1 - lam/lam1) S / ((2*-1) 2^(2*-2) S^((2*-2)/2)))^(1/(2*-2))."""
    if p.lam >= p.lambda1:
        raise PreconditionError("convexity radius needs lam < lambda1")
    S = p.spectral.sobolev_S
    ts = p.two_star
    num = 0.5 * (1.0 - p.lam / p.lambda1) * S
    den = (ts - 1.0) * 2.0 ** (ts - 2.0) * S ** ((ts - 2.0) / 2.0)
    return float((num / den) ** (1.0 / (ts - 2.0)))


def _energy_at_zero(p: Params) -> float:
    return energy(np.zeros(p.domain.n_interior), p)


def certify_solution(rec: SolutionRecord, p: Params) -> Certificate:
    """Residual, positivity, manifold class, sign pattern and per-record
    energy-gap checks for one converged record."""
    d = p.domain
    checks = []

    g = gradient_values(rec.v.values, p)
    gn = float(np.sqrt(d.weight) * np.linalg.norm(g))
    h1 = float(np.sqrt(d.h1_norm_sq(rec.v.values)))
    tol_res = 1e-7 * (1.0 + h1)
    checks.append(Check("pde residual |grad E| small", gn < tol_res, gn, 0.0, tol_res))

    umin = float(rec.u.values.min())
    checks.append(Check("u = v + mu*phi positive nodewise", umin > 0.0, umin, 0.0, 0.0))

    cls = classify(rec.v.values, p)
    on_manifold = cls.klass in (Klass.PLUS, Klass.MINUS)
    consistent = cls.klass is rec.nehari_class.klass
    checks.append(
        Check(
            f"manifold class is {cls.klass.name} (recorded {rec.nehari_class.klass.name})",
            on_manifold and consistent,
            cls.t_second_deriv,
            0.0,
            cls.tolerance,
        )
    )

    e_val = energy(rec.v.values, p)
    if cls.klass is Klass.PLUS:
        checks.append(
            Check("sign pattern: energy < 0 on Plus", e_val < -STRICT_MARGIN, e_val, 0.0,
                  STRICT_MARGIN)
        )
        e0 = _energy_at_zero(p)
        checks.append(
            Check("energy <= energy(0) on Plus", e_val <= e0 + STRICT_MARGIN, e_val, e0,
                  STRICT_MARGIN)
        )
    elif cls.klass is Klass.MINUS:
        checks.append(
            Check("sign pattern: energy > 0 on Minus", e_val > STRICT_MARGIN, e_val, 0.0,
                  STRICT_MARGIN)
        )
        # branch minimizers sit below energy(0) + q; a minimax record only
        # below the top of the compactness window, m_minus + q < energy(0) + 2q
        q = p.spectral.s_quantum
        if rec.seed is SeedKind.MINIMAX:
            bound = _energy_at_zero(p) + 2.0 * q
            name = "energy below energy(0) + (2/N) S^(N/2) on minimax Minus"
        else:
            bound = _energy_at_zero(p) + q
            name = "energy below energy(0) + (1/N) S^(N/2) on Minus"
        checks.append(
            Check(name, e_val < bound - STRICT_MARGIN, e_val, bound, STRICT_MARGIN)
        )
    return Certificate(tuple(checks))


def nonexistence_certificate(p: Params, candidate: Optional[Field] = None) -> Certificate:
    """Pairing of the equation against the principal eigenfunction.

    For lam >= lambda1, mu > 0 and any nonnegative candidate u the identity

        (lam - lambda1) int(u e1) + lam mu int(phi e1)
            + int((u + mu phi)^(2*-1) e1) = int((-Lap u - rhs) e1)

    has strictly positive left side (>= lam mu int(phi e1) > 0), so no
    nonnegative field can satisfy the equation; the certificate reports the
    margin.  Without a candidate the a-priori margin lam mu int(phi e1) is
    reported.  At mu = 0 that margin is zero, and so is the pairing margin of
    the zero candidate: the probe proves nothing and its margin check fails.
    """
    if p.lam < p.lambda1:
        raise PreconditionError(
            f"nonexistence pairing needs lam >= lambda1 ({p.lam} < {p.lambda1})"
        )
    d = p.domain
    e1 = p.spectral.e1.values
    phi_e1 = d.inner(p.lift.phi.values, e1)
    a_priori = p.lam * p.mu * phi_e1
    checks = [
        Check("int(phi e1) positive", phi_e1 > STRICT_MARGIN, phi_e1, 0.0, STRICT_MARGIN)
    ]

    if candidate is None:
        checks.append(
            Check(
                "a-priori pairing margin lam*mu*int(phi e1) positive",
                a_priori > STRICT_MARGIN,
                a_priori,
                0.0,
                STRICT_MARGIN,
            )
        )
        return Certificate(tuple(checks))

    u = candidate.values
    umin = float(u.min())
    checks.append(Check("candidate nonnegative", umin >= -STRICT_MARGIN, umin, 0.0,
                        STRICT_MARGIN))
    w = u + p.mu_phi
    crit = d.inner(signed_pow(w, p.two_star - 1.0), e1)
    u_e1 = d.inner(u, e1)
    margin = (p.lam - p.lambda1) * u_e1 + a_priori + crit
    checks.append(
        Check(
            "pairing margin (lam-lam1) int(u e1) + lam*mu*int(phi e1) + int((u+mu*phi)^(2*-1) e1)",
            margin > STRICT_MARGIN,
            margin,
            0.0,
            STRICT_MARGIN,
        )
    )
    checks.append(
        Check(
            "margin dominates a-priori part",
            margin >= a_priori - STRICT_MARGIN * max(1.0, abs(a_priori)),
            margin,
            a_priori,
            STRICT_MARGIN,
        )
    )
    # Contradiction witness: pairing the equation residual with e1 recovers
    # -margin up to the eigen-pairing defect, so an exact solution (residual
    # zero) would force the strictly positive margin to vanish.
    resid = gradient_values(u, p)
    resid_e1 = d.inner(resid, e1)
    defect_tol = 1e-8 * (1.0 + abs(margin) + abs(u_e1) * p.lambda1)
    checks.append(
        Check(
            "residual pairing recovers the margin (eigen defect small)",
            abs(resid_e1 + margin) <= defect_tol,
            -resid_e1,
            margin,
            defect_tol,
        )
    )
    return Certificate(tuple(checks))


def convexity_ball_check(
    p: Params,
    trials: int = 200,
    seed: int = 0,
    nplus_records: Sequence[SolutionRecord] = (),
) -> Certificate:
    """Samples the second-variation form on random pairs inside the
    strict-convexity ball and checks computed Plus-branch records lie in it."""
    rl = r_lambda(p)
    d = p.domain
    rng = np.random.default_rng(seed)
    min_form = np.inf
    ok = True
    for _ in range(trials):
        u = rng.standard_normal(d.n_interior)
        nu = np.sqrt(d.h1_norm_sq(u))
        u *= rng.uniform(0.0, 0.999) * rl / nu
        h = rng.standard_normal(d.n_interior)
        h /= np.sqrt(d.h1_norm_sq(h))
        form = d.inner(hessian_apply(u, h, p), h)
        min_form = min(min_form, form)
        if form <= STRICT_MARGIN:
            ok = False
    checks = [
        Check(
            f"second variation positive on {trials} samples in B(0, r_lam), r_lam={rl:.6g}",
            ok,
            float(min_form),
            0.0,
            STRICT_MARGIN,
        )
    ]
    for i, rec in enumerate(nplus_records):
        nv = float(np.sqrt(d.h1_norm_sq(rec.v.values)))
        checks.append(
            Check(f"Plus record {i} inside B(0, r_lam)", nv < rl, nv, rl, 0.0)
        )
    return Certificate(tuple(checks))


def threshold_report(p: Params, records: Sequence[SolutionRecord]) -> Certificate:
    """Tabulates the branch minima against the energy quantum: sign pattern,
    the gap inequality, and each record's position in the compactness window."""
    plus = [r for r in records if r.nehari_class.klass is Klass.PLUS]
    minus = [r for r in records if r.nehari_class.klass is Klass.MINUS]
    if not plus or not minus:
        raise IncompleteInputError(
            "threshold report needs at least one Plus and one Minus record"
        )
    m_plus = min(r.energy for r in plus)
    m_minus = min(r.energy for r in minus)
    q = p.spectral.s_quantum
    e0 = _energy_at_zero(p)

    checks = [
        Check("m_plus <= energy(0)", m_plus <= e0 + STRICT_MARGIN, m_plus, e0, STRICT_MARGIN),
        Check("energy(0) < 0", e0 < -STRICT_MARGIN, e0, 0.0, STRICT_MARGIN),
        Check("0 < m_minus", m_minus > STRICT_MARGIN, m_minus, 0.0, STRICT_MARGIN),
        Check(
            "gap: m_minus < m_plus + (1/N) S^(N/2)",
            m_minus < m_plus + q - STRICT_MARGIN,
            m_minus,
            m_plus + q,
            STRICT_MARGIN,
        ),
    ]
    lo, hi = m_plus + q, m_minus + q
    for i, rec in enumerate(records):
        inside = lo < rec.energy < hi
        if rec.seed is SeedKind.MINIMAX:
            checks.append(
                Check(f"minimax record {i} inside window ({lo:.6g}, {hi:.6g})",
                      inside, rec.energy, lo, 0.0)
            )
        else:
            tag = "inside" if inside else ("below" if rec.energy <= lo else "above")
            checks.append(
                Check(f"record {i} [{rec.nehari_class.klass.name}] {tag} window "
                      f"({lo:.6g}, {hi:.6g})", True, rec.energy, lo, 0.0)
            )
    return Certificate(tuple(checks))
