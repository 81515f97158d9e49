"""Certificates: numerical checks of every computable claim about solutions.

Each certificate is a list of named checks with the compared values and the
tolerance used.  Checks certify the discrete inequalities directly (residual,
positivity, manifold class, sign pattern, energy gaps, pairing margins,
convexity radius); discrete spectral quantities are substituted for their
continuum counterparts throughout, so thresholds and the energies they bound
come from the same grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import IncompleteInputError, PreconditionError
from .functional import Params, energy, gradient_values, hessian_weight
from .grid import Field, lowest_eigenpair
from .nehari import Klass, classify
from .numutil import abs_pow, signed_pow
from .solve import SeedKind, SolutionRecord

STRICT_MARGIN = 1e-12
# Convexity ball: the one-node pairs sit on the sphere of this fraction of
# r_lam; the Hessian eigen solve at a Plus record stops at this relative
# residual, or fails after this many LOBPCG iterations.
ONE_NODE_RADIUS = 0.999
CONVEXITY_EIG_RTOL = 1e-8
CONVEXITY_EIG_MAXITER = 100


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
        return asdict(self)


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


def certify_solution(rec: SolutionRecord, p: Params) -> Certificate:
    """Residual, positivity, manifold class, sign pattern and per-record
    energy-gap checks for one converged record."""
    d = p.domain
    checks = []

    g = gradient_values(rec.v.values, p)
    gn = d.l2_norm(g)
    h1 = float(np.sqrt(d.h1_norm_sq(rec.v.values)))
    tol_res = 1e-7 * (1.0 + h1)
    checks.append(Check("pde residual |grad E| small", gn < tol_res, gn, 0.0, tol_res))

    umin = float(rec.u.values.min())
    checks.append(Check("u = v + mu*phi positive nodewise", umin > 0.0, umin, 0.0, 0.0))

    cls = classify(rec.v.values, p)
    on_manifold = cls.klass in (Klass.PLUS, Klass.MINUS)
    consistent = cls.klass is rec.klass
    checks.append(
        Check(
            f"manifold class is {cls.klass.name} (recorded {rec.klass.name})",
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
        e0 = p.energy_at_zero
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
            bound = p.energy_at_zero + 2.0 * q
            name = "energy below energy(0) + (2/N) S^(N/2) on minimax Minus"
        else:
            bound = p.energy_at_zero + q
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
    phi_e1 = d.inner(p.lift.values, e1)
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


def convexity_ball_check(p: Params, nplus_records: Sequence[SolutionRecord] = ()) -> Certificate:
    """Strict convexity of E on B(0, r_lam), checked deterministically.

    The second variation is E''(u)[h, h] = ||h||^2 - int c(u) h^2, with
    c(u) = lam + (2*-1)|u + mu phi|^(2*-2).  Concentration makes the critical
    term large, so the form is tested on every one-node pair: u = s e_k on
    the sphere of radius ONE_NODE_RADIUS * r_lam (s = that radius / ||e_k||,
    with the sign of phi_k) and h = e_k / ||e_k||, where it is
    1 - c_k / A_kk with A = -Lap; one vectorized pass finds the worst node.
    (A white-noise h only probes 1 - lam |h|_2^2, which cannot fail.)  At
    each Plus record v+ the smallest eigenvalue of (E''(v+), -Lap),
    min_h E''(v+)[h, h] / ||h||^2, must be positive, and v+ must lie inside
    the ball.
    """
    rl = r_lambda(p)
    d = p.domain
    ts = p.two_star
    akk = d.matrix.diagonal()
    s = ONE_NODE_RADIUS * rl / np.sqrt(d.weight * akk)
    form = 1.0 - (p.lam + (ts - 1.0) * abs_pow(s + np.abs(p.mu_phi), ts - 2.0)) / akk
    k = int(np.argmin(form))
    checks = [
        Check(
            f"second variation positive at the worst one-node pair in B(0, r_lam) "
            f"(node {k}), r_lam={rl:.6g}",
            form[k] > STRICT_MARGIN,
            form[k],
            0.0,
            STRICT_MARGIN,
        )
    ]
    for i, rec in enumerate(nplus_records):
        nv = float(np.sqrt(d.h1_norm_sq(rec.v.values)))
        checks.append(
            Check(f"Plus record {i} inside B(0, r_lam)", nv < rl, nv, rl, 0.0)
        )
        sigma, resid = hessian_min_eigenvalue(p, rec.v.values)
        name = f"smallest eigenvalue of (E'', -Lap) at Plus record {i} positive"
        if not resid <= CONVEXITY_EIG_RTOL:
            name += (f" (eigen solve stopped at relative residual {resid:.3e}, "
                     f"rtol {CONVEXITY_EIG_RTOL:g})")
        checks.append(
            Check(name, sigma > STRICT_MARGIN and resid <= CONVEXITY_EIG_RTOL, sigma, 0.0,
                  STRICT_MARGIN)
        )
    return Certificate(tuple(checks))


def hessian_min_eigenvalue(p: Params, vvals) -> Tuple[float, float]:
    """(sigma, relative residual) of the smallest eigenvalue of
    H x = sigma A x, H = A - diag(c) the Hessian of E at v (c from
    `functional.hessian_weight`) and A = -Lap, by `grid.lowest_eigenpair`
    from the principal eigenfunction.  The residual is
    ||H x - sigma A x||_2 / ||A x||_2 at the returned x; LOBPCG stops once
    it is below CONVEXITY_EIG_RTOL or after CONVEXITY_EIG_MAXITER
    iterations, and the caller judges it."""
    d = p.domain
    A = d.matrix
    c = hessian_weight(vvals, p)

    def H(X):
        return A @ X - c[:, None] * X

    # With x normalized to x^T A x = 1, ||A x||_2 >= sqrt(lambda1), so an
    # absolute residual below CONVEXITY_EIG_RTOL sqrt(lambda1) is a relative
    # one below CONVEXITY_EIG_RTOL.  A stop short of it is reported by the
    # residual, not by LOBPCG's warning.
    sigma, x = lowest_eigenpair(d, H, p.spectral.e1.values,
                                CONVEXITY_EIG_RTOL * np.sqrt(p.lambda1),
                                CONVEXITY_EIG_MAXITER, B=A)
    Ax = A @ x
    resid = float(np.linalg.norm(H(x[:, None])[:, 0] - sigma * Ax) / np.linalg.norm(Ax))
    return sigma, resid


def threshold_report(p: Params, records: Sequence[SolutionRecord]) -> Certificate:
    """Tabulates the branch minima against the energy quantum: sign pattern,
    the gap inequality, and each record's position in the compactness window."""
    plus = [r for r in records if r.klass is Klass.PLUS]
    minus = [r for r in records if r.klass is Klass.MINUS]
    if not plus or not minus:
        raise IncompleteInputError(
            "threshold report needs at least one Plus and one Minus record"
        )
    m_plus = min(r.energy for r in plus)
    m_minus = min(r.energy for r in minus)
    q = p.spectral.s_quantum
    e0 = p.energy_at_zero

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
                Check(f"record {i} [{rec.klass.name}] {tag} window "
                      f"({lo:.6g}, {hi:.6g})", True, rec.energy, lo, 0.0)
            )
    return Certificate(tuple(checks))
