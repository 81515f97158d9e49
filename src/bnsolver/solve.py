"""Solution searches on the two Nehari manifold parts.

The local branch near zero (class Plus) and the excited branch (class Minus)
are found by projected gradient descent — a gradient step followed by
rescaling onto the manifold via the fibering roots of the stepped ray — with
a final Newton polish of the full first-order system.  Both descents take
their steps through one Armijo line search (`_armijo`).  Bubble-translated
seeds on annular domains, the boundary-pinned minimax search, and
continuation in mu toward the solvability boundary build on the same two
minimizers.

Fixed constants (module level, below): the Newton inner MINRES tolerance
floor, the bubble cutoff radius (`_bubble_delta0`: the annulus' delta0 capped
at 0.45, 0.25 on a box), the multistart bubble scalings and deduplication
distance, the minimax cone steps per point and round, and the mu*
continuation schedule (first step, growth, shrink, step floor, failure
limit).  Options that stay are the ones callers set to more than one value:
`max_iter`/`budget_factor` of the branch minimizers (the nonexistence
criterion runs them at a tenfold budget), `budget_factor` everywhere (a
config key), `n_radii`/`relax_rounds` of the minimax search (the mu*
criterion runs it smaller) and `max_cells`/`keep_records` of the
continuation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    BranchAbsentError,
    DegenerateSeedError,
    MuBeyondRangeError,
    MuTooLargeError,
    NonconvergenceError,
    PreconditionError,
    ProjectionError,
    SeedingError,
)
from .functional import FiberingProfile, Params, energy, gradient_values
from .grid import AnnulusD, Domain, Field, _default_bump
from .lift import compose_solution
from .nehari import Klass, NehariClass, barycenter, classify, find_roots, reduced_functional
from .numutil import abs_pow, signed_pow, smoothstep, solve_minres

NEWTON_INNER_RTOL = 1e-9  # floor of the Newton MINRES tolerance min(1e-2, . + 0.1 |grad|)
BUBBLE_T_FACTORS = (0.5, 1.0, 2.0)  # multistart composite vplus + f t_star bubble, f in these
DEDUP_TOL = 1e-4  # H^1_0 distance below which two multistart records are one
MINIMAX_INNER_STEPS = 2  # cone steps per family point and relaxation round

# mu* continuation schedule
MU_INIT = 1e-3  # first mu step
MU_GROWTH = 1.6  # step factor after an accepted mu
MU_SHRINK = 0.5  # step factor after a failed mu
MU_MIN_STEP_REL = 1e-6  # step floor, relative to max(mu, MU_INIT)
MU_FAIL_LIMIT = 3  # consecutive failures at the floor that end the continuation


class SeedKind(enum.Enum):
    ZERO_RELAX = "zero_relax"
    GROUND_STATE_RAY = "ground_state_ray"
    BUBBLE = "bubble"
    MINIMAX = "minimax"
    USER = "user"


@dataclass
class SolutionRecord:
    v: Field
    u: Field
    energy: float
    nehari_class: NehariClass
    grad_norm: float
    positive: bool
    seed: SeedKind
    iterations: int
    lam: float
    mu: float
    barycenter: np.ndarray
    grad_dir_integral: np.ndarray
    seed_direction: Optional[np.ndarray] = None
    seed_energy: Optional[float] = None
    seed_below_threshold: Optional[bool] = None

    def to_json_dict(self):
        d = {
            "lambda": self.lam,
            "mu": self.mu,
            "energy": self.energy,
            "class": self.nehari_class.klass.name,
            "grad_norm": self.grad_norm,
            "positive": bool(self.positive),
            "seed": self.seed.value,
            "barycenter": [float(x) for x in self.barycenter],
            "grad_dir_integral": [float(x) for x in self.grad_dir_integral],
            "iterations": int(self.iterations),
        }
        if self.seed_direction is not None:
            d["seed_direction"] = [float(x) for x in self.seed_direction]
        if self.seed_energy is not None:
            d["seed_energy"] = self.seed_energy
        if self.seed_below_threshold is not None:
            d["seed_below_threshold"] = bool(self.seed_below_threshold)
        return d


def _target_tol(p: Params, vvals, e_val):
    """Convergence target on the gradient norm; well inside every certificate
    tolerance used downstream."""
    h1 = np.sqrt(p.domain.h1_norm_sq(vvals))
    return 1e-9 * (1.0 + h1 + abs(e_val))


def _wnorm(domain: Domain, vals):
    return float(np.sqrt(domain.weight) * np.linalg.norm(vals))


def _unit(vals, domain: Domain, ts):
    """vals scaled to unit critical norm, or None when it vanishes."""
    n = domain.lp_norm(vals, ts)
    return vals / n if n > 0.0 else None


def _or_none(f, *args):
    """f(*args), or None when a ray on the way leaves the two-root regime."""
    try:
        return f(*args)
    except (MuTooLargeError, MuBeyondRangeError):
        return None


def _armijo(trial, f0, slope, beta, max_backtracks):
    """Armijo backtracking from step beta, halved on each rejection.

    trial(beta) returns (f, ...) of the trial point, or None when it has
    none; a None trial, a MuTooLargeError and a MuBeyondRangeError count as
    rejections.  Returns (trial(beta), beta) of the first trial with
    f < f0 - 1e-4 * beta * slope, or None when all `max_backtracks` are
    rejected.
    """
    for _ in range(max_backtracks):
        out = _or_none(trial, beta)
        if out is not None and out[0] < f0 - 1e-4 * beta * slope:
            return out, beta
        beta *= 0.5
    return None


def _newton_polish(p: Params, vvals, budget_factor=1.0, flags=None):
    """Damped Newton on the full first-order system, at most
    max(10, int(40 * budget_factor)) steps; returns (values, grad_norm,
    steps, converged).  The convergence flag of every inner MINRES solve is
    appended to the list `flags` when one is given."""
    d = p.domain
    A = d.matrix
    H = A.copy()  # the Hessian A - diag(...), its diagonal reset at every step
    a_diag = A.diagonal()
    ts = p.two_star
    v = np.array(vvals, dtype=float)
    g = gradient_values(v, p)
    gn = _wnorm(d, g)
    max_steps = max(10, int(40 * budget_factor))
    steps = 0
    while steps < max_steps:
        e_val = energy(v, p)
        if gn <= _target_tol(p, v, e_val):
            return v, gn, steps, True
        w = v + p.mu_phi
        H.setdiag(a_diag - (p.lam + (ts - 1.0) * abs_pow(w, ts - 2.0)))
        delta, ok = solve_minres(H, -g, rtol=min(1e-2, NEWTON_INNER_RTOL + 0.1 * gn),
                                 maxiter=4000, label="newton step")
        if flags is not None:
            flags.append(ok)
        step = 1.0
        accepted = False
        for _ in range(30):
            vt = v + step * delta
            gt = gradient_values(vt, p)
            gnt = _wnorm(d, gt)
            if gnt < (1.0 - 0.25 * step) * gn:
                v, g, gn = vt, gt, gnt
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        steps += 1
    e_val = energy(v, p)
    return v, gn, steps, gn <= _target_tol(p, v, e_val)


def _short_note(flags):
    return f"{flags.count(False)} of {len(flags)} Newton inner solves stopped short"


def zero_relax_seed(p: Params) -> Field:
    """One descent step from zero: the negative gradient of the energy at 0."""
    s = p.lam * p.mu_phi + signed_pow(p.mu_phi, p.two_star - 1.0)
    if not np.any(s):
        raise BranchAbsentError("gradient at zero vanishes (mu = 0): no local branch")
    return Field(s, p.domain)


def minimize_on_Nplus(
    p: Params,
    seed: Optional[Field] = None,
    max_iter: int = 200,
    budget_factor: float = 1.0,
) -> SolutionRecord:
    """Minimize the energy on the Plus part of the manifold.

    Projected descent (gradient step, rescale to the t_plus root of the new
    ray) with an absolute-value move whenever an iterate goes negative,
    finished by a Newton polish.
    """
    if p.mu == 0.0:
        raise BranchAbsentError("the Plus branch is empty at mu = 0")
    d = p.domain
    seed_kind = SeedKind.USER if seed is not None else SeedKind.ZERO_RELAX
    if seed is None:
        seed = zero_relax_seed(p)

    def project_plus(vals):
        rr = find_roots(vals, p)
        return None if rr.t_plus is None else rr.t_plus * vals

    v = project_plus(seed.values)
    if v is None:
        # |seed| has nonnegative pairing against phi; try once before giving up
        v = project_plus(np.abs(seed.values))
    if v is None:
        raise DegenerateSeedError(
            "seed ray has nonpositive pairing sign: no t_plus root (restart advised)"
        )

    # at most 50 descent steps (scaled by the budget), and fewer than max_iter
    cap = min(max(1, int(max_iter * budget_factor)) - 1, max(10, int(50 * budget_factor)))
    iterations = 1
    warm_dir = None
    alpha = 1.0
    e_val = energy(v, p)
    for _ in range(cap):
        g = gradient_values(v, p)
        if _wnorm(d, g) <= 1e3 * _target_tol(p, v, e_val):
            break
        dr = d.solve_poisson(g, x0=warm_dir)
        warm_dir = dr

        def trial(beta):
            vt = project_plus(v - beta * dr)
            return None if vt is None else (energy(vt, p), vt)

        step = _armijo(trial, e_val, d.inner(g, dr), alpha, 25)
        if step is None:
            break
        (e_val, v), beta = step
        alpha = min(beta * 2.0, 4.0)
        iterations += 1
        if v.min() < -1e-13 * max(1.0, np.abs(v).max()):
            # absolute-value move: energy does not increase on the Plus rescale
            va = _or_none(project_plus, np.abs(v))
            if va is not None:
                e_abs = energy(va, p)
                if e_abs <= e_val + 1e-12 * (1 + abs(e_val)):
                    v, e_val = va, e_abs

    flags = []
    v, gn, steps, ok = _newton_polish(p, v, budget_factor, flags)
    iterations += steps
    if not ok:
        raise NonconvergenceError(
            f"Plus-branch solve stalled at grad norm {gn:.3e} after {iterations} iterations "
            f"({_short_note(flags)})",
            residual=gn,
        )
    return build_record(p, v, gn, seed_kind, iterations)


def build_record(p, vvals, gn, seed_kind, iterations) -> SolutionRecord:
    """Record of the manifold point v with fresh diagnostics (energy, class,
    positivity of u = v + mu*phi, barycenter)."""
    d = p.domain
    vf = Field(vvals, d)
    uf = compose_solution(vf, p.mu, p.lift)
    cls = classify(vvals, p)
    return SolutionRecord(
        v=vf,
        u=uf,
        energy=energy(vvals, p),
        nehari_class=cls,
        grad_norm=gn,
        positive=bool(uf.values.min() > 0.0),
        seed=seed_kind,
        iterations=iterations,
        lam=p.lam,
        mu=p.mu,
        barycenter=barycenter(vf),
        grad_dir_integral=d.gradient_direction_integral(vvals),
    )


def _cone_step(p: Params, v, t, j_val, g, dr, beta, max_backtracks):
    """One projected line-search step of J on the unit critical sphere's
    nonnegative cone.

    v is the current cone point with J(v) = j_val and t = t_minus(v), g the
    gradient at t v and dr its Riesz lift.  The lift is made tangent to the
    sphere at v, and trial points max(v - beta * dtan, 0) / norm are scored
    by J through `_armijo` (a trial point that vanishes or has no t_minus
    root counts as a rejection).  Returns ((J, t, w, v), beta) of the
    accepted point with w = t v, or None when dtan is not a descent
    direction or all `max_backtracks` trials are rejected.
    """
    d = p.domain
    ts = p.two_star
    theta = d.weight * float(np.dot(signed_pow(v, ts - 1.0), dr))
    dtan = dr - theta * v
    slope = t * d.inner(g, dtan)
    if slope <= 0:
        return None

    def trial(beta):
        vt = _unit(np.maximum(v - beta * dtan, 0.0), d, ts)
        return None if vt is None else (*reduced_functional(vt, p), vt)

    return _armijo(trial, j_val, slope, beta, max_backtracks)


def minimize_on_Nminus(
    p: Params,
    seed: Field,
    max_iter: int = 300,
    budget_factor: float = 1.0,
    seed_kind: SeedKind = SeedKind.USER,
) -> SolutionRecord:
    """Minimize the reduced functional J(v) = E(t_minus(v) v) over the
    nonnegative cone of the critical-norm unit sphere."""
    d = p.domain
    ts = p.two_star
    if seed is None or not np.any(seed.values):
        raise ArgumentError("Minus-branch minimization needs a nonzero seed")
    v = _unit(np.abs(seed.values), d, ts)
    if v is None:
        raise ProjectionError("seed vanishes after cone projection")

    budget = max(1, int(max_iter * budget_factor))
    iterations = 0
    warm_dir = None
    beta0 = 1.0
    flags = []

    j_val, t, w = reduced_functional(v, p)
    for attempt in range(3):
        for it in range(budget):
            iterations += 1
            g = gradient_values(w, p)
            gn = _wnorm(d, g)
            if gn <= 1e2 * _target_tol(p, w, j_val):
                break
            dr = d.solve_poisson(g, x0=warm_dir)
            warm_dir = dr
            step = _cone_step(p, v, t, j_val, g, dr, beta0, max_backtracks=30)
            if step is None:
                break
            (j_val, t, w, v), beta = step
            beta0 = min(beta * 2.0, 4.0)

        wv, gn, steps, ok = _newton_polish(p, w, budget_factor, flags)
        iterations += steps
        if ok:
            cls = classify(wv, p)
            e_val = energy(wv, p)
            if cls.klass is Klass.MINUS and e_val > 0:
                return build_record(p, wv, gn, seed_kind, iterations)
        # polish drifted off the Minus part; restart descent from the cone
        # projection of the best manifold point with smaller steps
        v = _unit(np.abs(w), d, ts)
        if v is None:
            raise ProjectionError("descent collapsed to zero")
        j_val, t, w = reduced_functional(v, p)
        beta0 *= 0.25

    raise NonconvergenceError(
        f"Minus-branch solve did not certify after {iterations} iterations "
        f"(last grad norm {gn:.3e}; {_short_note(flags)})",
        residual=gn,
    )


# -- bubbles -----------------------------------------------------------------


@dataclass(frozen=True)
class BubbleSeed:
    epsilon: float
    direction: np.ndarray
    delta0: float
    field: Field
    peak: np.ndarray


def _bubble_frame(domain: Domain):
    """Coordinates the bubble formulas live in: absolute for the annulus,
    center-scaled for a box (unit sphere maps to the inscribed sphere)."""
    if isinstance(domain.spec.shape, AnnulusD):
        return domain.interior_coords, 1.0
    sides = domain.spec.shape.sides
    center = np.array([0.5 * s for s in sides])
    rho = 0.5 * min(sides)
    return (domain.interior_coords - center) / rho, rho


def make_bubble(epsilon: float, direction, domain: Domain, delta0: float) -> BubbleSeed:
    """Cutoff concentration profile peaked near (1 - eps) * direction.

    Radial cutoff ramps up over [delta0, 2 delta0], is identically one on
    [2 delta0, 1/(2 delta0)], and ramps down over [1/(2 delta0), 1/delta0].
    """
    if not 0.0 < epsilon < 1.0:
        raise ArgumentError(f"epsilon must lie in (0, 1), got {epsilon}")
    y = np.asarray(direction, dtype=float)
    if y.shape != (domain.ndim,) or abs(np.linalg.norm(y) - 1.0) > 1e-10:
        raise ArgumentError("direction must be a unit vector of the domain dimension")
    if not 0.0 < delta0 < 0.5:
        raise ArgumentError(
            f"delta0 must lie in (0, 0.5) so the cutoff plateau is nonempty, got {delta0}"
        )
    N = domain.ndim
    pts, _ = _bubble_frame(domain)
    r = np.linalg.norm(pts, axis=1)
    cut = smoothstep((r - delta0) / delta0)
    hi_lo = 1.0 / (2.0 * delta0)
    hi_hi = 1.0 / delta0
    cut = cut * (1.0 - smoothstep((r - hi_lo) / (hi_hi - hi_lo)))
    peak = (1.0 - epsilon) * y
    amp = (N * (N - 2.0) * epsilon**2) ** ((N - 2.0) / 4.0)
    d2 = np.sum((pts - peak) ** 2, axis=1)
    prof = amp / (epsilon**2 + d2) ** ((N - 2.0) / 2.0)
    vals = cut * prof
    if not np.any(vals > 0):
        raise ArgumentError("bubble support misses every interior node")
    return BubbleSeed(
        epsilon=float(epsilon), direction=y, delta0=float(delta0),
        field=Field(vals, domain), peak=peak,
    )


def _bubble_delta0(domain: Domain):
    """Bubble cutoff radius: the annulus' own delta0 kept below the 1/2 that
    a nonempty plateau needs, and 0.25 on a box."""
    shape = domain.spec.shape
    return min(shape.delta0, 0.45) if isinstance(shape, AnnulusD) else 0.25


def multistart_Nminus(
    p: Params,
    directions: Sequence,
    epsilon: float,
    vplus: SolutionRecord,
    budget_factor: float = 1.0,
):
    """Bubble-seeded Minus-branch searches, one per direction, deduplicated.

    Each direction seeds with vplus + t * bubble projected onto the Minus part
    along the composite ray, t = t_star * BUBBLE_T_FACTORS.  The seed energy
    is compared against the compactness threshold m_plus + (1/N) S^{N/2} and
    recorded; directions whose composite admits no projection are skipped.
    Records closer than DEDUP_TOL in H^1_0 to a kept one are dropped.  Raises
    SeedingError if every direction fails.
    """
    d = p.domain
    ts = p.two_star
    delta0 = _bubble_delta0(d)
    threshold = vplus.energy + p.spectral.s_quantum

    seeds = []
    failures = []
    for y in directions:
        try:
            bub = make_bubble(epsilon, y, d, delta0)
        except ArgumentError as e:
            failures.append((y, str(e)))
            continue
        U = bub.field.values
        aU = d.h1_norm_sq(U) - p.lam * d.l2_norm_sq(U)
        bU = d.weight * float(np.sum(abs_pow(U, ts)))
        t_star = (aU / bU) ** (1.0 / (ts - 2.0)) if aU > 0 and bU > 0 else 1.0
        best = None
        for tf in BUBBLE_T_FACTORS:
            out = _or_none(reduced_functional, vplus.v.values + tf * t_star * U, p)
            if out is not None and (best is None or out[0] < best[1]):
                best = (out[2], out[0])
        if best is None:
            failures.append((y, "composite ray admits no Minus projection"))
            continue
        seeds.append((np.asarray(y, float), best[0], best[1], best[1] < threshold))
    if not seeds:
        raise SeedingError(f"no direction produced a Minus seed: {failures}")

    records = []
    for y, w, e_seed, below in seeds:
        try:
            rec = minimize_on_Nminus(p, Field(w, d), budget_factor=budget_factor,
                                     seed_kind=SeedKind.BUBBLE)
        except (NonconvergenceError, ProjectionError) as e:
            failures.append((y, str(e)))
            continue
        rec.seed_direction, rec.seed_energy, rec.seed_below_threshold = y, e_seed, below
        records.append(rec)

    distinct = []
    for rec in records:
        if all(
            np.sqrt(d.h1_norm_sq(rec.v.values - kept.v.values)) > DEDUP_TOL
            for kept in distinct
        ):
            distinct.append(rec)
    return distinct


# -- minimax -----------------------------------------------------------------


@dataclass
class MinimaxResult:
    record: Optional[SolutionRecord]
    gamma_estimate: float
    window: tuple
    reason: str

    @property
    def found(self):
        return self.record is not None


def sphere_directions(N: int, count: Optional[int] = None):
    """Unit directions in R^N: the 2N signed axes first, then the 2^N
    normalized diagonals; the first `count` of them (all when None)."""
    dirs = []
    for k in range(N):
        for s in (+1.0, -1.0):
            e = np.zeros(N)
            e[k] = s
            dirs.append(e)
    for signs in np.ndindex(*(2,) * N):
        v = np.array([1.0 if s == 0 else -1.0 for s in signs])
        dirs.append(v / np.linalg.norm(v))
    return dirs[:count]


def minimax_gamma(
    p: Params,
    epsilon: float,
    vplus: SolutionRecord,
    vminus: SolutionRecord,
    n_radii: int = 4,
    relax_rounds: int = 3,
    budget_factor: float = 1.0,
) -> MinimaxResult:
    """Boundary-pinned inf-sup search for the higher critical level.

    A finite family over the ball lattice {r_k y_j} (y_j the sphere
    directions of the domain dimension) is relaxed by coordinate-wise descent
    of the reduced functional, MINIMAX_INNER_STEPS cone steps per point and
    round, with the boundary ring pinned to normalized bubbles at the given
    epsilon.  Interior points start as blends with the antipodal bubble
    (weight growing toward the center), so the family links through two-peak
    transition states where the sup concentrates.  The relaxed maximizer is
    polished by Newton and accepted only if it certifies with class Minus and
    energy inside the compactness window; not-found is a legitimate outcome
    at coarse resolution.
    """
    d = p.domain
    if not isinstance(d.spec.shape, AnnulusD):
        raise PreconditionError("minimax search needs the annular domain")
    delta0 = _bubble_delta0(d)
    ts = p.two_star
    q = p.spectral.s_quantum
    window = (vplus.energy + q, vminus.energy + q)

    r_bar = 1.0 - epsilon
    radii = np.linspace(0.0, r_bar, n_radii)

    family = {}
    for j, y in enumerate(sphere_directions(d.ndim)):
        for k, r in enumerate(radii):
            eps_k = float(np.clip(1.0 - r, epsilon, 0.97))
            vals = make_bubble(eps_k, y, d, delta0).field.values
            mix = 1.0 - r / r_bar if r_bar > 0 else 1.0
            if mix > 0:
                vals = vals + mix * make_bubble(eps_k, -y, d, delta0).field.values
            vals = _unit(vals, d, ts)
            if vals is not None:
                family[(j, k)] = vals

    values = {key: reduced_functional(v, p)[0] for key, v in family.items()}
    boundary_keys = {key for key in family if key[1] == len(radii) - 1}

    for _ in range(relax_rounds):
        for key in sorted(family):
            if key in boundary_keys:
                continue
            v = family[key]
            jv, t, w = reduced_functional(v, p)
            for _ in range(MINIMAX_INNER_STEPS):
                g = gradient_values(w, p)
                step = _cone_step(p, v, t, jv, g, d.solve_poisson(g), 1.0, max_backtracks=20)
                if step is None:
                    break
                (jv, t, w, v), _ = step
            family[key], values[key] = v, jv

    gamma_est = max(values.values())
    arg = max(values, key=lambda k: values[k])
    _, _, w_star = reduced_functional(family[arg], p)

    flags = []
    wv, gn, steps, ok = _newton_polish(p, w_star, budget_factor, flags)
    if not ok:
        return MinimaxResult(None, gamma_est, window,
                             f"polish stalled at grad norm {gn:.3e} ({_short_note(flags)})")
    rec = build_record(p, wv, gn, SeedKind.MINIMAX, steps)
    if rec.nehari_class.klass is not Klass.MINUS:
        return MinimaxResult(None, gamma_est, window,
                             f"polished point classified {rec.nehari_class.klass.name}")
    if not window[0] < rec.energy < window[1]:
        return MinimaxResult(
            None, gamma_est, window,
            f"polished energy {rec.energy:.6g} outside window ({window[0]:.6g}, {window[1]:.6g})",
        )
    return MinimaxResult(rec, gamma_est, window, "accepted")


# -- ground state cache and continuation --------------------------------------


def _admissible(p: Params) -> bool:
    """Operational admissibility of (lam, mu) with 0 < lam < lambda1 and
    mu > 0: t0 well defined and T'(t0) > 0 on the rays of e1 and of the
    default bump (unit L2 norm).  Advisory; the branch solvers re-check on
    their own rays."""
    domain = p.domain
    probes = [p.spectral.e1.values]
    bump = _default_bump(domain)
    l2 = np.sqrt(domain.l2_norm_sq(bump))
    if l2 > 0:
        probes.append(bump / l2)
    try:
        for probe in probes:
            prof = FiberingProfile(probe, p)
            if prof.dT(prof.t0) <= 0:
                return False
    except MuTooLargeError:
        return False
    return True


def ground_state(lam: float, spectral, lift, budget_factor: float = 1.0) -> Field:
    """Ground state of the homogeneous problem at this lambda (mu = 0),
    computed by the Minus-branch minimization and cached."""
    key = float(lam)
    cache = spectral.ground_state_cache
    if key not in cache:
        p0 = Params(lam=lam, mu=0.0, spectral=spectral, lift=lift)
        seed = Field(_default_bump(p0.domain), p0.domain)
        rec = minimize_on_Nminus(p0, seed, seed_kind=SeedKind.GROUND_STATE_RAY,
                                 budget_factor=budget_factor)
        cache[key] = rec.v
    return cache[key]


@dataclass
class BranchRow:
    mu: float
    energy_plus: float
    energy_minus: float
    plus_converged: bool
    minus_converged: bool
    record_plus: Optional[SolutionRecord] = None


def estimate_mu_star(lam: float, spectral, lift, *, max_cells: int = 24,
                     budget_factor: float = 1.0, keep_records: bool = False):
    """Continuation in mu of the Plus branch until it persistently fails.

    The first step is MU_INIT.  A step that succeeds grows by MU_GROWTH and
    also records the Minus branch from the ground-state ray; a failed mu
    shrinks it by MU_SHRINK.  Once the step hits the relative floor
    MU_MIN_STEP_REL, MU_FAIL_LIMIT consecutive failures with all restarts
    diverging end the continuation, as do `max_cells` accepted rows.
    Returns (mu_star_lower_estimate, rows).
    """
    if not 0.0 < lam < spectral.lambda1:
        raise PreconditionError(
            f"mu* continuation needs 0 < lambda < lambda1, got {lam} vs {spectral.lambda1}"
        )
    rows = []
    last_mu = 0.0
    warm: Optional[Field] = None
    step = MU_INIT
    small_fails = 0

    gstate = ground_state(lam, spectral, lift, budget_factor=budget_factor)

    while len(rows) < max_cells:
        mu_try = last_mu + step
        rec_plus = None
        p_try = Params(lam=lam, mu=mu_try, spectral=spectral, lift=lift)
        if _admissible(p_try):
            seeds = [warm, None] if warm is not None else [None]
            for seed in seeds:
                try:
                    rec_plus = minimize_on_Nplus(p_try, seed=seed, budget_factor=budget_factor)
                    break
                except (
                    NonconvergenceError,
                    DegenerateSeedError,
                    MuTooLargeError,
                    MuBeyondRangeError,
                    BranchAbsentError,
                ):
                    rec_plus = None
        if rec_plus is not None:
            e_minus, minus_ok = float("nan"), False
            try:
                rec_minus = minimize_on_Nminus(
                    p_try, gstate, seed_kind=SeedKind.GROUND_STATE_RAY,
                    budget_factor=budget_factor,
                )
                e_minus, minus_ok = rec_minus.energy, True
            except (NonconvergenceError, ProjectionError,
                    MuTooLargeError, MuBeyondRangeError):
                pass
            rows.append(BranchRow(
                mu=mu_try, energy_plus=rec_plus.energy, energy_minus=e_minus,
                plus_converged=True, minus_converged=minus_ok,
                record_plus=rec_plus if keep_records else None,
            ))
            last_mu = mu_try
            warm = rec_plus.v
            step *= MU_GROWTH
            small_fails = 0
        else:
            step *= MU_SHRINK
            floor = MU_MIN_STEP_REL * max(mu_try, MU_INIT)
            if step < floor:
                step = floor
                small_fails += 1
                if small_fails >= MU_FAIL_LIMIT:
                    break
    return last_mu, rows
