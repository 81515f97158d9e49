"""Solution searches on the two Nehari manifold parts.

The local branch near zero (class Plus) and the excited branch (class Minus)
minimize the energy on the two parts of the Nehari manifold (the Nehari
decomposition of Tarantello, Ann. IHP Anal. Non Lineaire 9, 1992).  The Plus
minimizer is a stable critical point: its seed is projected onto the Plus
part along its ray, t_plus(v) v, and Newton converges from there.  The Minus
branch minimizes the reduced functional J(v) = E(t_minus(v) v) over the
nonnegative cone of the unit critical sphere; one loop, `_cone_descent`,
runs that descent and the minimax relaxation, and a Minus solve is one
descent that hands over to Newton at a relative gradient of
NEWTON_HANDOFF.  A Minus solve seeded by an already solved field (the
ground state, or the Minus record of a nearby mu) tries Newton from its
t_minus projection first and descends only when that fails.  A Newton
polish of the full first-order system, its inner MINRES preconditioned by
the domain's Poisson preconditioner (`grid.Domain.precondition`), finishes
every branch.  The cone descent lifts its gradients by the same
preconditioner, so no search runs CG; on a masked lattice CG is left to the
domain's setup.  The descent and the polish take their steps through the
one backtracking line search `numutil.armijo`, which also sets the next
descent step.
Bubble-translated seeds on annular domains, the boundary-pinned minimax
search, and continuation in mu toward the solvability boundary build on the
same two minimizers.

Bubble multistart and minimax relaxation solve once per lattice-symmetry
orbit.  Before each seed is solved, `_Orbits` looks for a seed y0 already
solved in the same search (in the minimax, for each family point as the
family is built) and a symmetry g of the domain (`grid.Domain.symmetries`)
with g y0 = y for their directions that fixes mu*phi and maps the solved
seed onto this one (to `grid.SYMMETRY_TOL`); on a hit the outcome is g
applied to the solved one.  Every solve is a deterministic function of its
seed, and the discrete problem commutes with g, so the image is the outcome
the seed would have had.  Data without the symmetry find no hit and solve
every seed.  What does not change between seeds is paid for once: the
bubbles' frame and radial cutoff once per domain (`grid.Domain.bubble_frame`),
the group that fixes mu*phi once per (lam, mu) (`Params.symmetry_group`,
shared by the multistart and the minimax of a cell), and the table of
points g y0 once per solved seed, so a lookup is one array comparison per
solved seed and a seed check per candidate g.

The Plus and Minus minimizers solve on the reflection fold of the lattice
(`grid.Domain.fold`) when the lattice has at least FOLD_MIN_NODES interior
nodes and the lattice, mu*phi and the seed are mirror-symmetric
(`_solve_folded`): by the principle of symmetric criticality a critical
point among the mirror-symmetric fields is one of E.  The record comes back
unfolded and rebuilt on the full lattice, so its callers (the cells, the
ground state and the mu* continuation) and the certificates see no fold.

A Minus solve whose start ray has J(v0) <= 0 raises
NonpositiveMinusLevelError before any Newton step or descent: the Minus
level is then at most J(v0), not positive.  So does one whose Newton try,
from a solved seed or from the descent's handoff point, converges to a
point of class Minus with E <= 0.
The multistart and the mu* continuation record it as a failed seed or row.
Each cone point is evaluated once (`_cone_point`): the descent starts from
the evaluated point it is given and returns its evaluated end point.

Fixed constants (module level, below): the Newton inner MINRES tolerance
floor, the Newton steps per budget and of a Minus solve's Newton try, the
convergence target and the Minus descent's handoff level, the Minus
descent passes per budget, the cone step's 30 backtracks (fewer once a
step's required gain drops below one ulp of J), the multistart bubble
scalings and deduplication distance, the minimax descent passes per point
and round, the minimax radii and relaxation rounds, the fold's node-count
floor, and the mu* continuation schedule (first step, growth, shrink, step
floor, failure limit); the bubble cutoff radius and the symmetry match
tolerance live in `grid`.
Options that stay are the ones program callers set to more than one value:
`budget_factor` everywhere (a config key; the nonexistence criterion runs
both minimizers at a tenfold budget), `solved_seed` of the Minus minimizer
and `max_cells` of the continuation (the `mu_star_cells` config key).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    BranchAbsentError,
    DegenerateSeedError,
    MuBeyondRangeError,
    MuTooLargeError,
    NonconvergenceError,
    NonpositiveMinusLevelError,
    PreconditionError,
    ProjectionError,
    SeedingError,
)
from .functional import FiberingProfile, Params, energy, gradient_values, hessian_weight
from .grid import SYMMETRY_TOL, AnnulusD, Domain, Field, _matches
from .nehari import (
    Klass, barycenter, classify, reduced_functional, t_plus, two_root_regime,
)
from .numutil import abs_pow, armijo, signed_pow, solve_minres

NEWTON_INNER_RTOL = 1e-9  # floor of the Newton MINRES tolerance min(1e-2, . + 0.1 |grad|)
NEWTON_STEPS = 40  # Newton polish steps per unit budget_factor (at least 10)
NEWTON_FIRST_STEPS = 10  # Newton steps of a Minus solve's try from a solved seed or its handoff
TARGET_REL = 1e-9  # convergence target on the gradient norm, relative to 1 + ||v|| + |E(v)|
NEWTON_HANDOFF = 1e-2  # relative gradient norm at which a Minus descent hands over to Newton
MINUS_PASSES = 300  # Minus cone descent passes per unit budget_factor
BUBBLE_T_FACTORS = (0.5, 1.0, 2.0)  # multistart composite vplus + f t_star bubble, f in these
DEDUP_TOL = 1e-4  # H^1_0 distance below which two multistart records are one
CONE_BACKTRACKS = 30  # most Armijo trials of one cone step
MINIMAX_INNER_STEPS = 2  # cone descent passes per family point and relaxation round
MINIMAX_RADII = 4  # radii of the minimax family's ball lattice, 0 to 1 - epsilon
MINIMAX_ROUNDS = 3  # minimax relaxation rounds
# Lattices with fewer interior nodes solve unfolded: the fold saves work in
# proportion to the lattice, while its Params, the seed check and the
# record's rebuild on the lattice cost a fixed time per solve.  On the bench
# mu-star-sweep config (2-core VM, one BLAS thread) folding ran 7% slower on
# a res-9 cube (343 nodes), 2% slower at res 10 (512), 2% faster at res 11
# (729), 7% faster at res 12 (1000) and 15-20% faster at res 13 (1331).
FOLD_MIN_NODES = 1000

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
    energy: float
    klass: Klass
    grad_norm: float
    positive: bool
    seed: SeedKind
    iterations: int
    lam: float
    mu: float
    descent_passes: int = 0  # the cone descent passes among the iterations
    seed_direction: Optional[np.ndarray] = None
    seed_energy: Optional[float] = None
    seed_below_threshold: Optional[bool] = None
    # the solved record this one is the symmetry image of
    image_of: Optional["SolutionRecord"] = dc_field(default=None, repr=False, compare=False)

    # The two diagnostics are taken when first read, which is when the
    # record is written: a record only kept for its energy (a mu*
    # continuation row) or certified never pays for them.
    @cached_property
    def barycenter(self) -> np.ndarray:
        """Critical-density center of mass of v (`nehari.barycenter`)."""
        return barycenter(self.v)

    @cached_property
    def grad_dir_integral(self) -> np.ndarray:
        """`Domain.gradient_direction_integral` of v."""
        return self.v.domain.gradient_direction_integral(self.v.values)

    def to_json_dict(self, records=()):
        """JSON data of the record; `records` is the list it sits in, which
        holds the record it is an image of (written as that one's index)."""
        d = {
            "lambda": self.lam,
            "mu": self.mu,
            "energy": self.energy,
            "class": self.klass.name,
            "grad_norm": self.grad_norm,
            "positive": bool(self.positive),
            "seed": self.seed.value,
            "barycenter": [float(x) for x in self.barycenter],
            "grad_dir_integral": [float(x) for x in self.grad_dir_integral],
            "iterations": int(self.iterations),
            "descent_passes": int(self.descent_passes),
        }
        if self.seed_direction is not None:
            d["seed_direction"] = [float(x) for x in self.seed_direction]
        if self.seed_energy is not None:
            d["seed_energy"] = self.seed_energy
        if self.seed_below_threshold is not None:
            d["seed_below_threshold"] = bool(self.seed_below_threshold)
        if self.image_of is not None:
            d["image_of"] = next(k for k, r in enumerate(records) if r is self.image_of)
        return d


def _target_tol(h1_sq, e_val):
    """Convergence target on the gradient norm at a point v with
    ||v||^2 = h1_sq and E(v) = e_val; well inside every certificate
    tolerance used downstream."""
    return TARGET_REL * (1.0 + np.sqrt(h1_sq) + abs(e_val))


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


def _converged(p: Params, v, gn):
    """gn is within the convergence target at v (`_target_tol`), whose
    ||v||^2 is taken once and shared with E(v)."""
    h1_sq = p.domain.h1_norm_sq(v)
    return gn <= _target_tol(h1_sq, energy(v, p, h1_sq))


def _polish_steps(budget_factor):
    """Newton polish steps a search runs at this budget factor."""
    return max(10, int(NEWTON_STEPS * budget_factor))


def _newton_polish(p: Params, vvals, max_steps, flags):
    """Damped Newton on the full first-order system, at most max_steps
    steps; returns (values, grad_norm, steps, converged).  Each step solves
    the Hessian system, -Lap - diag(c) for c the Hessian weight
    (`functional.hessian_weight`) given as the map x -> A x - c x of raw
    arrays with A the cached CSR -Lap, by MINRES (`numutil.solve_minres`)
    preconditioned by `Domain.precondition` (the exact inverse of -Lap on a
    box, its bounding-box sine solve on a masked lattice), and takes the
    step length by `numutil.armijo` on the gradient norm.  On a reflection
    fold (`grid.Fold`) the system is scaled by its orbit sizes, so that
    MINRES runs in the fold's weighted inner product.  The convergence
    flag of every inner MINRES solve is appended to the list `flags`."""
    d = p.domain
    A, w = d.matrix, d.mult
    v = np.array(vvals, dtype=float)
    g = gradient_values(v, p)
    gn = d.l2_norm(g)
    steps = 0
    while steps < max_steps:
        if _converged(p, v, gn):
            return v, gn, steps, True
        c = hessian_weight(v, p)

        def hess(x, c=c):
            return A @ x - c * x

        if w is None:
            op, rhs, M = hess, -g, d.precondition
        else:  # diag(mult)(A - c) delta = -mult g, symmetric: the fold's weighted product
            op, rhs, M = (lambda x: w * hess(x)), -w * g, d.weighted_precondition
        delta, ok = solve_minres(op, rhs, M=M, rtol=min(1e-2, NEWTON_INNER_RTOL + 0.1 * gn),
                                 maxiter=4000, label="newton step")
        flags.append(ok)

        def trial(step):
            vt = v + step * delta
            gt = gradient_values(vt, p)
            return d.l2_norm(gt), vt, gt

        # sufficient decrease |grad E(v + step delta)| < (1 - step / 4) |grad E(v)|
        out = armijo(trial, gn, 0.25 * gn, 1.0, 30)
        if out is None:
            break
        (gn, v, g), _ = out
        steps += 1
    return v, gn, steps, _converged(p, v, gn)


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
    budget_factor: float = 1.0,
) -> SolutionRecord:
    """The minimizer of the energy on the Plus part of the manifold.

    The normalized |seed| is projected onto the Plus part along its ray,
    t_plus(v) v, and Newton (`_newton_polish`) converges from there: the
    minimizer is a stable critical point, where Newton converges
    quadratically.  The Plus solution v = u - mu phi is positive (-Lap_h is
    an M-matrix and the right-hand side is positive), so Newton starts in
    the nonnegative cone that holds it.  The solve runs on the reflection
    fold when the lattice, mu phi and the seed are mirror-symmetric
    (`_solve_folded`).  Raises NonconvergenceError when the polish stalls
    or ends at a point that is not of class Plus.
    """
    if p.mu == 0.0:
        raise BranchAbsentError("the Plus branch is empty at mu = 0")
    seed_kind = SeedKind.USER if seed is not None else SeedKind.ZERO_RELAX
    if seed is None:
        seed = zero_relax_seed(p)
    return _solve_folded(_plus_solve, p, seed.values, seed_kind, budget_factor)


def _plus_solve(p: Params, seed, seed_kind, budget_factor) -> SolutionRecord:
    """`minimize_on_Nplus` from the raw seed array, on p's own nodes."""
    v = _unit(np.abs(seed), p.domain, p.two_star)
    start = None if v is None else reduced_functional(v, p, t_plus)
    if start is None:
        raise DegenerateSeedError("seed vanishes or its ray has nonpositive pairing sign: "
                                  "no t_plus root")

    flags = []
    w, gn, steps, ok = _newton_polish(p, start[2], _polish_steps(budget_factor), flags)
    if not ok:
        raise NonconvergenceError(
            f"Plus-branch solve stalled at grad norm {gn:.3e} after {steps} iterations "
            f"({_short_note(flags)})",
            residual=gn,
        )
    rec = build_record(p, w, gn, seed_kind, steps)
    if rec.klass is not Klass.PLUS:
        raise NonconvergenceError(
            f"Plus-branch solve converged to a point of class {rec.klass.name} "
            f"(grad norm {gn:.3e})",
            residual=gn,
        )
    return rec


def _solve_folded(search, p: Params, seed, *args) -> SolutionRecord:
    """search(p, seed, *args), for the raw seed array, on the reflection fold
    of p's lattice (`Params.folded`) when the lattice, mu phi and the seed
    are mirror-symmetric: the seed comes back from its fold values to
    `grid.SYMMETRY_TOL` (`grid._matches`).  By the principle of symmetric
    criticality (Palais, Comm. Math. Phys. 69, 1979) a critical point on
    the fold is one on the lattice.  The fold's record is unfolded and
    rebuilt on the lattice by `build_record`, its gradient norm taken
    there; its iterations are the fold's.  A lattice of fewer than
    FOLD_MIN_NODES interior nodes is not folded."""
    pf = p.folded if p.domain.n_interior >= FOLD_MIN_NODES else None
    if pf is not None:
        fold = pf.domain
        seed_f = fold.restrict(seed)
        if _matches(fold.unfold(seed_f), seed):
            rec = search(pf, seed_f, *args)
            return build_record(p, fold.unfold(rec.v.values), None, rec.seed,
                                rec.iterations, rec.descent_passes)
    return search(p, seed, *args)


def build_record(p, vvals, gn, seed_kind, iterations, descent_passes=0) -> SolutionRecord:
    """Record of the manifold point v with fresh diagnostics (energy, class,
    positivity of u = v + mu*phi) and the gradient norm gn, a fresh one when
    gn is None; the fresh values share one product Av = -Lap v, as
    `verify.certify_solution`'s do.  The barycenter and the gradient
    direction integral wait until the record is written."""
    d = p.domain
    vf = Field(vvals, d)
    v = vf.values
    Av = d.apply_neg_laplacian(v)
    h1_sq = d.inner(Av, v)
    return SolutionRecord(
        v=vf,
        energy=energy(v, p, h1_sq),
        klass=classify(v, p, h1_sq).klass,
        grad_norm=d.l2_norm(gradient_values(v, p, Av)) if gn is None else gn,
        positive=bool((vf.values + p.mu_phi).min() > 0.0),
        seed=seed_kind,
        iterations=iterations,
        lam=p.lam,
        mu=p.mu,
        descent_passes=descent_passes,
    )


def _cone_point(p: Params, v):
    """(J, t, v, ||t v||^2) of the cone point v, t = t_minus(v), by one
    `reduced_functional`.  t v is left out, so that a family of cone points
    does not keep it alive: t * v gives it again, bit for bit."""
    j_val, t, _, w_sq = reduced_functional(v, p)
    return j_val, t, v, w_sq


def _cone_step(p: Params, v, t, j_val, g, dr, beta):
    """One projected line-search step of J(v) = E(t_minus(v) v) on the unit
    critical sphere's nonnegative cone.

    v is the current cone point with J(v) = j_val and t = t_minus(v), g the
    gradient at t v and dr = P g its lift by a symmetric positive definite
    P (the preconditioner, in `_cone_descent`).  The lift is made tangent
    to the sphere at v, and trial points max(v - beta * dtan, 0) / norm are
    scored by J through `armijo` (a trial point that vanishes or has no root
    counts as a rejection).  A trial at step b must gain 1e-4 * b * slope;
    only the steps, at most CONE_BACKTRACKS, at which that gain is at least
    one ulp of J (eps * |J|) are tried, since below it roundoff decides.
    Returns (point, next_beta): the accepted point as `_cone_point` gives
    it and the step the next search starts from, or None when dtan is not a
    descent direction, no step is resolvable or every trial is rejected.
    """
    d = p.domain
    ts = p.two_star
    theta = d.inner(signed_pow(v, ts - 1.0), dr)
    dtan = dr - theta * v
    slope = t * d.inner(g, dtan)
    if slope <= 0:
        return None
    ulp = np.finfo(float).eps * abs(j_val)
    tries = 0
    while tries < CONE_BACKTRACKS and 1e-4 * slope * beta * 0.5**tries >= ulp:
        tries += 1
    if tries == 0:
        return None

    def trial(beta):
        vt = _unit(np.maximum(v - beta * dtan, 0.0), d, ts)
        return None if vt is None else _cone_point(p, vt)

    return armijo(lambda beta: _or_none(trial, beta), j_val, 1e-4 * slope, beta, tries)


def _cone_descent(p: Params, point, budget, stop=1e2, beta=1.0):
    """At most `budget` passes of cone descent of J(v) = E(t_minus(v) v)
    from the cone point `point` (as `_cone_point` gives it), for the Minus
    branch and the minimax relaxation.

    A pass stops at a gradient g (at t v) within `stop` times the
    convergence target (`_target_tol`), or lifts g by the domain's Poisson
    preconditioner (`grid.Domain.precondition`: the exact solve on a box,
    the bounding-box sine solve on a masked lattice) and moves by
    `_cone_step`.  Any symmetric positive definite lift gives a descent
    direction: at w = t v the gradient is orthogonal to v, so the step's
    slope is t <g, P g> > 0.  The gradient is then a Sobolev gradient in an
    inner product equivalent to the H^1_0 one, and the Newton polish lands
    on the same critical point.  `beta` is the first trial step.  Returns
    (point, passes, beta): the last cone point, as `_cone_point` gives it,
    the passes made (the stopping one included) and the step the next pass
    would start from, so that a call from the returned point with that step
    resumes this descent bit for bit.
    """
    d = p.domain
    passes = 0
    for _ in range(budget):
        passes += 1
        j_val, t, v, w_sq = point
        g = gradient_values(t * v, p)
        if d.l2_norm(g) <= stop * _target_tol(w_sq, j_val):
            break
        step = _cone_step(p, v, t, j_val, g, d.precondition(g), beta)
        if step is None:
            break
        point, beta = step
    return point, passes, beta


def _newton_try(p: Params, w, j_cap, seed_kind, flags, iterations, passes):
    """At most NEWTON_FIRST_STEPS Newton steps from the Minus-branch point
    w, for a solve that has made `iterations` iterations, `passes` of them
    descent passes: (record, steps), the record None unless the polish
    converges to class Minus with an energy in (0, j_cap].  A converged
    point of class Minus with E <= 0 lies on the Minus part, so the Minus
    level is at most E: NonpositiveMinusLevelError, carrying that E."""
    wv, gn, steps, ok = _newton_polish(p, w, NEWTON_FIRST_STEPS, flags)
    if ok:
        rec = build_record(p, wv, gn, seed_kind, iterations + steps, passes)
        if rec.klass is Klass.MINUS and rec.energy <= 0:
            raise NonpositiveMinusLevelError(
                f"Newton converged to a Minus point of energy {rec.energy:.6g} <= 0: "
                f"the Minus level is not positive",
                j0=rec.energy,
            )
        if rec.klass is Klass.MINUS and rec.energy <= j_cap:
            return rec, steps
    return None, steps


def minimize_on_Nminus(
    p: Params,
    seed: Field,
    budget_factor: float = 1.0,
    seed_kind: SeedKind = SeedKind.USER,
    solved_seed: bool = False,
) -> SolutionRecord:
    """Minimize the reduced functional J(v) = E(t_minus(v) v) over the
    nonnegative cone of the critical-norm unit sphere: a cone descent
    (`_cone_descent`, MINUS_PASSES passes per unit budget_factor) that hands
    over to Newton.

    Every solve first evaluates J(v0) = E(t_minus(v0) v0) on the seed's
    ray.  When J(v0) <= 0 the Minus level is at most J(v0), not positive, so
    no Minus record of positive energy is the minimum: it raises
    NonpositiveMinusLevelError, carrying J(v0), before any Newton step or
    descent.  The evaluated start ray is the descent's first point.

    The descent converges linearly, Newton quadratically once close, so
    the descent stops at a gradient of NEWTON_HANDOFF relative to
    1 + ||w|| + |J| and Newton finishes.  Both Newton tries, from a solved
    seed and from the handoff point, are one rule (`_newton_try`): at most
    NEWTON_FIRST_STEPS steps, the result taken when it converges to class
    Minus with an energy in (0, J] for J at the point Newton starts from,
    which no descent from there ends above, and NonpositiveMinusLevelError
    when it converges to class Minus with E <= 0.  A solved seed
    (`solved_seed`: the ground state, or the Minus record of a nearby mu)
    lies close to the solution, so its ray, projected by t_minus, is tried
    before any descent.  When the handoff try is refused, the descent
    resumes from the handoff point with the step it had reached, stops at
    1e2 times the convergence target, and one Newton polish finishes it:
    the path of a descent that never handed over.  Its end point w = t v
    projects back onto v, so a further descent would stop where it did: a
    larger budget_factor is what buys more passes.

    The record's `iterations` counts the Newton steps and the descent
    passes made, `descent_passes` the latter; a NonconvergenceError names
    every Newton inner solve that stopped short.  The solve runs on the
    reflection fold when the lattice, mu phi and the seed are
    mirror-symmetric (`_solve_folded`).
    """
    if seed is None or not np.any(seed.values):
        raise ArgumentError("Minus-branch minimization needs a nonzero seed")
    return _solve_folded(_minus_solve, p, seed.values, budget_factor, seed_kind, solved_seed)


def _minus_solve(p: Params, seed, budget_factor, seed_kind, solved_seed) -> SolutionRecord:
    """`minimize_on_Nminus` from the raw nonzero seed array, on p's own nodes."""
    v = _unit(np.abs(seed), p.domain, p.two_star)
    if v is None:
        raise ProjectionError("seed vanishes after cone projection")

    start = _cone_point(p, v)
    w0 = start[1] * v
    j0 = energy(w0, p)
    if j0 <= 0:
        raise NonpositiveMinusLevelError(
            f"the seed's start ray has J = {j0:.6g} <= 0: the Minus level is not positive",
            j0=j0,
        )

    iterations = 0
    flags = []
    if solved_seed:
        rec, iterations = _newton_try(p, w0, j0, seed_kind, flags, 0, 0)
        if rec is not None:
            return rec

    budget = max(1, int(MINUS_PASSES * budget_factor))
    point, passes, beta = _cone_descent(p, start, budget, NEWTON_HANDOFF / TARGET_REL)
    iterations += passes
    rec, steps = _newton_try(p, point[1] * point[2], point[0], seed_kind, flags,
                             iterations, passes)
    if rec is not None:
        return rec
    # the resumed descent repeats the pass the first one stopped at
    (_, t, v, _), more, _ = _cone_descent(p, point, budget - passes + 1, 1e2, beta)
    passes += more
    wv, gn, steps2, ok = _newton_polish(p, t * v, _polish_steps(budget_factor), flags)
    iterations += steps + more + steps2
    if ok:
        rec = build_record(p, wv, gn, seed_kind, iterations, passes)
        if rec.klass is Klass.MINUS and rec.energy > 0:
            return rec
    raise NonconvergenceError(
        f"Minus-branch solve did not certify after {iterations} iterations "
        f"(last grad norm {gn:.3e}; {_short_note(flags)})",
        residual=gn,
    )


# -- one solve per symmetry orbit ----------------------------------------------


class _Orbits:
    """The seeds a search solves, each with its direction and its outcome
    (or the key that locates it), looked up modulo the symmetries of the
    domain that fix mu*phi (`Params.symmetry_group`).  Each solved seed
    keeps its image table, the points g y0 for every g of the group in
    group order, and its extreme values."""

    def __init__(self, p: Params):
        self.domain = p.domain
        self.group = p.symmetry_group
        # g y0 = sign * y0[perm], row by row (`grid.symmetry_point`)
        self._perm = np.array([P for P, _ in self.group])
        self._sign = np.array([[-1.0 if k in S else 1.0 for k in range(p.domain.ndim)]
                               for _, S in self.group])
        self.solved = []

    def add(self, y, seed, outcome):
        images = self._sign * np.asarray(y, dtype=float)[self._perm]
        self.solved.append((images, seed, float(seed.max()), float(seed.min()), outcome))

    def find(self, y, seed):
        """(g, outcome) of a solved seed y0 and the first symmetry g in
        group order with g y0 = y that maps the solved seed onto `seed`
        (`grid._matches`), or None.  A symmetry permutes the nodes, so the
        seeds' extreme values must match first."""
        d = self.domain
        top, bottom = float(seed.max()), float(seed.min())
        slack = SYMMETRY_TOL * float(np.max(np.abs(seed)))
        for images, seed0, top0, bottom0, outcome in self.solved:
            if abs(top0 - top) > slack or abs(bottom0 - bottom) > slack:
                continue
            for i in np.flatnonzero(np.all(images == y, axis=1)):
                g = self.group[i]
                if _matches(d.apply_symmetry(g, seed0), seed):
                    return g, outcome
        return None


def _image_record(p: Params, g, src: SolutionRecord) -> SolutionRecord:
    """The record of g v for the solved record src of v, rebuilt by
    `build_record` (fresh gradient norm, energy, class and barycenter) with
    no iterations of its own."""
    rec = build_record(p, p.domain.apply_symmetry(g, src.v.values), None, src.seed, 0)
    rec.image_of = src
    return rec


# -- bubbles -----------------------------------------------------------------


def make_bubble(epsilon: float, direction, domain: Domain) -> np.ndarray:
    """Values of the cutoff concentration profile peaked near
    (1 - eps) * direction.

    The profile is evaluated in the domain's bubble frame and multiplied by
    its radial cutoff (`grid.Domain.bubble_frame`), both built once per
    domain, so a call computes only the profile.  Its squared distances
    are summed over the frame's axes in order, as numpy sums an (n, N) row.
    """
    if not 0.0 < epsilon < 1.0:
        raise ArgumentError(f"epsilon must lie in (0, 1), got {epsilon}")
    y = np.asarray(direction, dtype=float)
    if y.shape != (domain.ndim,) or abs(np.linalg.norm(y) - 1.0) > 1e-10:
        raise ArgumentError("direction must be a unit vector of the domain dimension")
    c, cut = domain.bubble_frame
    N = domain.ndim
    peak = (1.0 - epsilon) * y
    amp = (N * (N - 2.0) * epsilon**2) ** ((N - 2.0) / 4.0)
    d2 = (c[0] - peak[0]) ** 2
    for k in range(1, N):
        d2 += (c[k] - peak[k]) ** 2
    prof = amp / (epsilon**2 + d2) ** ((N - 2.0) / 2.0)
    vals = cut * prof
    if not np.any(vals > 0):
        raise ArgumentError("bubble support misses every interior node")
    return vals


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
    Records closer than DEDUP_TOL in H^1_0 to a kept one are dropped.  A
    seed that a symmetry maps a kept solved seed onto (`_Orbits`) is not
    solved: its record is the image of the solved one (`_image_record`,
    `image_of` set).  Raises SeedingError if every direction fails.
    """
    d = p.domain
    ts = p.two_star
    threshold = vplus.energy + p.spectral.s_quantum

    seeds = []
    failures = []
    for y in directions:
        try:
            U = make_bubble(epsilon, y, d)
        except ArgumentError as e:
            failures.append((y, str(e)))
            continue
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

    orbits = _Orbits(p)
    records = []
    for y, w, e_seed, below in seeds:
        hit = orbits.find(y, w)
        try:
            rec = (_image_record(p, *hit) if hit is not None else
                   minimize_on_Nminus(p, Field(w, d), budget_factor=budget_factor,
                                      seed_kind=SeedKind.BUBBLE))
        except (NonconvergenceError, NonpositiveMinusLevelError, ProjectionError) as e:
            failures.append((y, str(e)))
            continue
        rec.seed_direction, rec.seed_energy, rec.seed_below_threshold = y, e_seed, below
        if all(np.sqrt(d.h1_norm_sq(rec.v.values - kept.v.values)) > DEDUP_TOL
               for kept in records):
            records.append(rec)
            if hit is None:
                orbits.add(y, w, rec)
    return records


# -- minimax -----------------------------------------------------------------


@dataclass
class MinimaxResult:
    record: Optional[SolutionRecord]
    gamma_estimate: float
    window: tuple
    reason: str
    relaxed_points: int  # family-point relaxations run by cone descent
    image_points: int  # family-point relaxations saved: the point is a symmetry image

    @property
    def found(self):
        return self.record is not None


def sphere_directions(N: int, count: Optional[int] = None):
    """Unit directions in R^N: the 2N signed axes first, then the 2^N
    normalized diagonals; the first `count` of them (all when None).  Raises
    ArgumentError when `count` exceeds 2N + 2^N."""
    if count is not None and count > 2 * N + 2**N:
        raise ArgumentError(f"{count} directions asked for, R^{N} has {2 * N + 2**N}")
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
    budget_factor: float = 1.0,
) -> MinimaxResult:
    """Boundary-pinned inf-sup search for the higher critical level.

    A finite family over the ball lattice {r_k y_j} (y_j the sphere
    directions of the domain dimension, MINIMAX_RADII radii r_k) is relaxed
    by coordinate-wise descent of the reduced functional, MINIMAX_ROUNDS
    rounds of MINIMAX_INNER_STEPS passes of `_cone_descent` per point, with
    the boundary ring pinned to normalized bubbles at the given epsilon; a
    point that a symmetry maps an earlier one onto (`_Orbits`) is not
    relaxed: it is that one's image and has its J.  Interior points start
    as blends with the antipodal bubble (weight growing toward the center),
    so the family links through two-peak transition states where the sup
    concentrates.  The relaxed maximizer is polished by Newton and accepted
    only if it certifies with class Minus and energy inside the compactness
    window; not-found is a legitimate outcome at coarse resolution.
    """
    d = p.domain
    if not isinstance(d.spec.shape, AnnulusD):
        raise PreconditionError("minimax search needs the annular domain")
    ts = p.two_star
    q = p.spectral.s_quantum
    window = (vplus.energy + q, vminus.energy + q)

    r_bar = 1.0 - epsilon
    radii = np.linspace(0.0, r_bar, MINIMAX_RADII)

    # Only orbit representatives are kept and relaxed; rep_of names the
    # representative of every other point.  A round relaxes each point by
    # the same deterministic descent, so an image stays g applied to its
    # representative's point, with its J.
    dirs = sphere_directions(d.ndim)
    orbits = _Orbits(p)
    family, rep_of = {}, {}
    for j, y in enumerate(dirs):
        for k, r in enumerate(radii):
            eps_k = float(np.clip(1.0 - r, epsilon, 0.97))
            vals = make_bubble(eps_k, y, d)
            mix = 1.0 - r / r_bar if r_bar > 0 else 1.0
            if mix > 0:
                vals = vals + mix * make_bubble(eps_k, -y, d)
            vals = _unit(vals, d, ts)
            if vals is None:
                continue
            hit = orbits.find(y, vals)
            if hit is None:
                orbits.add(y, vals, (j, k))
                family[(j, k)] = _cone_point(p, vals)
            else:
                rep_of[(j, k)] = hit[1]
    del orbits  # its references would keep the unrelaxed seeds alive

    interior = [key for key in family if key[1] != len(radii) - 1]
    for _ in range(MINIMAX_ROUNDS):
        for key in interior:
            family[key], _, _ = _cone_descent(p, family[key], MINIMAX_INNER_STEPS, 1e2)
    relaxed = MINIMAX_ROUNDS * len(interior)
    mapped = MINIMAX_ROUNDS * sum(1 for key in rep_of if key[1] != len(radii) - 1)
    values = {key: point[0] for key, point in family.items()}
    values.update({key: values[rep] for key, rep in rep_of.items()})

    gamma_est = max(values.values())
    # a representative: an image ties with its own, which comes first in values
    arg = max(values, key=lambda k: values[k])
    _, t, v, _ = family[arg]
    w_star = t * v

    def result(rec, reason):
        return MinimaxResult(rec, gamma_est, window, reason, relaxed, mapped)

    flags = []
    wv, gn, steps, ok = _newton_polish(p, w_star, _polish_steps(budget_factor), flags)
    if not ok:
        return result(None, f"polish stalled at grad norm {gn:.3e} ({_short_note(flags)})")
    rec = build_record(p, wv, gn, SeedKind.MINIMAX, steps)
    if rec.klass is not Klass.MINUS:
        return result(None, f"polished point classified {rec.klass.name}")
    if not window[0] < rec.energy < window[1]:
        return result(None, f"polished energy {rec.energy:.6g} outside window "
                            f"({window[0]:.6g}, {window[1]:.6g})")
    return result(rec, "accepted")


# -- ground state cache and continuation --------------------------------------


def _admissible(p: Params) -> bool:
    """Operational admissibility of (lam, mu) with 0 < lam < lambda1 and
    mu > 0: the two-root regime (`two_root_regime`) on the rays of e1 and of
    the default bump (unit L2 norm).  Advisory; the branch solvers re-check on
    their own rays."""
    bump = p.domain.default_bump
    probes = (p.spectral.e1.values, bump / np.sqrt(p.domain.l2_norm_sq(bump)))
    return all(_or_none(two_root_regime, FiberingProfile(v, p)) is not None for v in probes)


def ground_state(lam: float, spectral, lift, budget_factor: float = 1.0) -> Field:
    """Ground state of the homogeneous problem at this lambda (mu = 0),
    computed by the Minus-branch minimization and cached."""
    key = float(lam)
    cache = spectral.ground_state_cache
    if key not in cache:
        p0 = Params(lam=lam, mu=0.0, spectral=spectral, lift=lift)
        seed = Field(p0.domain.default_bump, p0.domain)
        rec = minimize_on_Nminus(p0, seed, seed_kind=SeedKind.GROUND_STATE_RAY,
                                 budget_factor=budget_factor)
        cache[key] = rec.v
    return cache[key]


@dataclass
class BranchRow:
    """One accepted mu of the continuation: a row exists only when its Plus
    solve converged."""

    mu: float
    energy_plus: float
    energy_minus: float
    minus_converged: bool


def estimate_mu_star(lam: float, spectral, lift, *, max_cells: int = 24,
                     budget_factor: float = 1.0):
    """Continuation in mu of the Plus branch until it persistently fails.

    The first step is MU_INIT.  A step that succeeds grows by MU_GROWTH and
    also records the Minus branch, solved Newton-first (`minimize_on_Nminus`
    with `solved_seed`) from the previous row's Minus record, or from the
    ground state when that row has none; a failed mu shrinks it by
    MU_SHRINK.  Each admissible mu is one Plus solve, seeded by the previous
    row's Plus record (the zero-relax seed on the first row).  Once the step
    hits the relative floor MU_MIN_STEP_REL, MU_FAIL_LIMIT consecutive
    failures end the continuation, as do `max_cells` accepted rows.
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
    minus_seed = gstate

    while len(rows) < max_cells:
        mu_try = last_mu + step
        rec_plus = None
        p_try = Params(lam=lam, mu=mu_try, spectral=spectral, lift=lift)
        if _admissible(p_try):
            try:
                rec_plus = minimize_on_Nplus(p_try, seed=warm, budget_factor=budget_factor)
            except (NonconvergenceError, DegenerateSeedError, MuTooLargeError,
                    MuBeyondRangeError, BranchAbsentError):
                pass
        if rec_plus is not None:
            e_minus, minus_ok = float("nan"), False
            try:
                rec_minus = minimize_on_Nminus(
                    p_try, minus_seed, seed_kind=SeedKind.GROUND_STATE_RAY,
                    budget_factor=budget_factor, solved_seed=True,
                )
                e_minus, minus_ok = rec_minus.energy, True
            except (NonconvergenceError, NonpositiveMinusLevelError, ProjectionError,
                    MuTooLargeError, MuBeyondRangeError):
                pass
            minus_seed = rec_minus.v if minus_ok else gstate
            rows.append(BranchRow(
                mu=mu_try, energy_plus=rec_plus.energy, energy_minus=e_minus,
                minus_converged=minus_ok,
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
