import gc
import weakref

import numpy as np
import pytest

from bnsolver.errors import (
    ArgumentError,
    BranchAbsentError,
    NonconvergenceError,
    NonpositiveMinusLevelError,
    PreconditionError,
)
from bnsolver import functional, grid, numutil, solve
from bnsolver.functional import FiberingProfile, Params, energy, gradient_values
from bnsolver.grid import AnnulusD, Box, DomainSpec, Field, _cg, build_domain, symmetry_point
from bnsolver.lift import BumpOnBoundary, solve_lift
from bnsolver.nehari import Klass, reduced_functional
from bnsolver.numutil import armijo, signed_pow, smoothstep, solve_cg
from bnsolver.solve import (
    SeedKind,
    estimate_mu_star,
    ground_state,
    make_bubble,
    minimax_gamma,
    minimize_on_Nminus,
    minimize_on_Nplus,
    multistart_Nminus,
    sphere_directions,
)
from bnsolver.verify import certify_solution

from conftest import Setup, count_builds


# -- line search --------------------------------------------------------------


def table_trial(values):
    """A line-search trial reading (f, beta) off the dict values (None where
    absent) and logging every step it is asked for."""
    tried = []

    def trial(beta):
        tried.append(beta)
        return None if values.get(beta) is None else (values[beta], beta)

    return trial, tried


def test_armijo_accepts_the_first_sufficient_decrease():
    # thresholds f0 - beta * slope: 0 at beta = 1, 0.5 at 1/2 (strict), 0.75 at 1/4
    trial, tried = table_trial({1.0: 0.6, 0.5: 0.5, 0.25: 0.2, 0.125: 0.1})
    assert armijo(trial, 1.0, 1.0, 1.0, 10) == ((0.2, 0.25), 0.5)
    assert tried == [1.0, 0.5, 0.25]


def test_armijo_slope_zero_is_a_plain_decrease():
    trial, tried = table_trial({1.0: 1.0, 0.5: np.nextafter(1.0, 0.0)})
    assert armijo(trial, 1.0, 0.0, 1.0, 10) == ((np.nextafter(1.0, 0.0), 0.5), 1.0)
    assert tried == [1.0, 0.5]


def test_armijo_none_trial_is_a_rejection():
    trial, tried = table_trial({1.0: None, 0.5: -5.0})
    assert armijo(trial, 0.0, 1.0, 1.0, 10) == ((-5.0, 0.5), 1.0)
    assert tried == [1.0, 0.5]


@pytest.mark.parametrize("beta, next_beta", [(4.0, 4.0), (2.0, 4.0), (1.0, 2.0), (0.25, 0.5)])
def test_armijo_next_step_doubles_up_to_four(beta, next_beta):
    trial, _ = table_trial({beta: -1.0})
    assert armijo(trial, 0.0, 0.0, beta, 10) == ((-1.0, beta), next_beta)


@pytest.mark.parametrize("value", [None, 1.0])
def test_armijo_gives_up_after_max_backtracks(value):
    trial, tried = table_trial({2.0**-k: value for k in range(10)})
    assert armijo(trial, 1.0, 0.0, 1.0, 5) is None
    assert tried == [1.0, 0.5, 0.25, 0.125, 0.0625]


# -- powers -------------------------------------------------------------------


def _libm_signed_pow(s, q):
    a = np.abs(s)
    return np.sign(s) * np.where(a < numutil.POW_FLUSH, 0.0, a) ** q


def _libm_abs_pow(s, q):
    a = np.abs(s)
    return np.where(a < numutil.POW_FLUSH, 0.0, a) ** q


POW_SAMPLES = np.concatenate([
    np.random.default_rng(5).standard_normal(200) * 10.0 ** np.arange(-20, 20, 0.2),
    [0.0, -0.0, 1e-301, -1e-301, 5e-324, -5e-324, 1.0, -1.0, 1e40, -1e40, 1e80, -1e80,
     np.inf, -np.inf],
])


@pytest.mark.parametrize("new, old, q", [
    (signed_pow, _libm_signed_pow, 3.0), (signed_pow, _libm_signed_pow, 5.0),
    (numutil.abs_pow, _libm_abs_pow, 2.0), (numutil.abs_pow, _libm_abs_pow, 4.0),
    (numutil.abs_pow, _libm_abs_pow, 6.0),
])
def test_whole_powers_match_float_pow_to_a_few_ulp(new, old, q):
    with np.errstate(over="ignore"):
        got, want = new(POW_SAMPLES, q), old(POW_SAMPLES, q)
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])  # overflow and infinities
    got, want = got[finite], want[finite]
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
    assert not np.any(got[np.abs(POW_SAMPLES[finite]) < numutil.POW_FLUSH])


@pytest.mark.parametrize("new, old, q", [
    (signed_pow, _libm_signed_pow, 7.0 / 3.0), (signed_pow, _libm_signed_pow, 2.0),
    (signed_pow, _libm_signed_pow, 1.0), (numutil.abs_pow, _libm_abs_pow, 10.0 / 3.0),
    (numutil.abs_pow, _libm_abs_pow, 4.0 / 3.0), (numutil.abs_pow, _libm_abs_pow, 3.0),
])
def test_other_powers_are_the_float_pow_bit_for_bit(new, old, q):
    with np.errstate(over="ignore"):
        assert np.array_equal(new(POW_SAMPLES, q), old(POW_SAMPLES, q))


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
    assert rec.klass is Klass.PLUS
    assert rec.positive
    assert rec.energy <= energy(np.zeros(dom.n_interior), p) + 1e-12
    h1 = np.sqrt(dom.h1_norm_sq(rec.v.values))
    assert rec.grad_norm < 1e-8 * (1.0 + abs(rec.energy))
    assert rec.grad_norm < 1e-7 * (1.0 + h1)


def test_minus_branch_record(cell13):
    p, rec_plus, rec = cell13
    assert rec.energy > 0
    assert rec.klass is Klass.MINUS
    assert rec.positive
    q = p.spectral.s_quantum
    assert rec.energy < rec_plus.energy + q


def test_newton_polish_counts_steps_taken(box9, monkeypatch):
    # a zero Newton direction fails the first line search: no step is taken
    from bnsolver import solve

    p = box9.params(lam_factor=0.5, mu=0.01)
    monkeypatch.setattr(solve, "solve_minres", lambda A, b, **kw: (np.zeros_like(b), True))
    _, _, steps, ok = solve._newton_polish(p, solve.zero_relax_seed(p).values,
                                           solve.NEWTON_STEPS, [])
    assert not ok
    assert steps == 0


def test_unconverged_newton_inner_solves_are_reported(box9, monkeypatch):
    """Every MINRES solve of the polish stops short: the Plus and Minus
    errors name the count of inner solves that did, for the Minus solve the
    refused handoff try's and the final polish's."""
    from bnsolver import solve

    p = box9.params(lam_factor=0.5, mu=0.01)
    gs = ground_state(p.lam, box9.spectral, box9.lift)
    monkeypatch.setattr(solve, "solve_minres", lambda A, b, **kw: (np.zeros_like(b), False))
    with pytest.raises(NonconvergenceError, match="1 of 1 Newton inner solves stopped short"):
        minimize_on_Nplus(p)
    with pytest.raises(NonconvergenceError, match="2 of 2 Newton inner solves stopped short"):
        minimize_on_Nminus(p, gs)


def _small_minimax(monkeypatch, radii, rounds):
    """Run the minimax search on MINIMAX_RADII = radii, MINIMAX_ROUNDS = rounds."""
    monkeypatch.setattr(solve, "MINIMAX_RADII", radii)
    monkeypatch.setattr(solve, "MINIMAX_ROUNDS", rounds)


def _profile_rays(monkeypatch):
    """Log the bytes of the ray of every FiberingProfile built."""
    rays, init = [], FiberingProfile.__init__

    def logged(self, v, p, a=None):
        rays.append(np.asarray(v, dtype=float).tobytes())
        init(self, v, p, a)

    monkeypatch.setattr(FiberingProfile, "__init__", logged)
    return rays


def test_minus_solve_evaluates_its_start_ray_once(box9, monkeypatch):
    """A Minus solve from an unsolved seed builds the profile of its start
    ray once, for the J(v0) <= 0 check and the descent's first point, and
    no profile twice for one point."""
    p = box9.params(lam_factor=0.5, mu=0.01)
    dom = box9.domain
    rays = _profile_rays(monkeypatch)
    rec = minimize_on_Nminus(p, Field(dom.default_bump, dom))
    assert rec.klass is Klass.MINUS and rec.iterations > 0
    v0 = solve._unit(np.abs(dom.default_bump), dom, p.two_star)
    assert rays.count(v0.tobytes()) == 1 and len(set(rays)) == len(rays)


def _descend_only(p, gs):
    return minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)


def test_minus_from_ground_state_is_newton_only(box9, monkeypatch):
    p = box9.params(lam_factor=0.5, mu=0.01)
    gs = ground_state(p.lam, box9.spectral, box9.lift)
    slow = _descend_only(p, gs)

    def no_descent(*args):
        raise AssertionError("the cone descent ran")

    monkeypatch.setattr(solve, "_cone_descent", no_descent)
    fast = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY, solved_seed=True)
    assert fast.klass is Klass.MINUS
    assert abs(fast.energy - slow.energy) <= 1e-12 * abs(slow.energy)
    # the descent path hands over to Newton within NEWTON_FIRST_STEPS too
    assert 0 < fast.iterations <= solve.NEWTON_FIRST_STEPS
    assert fast.descent_passes == 0 < slow.descent_passes < slow.iterations
    assert certify_solution(fast, p).overall
    # at mu = 0 the ground state is the solution: no Newton step at all
    p0 = box9.params(lam_factor=0.5, mu=0.0)
    assert minimize_on_Nminus(p0, gs, solved_seed=True).iterations == 0


def test_minus_falls_back_to_descent_when_newton_fails(box9, monkeypatch):
    p = box9.params(lam_factor=0.5, mu=0.01)
    gs = ground_state(p.lam, box9.spectral, box9.lift)
    slow = _descend_only(p, gs)
    polish, calls = solve._newton_polish, []

    def first_fails(p, vvals, max_steps, flags):
        calls.append(max_steps)
        if len(calls) == 1:
            flags.append(False)
            return np.asarray(vvals), 1.0, 3, False
        return polish(p, vvals, max_steps, flags)

    monkeypatch.setattr(solve, "_newton_polish", first_fails)
    rec = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY, solved_seed=True)
    assert calls[0] == solve.NEWTON_FIRST_STEPS and len(calls) == 2
    assert np.array_equal(rec.v.values, slow.v.values)
    assert rec.iterations == slow.iterations + 3  # the tried Newton steps count
    assert certify_solution(rec, p).overall

    # the tried Newton inner solves are named when the whole solve fails
    monkeypatch.setattr(solve, "_newton_polish", polish)
    monkeypatch.setattr(solve, "solve_minres", lambda A, b, **kw: (np.zeros_like(b), False))
    with pytest.raises(NonconvergenceError, match="3 of 3 Newton inner solves stopped short"):
        minimize_on_Nminus(p, gs, solved_seed=True)


def test_minus_newton_result_above_the_start_ray_is_refused(box9, monkeypatch):
    """Newton from the ground state's ray "lands" on the Minus point of the
    e1 ray, which is converged, of class Minus and positive, but above J of
    the start ray: the solve descends instead."""
    p = box9.params(lam_factor=0.5, mu=0.01)
    gs = ground_state(p.lam, box9.spectral, box9.lift)
    slow = _descend_only(p, gs)
    ts = p.two_star
    start = reduced_functional(solve._unit(np.abs(gs.values), p.domain, ts), p)
    e1_ray = reduced_functional(solve._unit(box9.spectral.e1.values, p.domain, ts), p)[2]
    above = solve.build_record(p, e1_ray, 0.0, SeedKind.USER, 0)
    assert above.klass is Klass.MINUS and above.energy > energy(start[2], p) > 0
    polish, calls = solve._newton_polish, []

    def lands_above(p, vvals, max_steps, flags):
        calls.append(max_steps)
        return (e1_ray, 0.0, 1, True) if len(calls) == 1 else polish(p, vvals, max_steps, flags)

    monkeypatch.setattr(solve, "_newton_polish", lands_above)
    rec = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY, solved_seed=True)
    assert len(calls) == 2
    assert np.array_equal(rec.v.values, slow.v.values)
    assert rec.iterations == slow.iterations + 1


def test_minus_newton_is_not_tried_from_a_nonpositive_start_ray(box9, monkeypatch):
    """Past the end of the Minus branch (mu-star-sweep, lam = lam1/4) the
    ground state's ray has J(v0) = E(t_minus(v0) v0) <= 0: every Minus
    solve from it raises NonpositiveMinusLevelError carrying J(v0) before
    any Newton step or descent, for every seed kind."""
    p = box9.params(lam_factor=0.25, mu=0.66)
    gs = ground_state(p.lam, box9.spectral, box9.lift)
    ts = p.two_star
    w0 = reduced_functional(solve._unit(np.abs(gs.values), p.domain, ts), p)[2]
    j0 = energy(w0, p)
    assert j0 <= 0

    def never(*args):
        raise AssertionError("a Newton step or a descent ran")

    monkeypatch.setattr(solve, "_newton_polish", never)
    monkeypatch.setattr(solve, "_cone_descent", never)
    for kind in SeedKind:
        for solved_seed in (False, True):
            with pytest.raises(NonpositiveMinusLevelError) as err:
                minimize_on_Nminus(p, gs, seed_kind=kind, solved_seed=solved_seed)
            assert err.value.j0 == j0
            assert isinstance(err.value, BranchAbsentError)


def _minus_without_start_check(p, seed, budget_factor=1.0, seed_kind=SeedKind.USER,
                               solved_seed=False):
    """The Minus solve with no start-ray check, kept as the reference: Newton
    first from a solved seed when E(w0) > 0, then the cone descent and the
    polish."""
    v = solve._unit(np.abs(seed.values), p.domain, p.two_star)
    iterations, flags = 0, []
    if solved_seed:
        w0 = reduced_functional(v, p)[2]
        e0 = energy(w0, p)
        if e0 > 0:
            wv, gn, iterations, ok = solve._newton_polish(p, w0, solve.NEWTON_FIRST_STEPS, flags)
            if ok:
                rec = solve.build_record(p, wv, gn, seed_kind, iterations)
                if rec.klass is Klass.MINUS and 0 < rec.energy <= e0:
                    return rec
    (_, t, v, _), passes, _ = solve._cone_descent(
        p, solve._cone_point(p, v), max(1, int(solve.MINUS_PASSES * budget_factor)))
    wv, gn, steps, ok = solve._newton_polish(p, t * v, solve._polish_steps(budget_factor), flags)
    if ok:
        rec = solve.build_record(p, wv, gn, seed_kind, iterations + passes + steps)
        if rec.klass is Klass.MINUS and rec.energy > 0:
            return rec
    raise NonconvergenceError("no Minus record", residual=gn)


def test_nonpositive_start_rays_leave_the_continuation_rows_unchanged(box9, monkeypatch):
    """At lam = 3/4 lam1 the mu* continuation meets Minus rows whose start
    ray has J(v0) <= 0, and one, at J(v0) > 0, whose Newton-first step
    converges to a Minus point of energy <= 0.  Every failing Minus row
    raises NonpositiveMinusLevelError, and ending those rows at once gives
    the rows and the estimate that running their descents gives."""
    lam = 0.75 * box9.spectral.lambda1
    shipped, raised = solve.minimize_on_Nminus, []

    def counted(*args, **kwargs):
        try:
            return shipped(*args, **kwargs)
        except NonpositiveMinusLevelError as e:
            raised.append(e.j0)
            raise

    monkeypatch.setattr(solve, "minimize_on_Nminus", counted)
    fast = estimate_mu_star(lam, box9.spectral, box9.lift)
    monkeypatch.setattr(solve, "minimize_on_Nminus", _minus_without_start_check)
    slow = estimate_mu_star(lam, box9.spectral, box9.lift)
    assert raised and all(j0 <= 0 for j0 in raised)
    assert sum(not r.minus_converged for r in fast[1]) == len(raised)
    assert repr(fast) == repr(slow)


def test_continuation_descends_only_for_the_ground_state(box9, monkeypatch):
    """At lam = 3/4 lam1 every Minus row of the mu* continuation is solved
    by Newton from a solved seed or ends with NonpositiveMinusLevelError:
    the one cone descent is the ground state's."""
    descent, descents = solve._cone_descent, []

    def counted(*args):
        descents.append(args[0].mu)
        return descent(*args)

    monkeypatch.setattr(solve, "_cone_descent", counted)
    monkeypatch.setattr(box9.spectral, "ground_state_cache", {})  # solve the ground state here
    _, rows = estimate_mu_star(0.75 * box9.spectral.lambda1, box9.spectral, box9.lift)
    assert descents == [0.0] and len(rows) == 17


def test_minus_solve_is_one_descent_and_one_polish(box9, monkeypatch):
    """Near the end of the Minus branch (lam = 3/4 lam1, mu = 0.12, where
    the ground state's ray still has J > 0) the descent passes below J = 0,
    and Newton from its handoff point converges to a Minus point of energy
    about -0.108: the solve ends with NonpositiveMinusLevelError after one
    descent and one Newton run.  With that try refused, the solve fails
    after two descents, the second resumed from the first's end, and two
    Newton runs: the resumed descent's end point w = t v projects back onto
    v, so a further descent would resume at the point where it stopped."""
    p = box9.params(lam_factor=0.75, mu=0.12)
    gs = ground_state(p.lam, box9.spectral, box9.lift)
    descent, polish, starts, ends, polishes = (solve._cone_descent, solve._newton_polish,
                                               [], [], [])

    def logged_descent(p, point, *args):
        starts.append(point)
        out = descent(p, point, *args)
        ends.append(out)
        return out

    def logged_polish(*args):
        polishes.append(args)
        return polish(*args)

    monkeypatch.setattr(solve, "_cone_descent", logged_descent)
    monkeypatch.setattr(solve, "_newton_polish", logged_polish)
    with pytest.raises(NonpositiveMinusLevelError) as err:
        minimize_on_Nminus(p, gs)
    assert len(ends) == 1 and len(polishes) == 1 and err.value.j0 < 0

    def refused(p, w, j_cap, seed_kind, flags, iterations, passes):
        return None, solve._newton_polish(p, w, solve.NEWTON_FIRST_STEPS, flags)[2]

    monkeypatch.setattr(solve, "_newton_try", refused)
    del starts[:], ends[:], polishes[:]
    with pytest.raises(NonconvergenceError):
        minimize_on_Nminus(p, gs)
    assert len(ends) == 2 and len(polishes) == 2
    assert starts[1] is ends[0][0]
    assert polishes[0][2] == solve.NEWTON_FIRST_STEPS
    (_, t, v, _), _, _ = ends[1]
    again = solve._unit(np.abs(t * v), p.domain, p.two_star)
    assert np.abs(again - v).max() <= 1e-14 * np.abs(v).max()


def _descent_then_polish(p, seed):
    """The Minus solve with no handoff, kept as the reference: one cone
    descent to 1e2 times the convergence target, then one Newton polish."""
    v = solve._unit(np.abs(seed.values), p.domain, p.two_star)
    (_, t, v, _), passes, _ = solve._cone_descent(p, solve._cone_point(p, v),
                                                  solve.MINUS_PASSES, 1e2)
    wv, gn, steps, ok = solve._newton_polish(p, t * v, solve._polish_steps(1.0), [])
    assert ok
    return solve.build_record(p, wv, gn, SeedKind.USER, passes + steps, passes)


@pytest.mark.parametrize("setup, lam_factor", [("box9", 0.25), ("box9", 0.75),
                                               ("annulus9", 0.5)])
def test_minus_handoff_lands_where_the_full_descent_does(setup, lam_factor, request,
                                                         monkeypatch):
    """From the default bump (a lattice spike at 0.25 lam1 on the 9^3 box, a
    resolved record at 0.75 lam1, and on the annulus) the descent hands
    over to Newton early and lands on the record of the descent run to 1e2
    times the target and polished, energy within 1e-12.  With the handoff
    try refused, the resumed descent takes the reference's path: the record
    is the reference's bit for bit, and the pass the resumed descent
    repeats counts once more."""
    s = request.getfixturevalue(setup)
    p = s.params(lam_factor=lam_factor, mu=0.01)
    seed = Field(s.domain.default_bump, s.domain)
    ref = _descent_then_polish(p, seed)
    rec = minimize_on_Nminus(p, seed)
    assert rec.klass is ref.klass is Klass.MINUS
    assert abs(rec.energy - ref.energy) <= 1e-12 * abs(ref.energy)
    assert 0 < rec.descent_passes < ref.descent_passes

    monkeypatch.setattr(solve, "_newton_try", lambda *args: (None, 0))
    slow = minimize_on_Nminus(p, seed)
    assert np.array_equal(slow.v.values, ref.v.values)
    assert (slow.energy, slow.grad_norm, slow.klass) == (ref.energy, ref.grad_norm, ref.klass)
    assert (slow.iterations, slow.descent_passes) == (ref.iterations + 1, ref.descent_passes + 1)


# -- reflection fold ---------------------------------------------------------------


@pytest.fixture(scope="module")
def fold_setups(box9, annulus9):
    """Lattices of both parities of n, in N = 3 and 4, a cube, an
    anisotropic box and the annulus."""
    return {"cube-odd": box9, "annulus-odd": annulus9,
            "cube-even": Setup(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 8)),
            "sides": Setup(DomainSpec(Box((1.0, 0.6, 0.8)), 3, 9)),
            "N4-odd": Setup(DomainSpec(Box((1.0, 1.0, 1.0, 1.0)), 4, 7)),
            "N4-even": Setup(DomainSpec(Box((1.0, 1.0, 1.0, 1.0)), 4, 8))}


def _solved_on(monkeypatch):
    """Log the number of nodes each Plus and Minus solve runs on."""
    nodes = []
    for name in ("_plus_solve", "_minus_solve"):
        def logged(p, *args, search=getattr(solve, name)):
            nodes.append(p.domain.n_interior)
            return search(p, *args)
        monkeypatch.setattr(solve, name, logged)
    return nodes


@pytest.mark.parametrize("name", ["cube-odd", "cube-even", "sides", "N4-odd", "N4-even",
                                  "annulus-odd"])
def test_folded_solve_matches_the_full_one(fold_setups, name, monkeypatch):
    """With the node-count floor lifted, the Plus solve, the ground state's
    descent and the Minus solve from the ground state run on the fold of
    the axes whose reflection fixes the lattice, mu phi and the seed (on
    the annulus the default bump sits on the first axis, so its ground
    state and Minus solve fold over the other two).  Each record is the
    unfolded solve's on the full lattice (`_plus_solve`, `_minus_solve`):
    energy within 1e-12, the same class, a grad_norm taken on the full
    lattice, and it certifies there."""
    s = fold_setups[name]
    p = s.params(lam_factor=0.5, mu=0.01)
    monkeypatch.setattr(grid, "FOLD_MIN_NODES", 0)
    monkeypatch.setattr(s.spectral, "ground_state_cache", {})
    nodes = _solved_on(monkeypatch)
    gs = ground_state(p.lam, s.spectral, s.lift)
    bump = s.domain.default_bump
    folded = [minimize_on_Nplus(p),
              minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY, solved_seed=True)]
    monkeypatch.undo()
    full = [solve._plus_solve(p, solve.zero_relax_seed(p).values, SeedKind.ZERO_RELAX, 1.0),
            solve._minus_solve(p, gs.values, 1.0, SeedKind.GROUND_STATE_RAY, True)]
    gs_full = solve._minus_solve(s.params(lam_factor=0.5, mu=0.0), bump, 1.0,
                                 SeedKind.GROUND_STATE_RAY, False)
    dom = s.domain
    on_gs = dom.fold(grid.fixed_axes(dom, dom.mirror_axes, bump)).n_interior
    assert nodes == [on_gs, dom.fold(dom.mirror_axes).n_interior, on_gs]
    assert on_gs == dom.fold((1, 2) if name == "annulus-odd" else dom.mirror_axes).n_interior
    assert abs(gs.values - gs_full.v.values).max() <= 1e-9 * abs(gs_full.v.values).max()
    for rec, ref in zip(folded, full):
        assert rec.klass is ref.klass
        assert abs(rec.energy - ref.energy) <= 1e-12 * abs(ref.energy)
        v = rec.v.values
        assert rec.grad_norm == p.domain.l2_norm(gradient_values(v, p))
        assert certify_solution(rec, p).overall


def test_asymmetric_data_or_seed_solve_unfolded(box13, monkeypatch):
    """A 13^3 cube folds its solves over every axis by default; a seed that
    no mid-plane reflection fixes runs unfolded, and boundary data peaked
    on the first axis fold the solves over the other two."""
    p = box13.params(lam_factor=0.5, mu=0.01)
    dom = box13.domain
    nodes = _solved_on(monkeypatch)
    minimize_on_Nplus(p)
    seed = np.abs(np.random.default_rng(0).standard_normal(dom.n_interior)) + 0.1
    minimize_on_Nplus(p, seed=Field(seed, dom))
    minimize_on_Nminus(p, Field(seed, dom))
    lift = solve_lift(BumpOnBoundary((1.0, 0.0, 0.0), 0.3, 1.0), dom)
    q = Params(lam=p.lam, mu=0.01, spectral=box13.spectral, lift=lift)
    assert q.mirror_axes == (1, 2) and p.mirror_axes == (0, 1, 2)
    minimize_on_Nplus(q)
    fold = dom.fold((0, 1, 2))
    assert nodes == [fold.n_interior] + [dom.n_interior] * 2 + [dom.fold((1, 2)).n_interior]
    assert np.array_equal(p.folded((0, 1, 2)).lift.values, fold.restrict(box13.lift.values))
    assert np.array_equal(p.folded((0, 1, 2)).mu_phi, fold.restrict(p.mu_phi))


@pytest.fixture(scope="module")
def bump_box13():
    """The 13^3 cube with boundary data peaked on the first axis: mu phi is
    fixed by the reflections of the other two."""
    s = Setup(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 13))
    s.lift = solve_lift(BumpOnBoundary((1.0, 0.0, 0.0), 0.3, 1.0), s.domain)
    return s


def _matches_unfolded(rec, ref, p):
    """rec, a solve on a partial fold, is ref, the unfolded solve's, on the
    full lattice: same class, energy within 1e-12 and it certifies."""
    assert rec.klass is ref.klass
    assert abs(rec.energy - ref.energy) <= 1e-12 * abs(ref.energy)
    assert certify_solution(rec, p).overall


def test_partially_folded_solves_match_the_unfolded_ones(annulus9, bump_box13, monkeypatch):
    """Solves whose data or seed only some mid-plane reflections fix run on
    the fold of those axes and match the unfolded `_plus_solve` and
    `_minus_solve` within 1e-12: the annulus ground state (its default bump
    sits on the first axis), a multistart seed on the first axis, and the
    Plus and Minus solves of boundary data peaked on the first axis."""
    monkeypatch.setattr(grid, "FOLD_MIN_NODES", 0)
    monkeypatch.setattr(annulus9.spectral, "ground_state_cache", {})
    nodes = _solved_on(monkeypatch)
    p = annulus9.params(lam_factor=0.5, mu=0.01)
    dom = annulus9.domain
    gs = ground_state(p.lam, annulus9.spectral, annulus9.lift)
    rec_plus = minimize_on_Nplus(p)
    seeds, minus = [], solve.minimize_on_Nminus

    def logged(p, seed, **kwargs):
        seeds.append(seed.values)
        return minus(p, seed, **kwargs)

    monkeypatch.setattr(solve, "minimize_on_Nminus", logged)
    bubble = multistart_Nminus(p, [np.array([1.0, 0.0, 0.0])], 0.3, rec_plus)[0]
    q = bump_box13.params(lam_factor=0.5, mu=0.01)
    q_plus = minimize_on_Nplus(q)
    q_minus = minimize_on_Nminus(q, q_plus.v)
    monkeypatch.undo()
    on = [dom.fold((1, 2)).n_interior, dom.fold((0, 1, 2)).n_interior,
          dom.fold((1, 2)).n_interior, bump_box13.domain.fold((1, 2)).n_interior]
    assert nodes == on + on[-1:]
    p0 = annulus9.params(lam_factor=0.5, mu=0.0)
    gs_full = solve._minus_solve(p0, dom.default_bump, 1.0, SeedKind.GROUND_STATE_RAY, False)
    _matches_unfolded(solve.build_record(p0, gs.values, None, SeedKind.GROUND_STATE_RAY, 0),
                      gs_full, p0)
    _matches_unfolded(bubble, solve._minus_solve(p, seeds[0], 1.0, SeedKind.BUBBLE, False), p)
    _matches_unfolded(q_plus, solve._plus_solve(q, solve.zero_relax_seed(q).values,
                                                SeedKind.ZERO_RELAX, 1.0), q)
    _matches_unfolded(q_minus, solve._minus_solve(q, q_plus.v.values, 1.0, SeedKind.USER,
                                                  False), q)


def test_small_lattices_solve_unfolded(box9, monkeypatch):
    """Below FOLD_MIN_NODES interior nodes (the 9^3 cube has 343) the
    solves run on the lattice."""
    nodes = _solved_on(monkeypatch)
    minimize_on_Nplus(box9.params(lam_factor=0.5, mu=0.01))
    assert box9.domain.n_interior < grid.FOLD_MIN_NODES and nodes == [343]


def test_folded_solve_runs_the_lattice_quadrature(box13, monkeypatch):
    """The fold shares `Domain`'s quadrature and -Lap product: a folded
    Plus solve on the 13^3 cube calls `Domain.h1_norm_sq` and
    `Domain.apply_neg_laplacian` with the fold itself."""
    calls = []
    for name in ("h1_norm_sq", "apply_neg_laplacian"):
        def counted(self, values, method=getattr(grid.Domain, name), name=name):
            calls.append((name, type(self)))
            return method(self, values)
        monkeypatch.setattr(grid.Domain, name, counted)
    minimize_on_Nplus(box13.params(lam_factor=0.5, mu=0.01))
    assert ("h1_norm_sq", grid.Fold) in calls and ("apply_neg_laplacian", grid.Fold) in calls


def test_dropped_run_is_freed_without_gc(monkeypatch):
    """After a folded solve the lattice, its fold, the spectral data and
    the lift hold no reference cycle: dropping them frees the domain at
    once, with the garbage collector off."""
    monkeypatch.setattr(grid, "FOLD_MIN_NODES", 0)
    gc.disable()
    try:
        s = Setup(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 7))
        minimize_on_Nplus(s.params(lam_factor=0.5, mu=0.01))
        ref = weakref.ref(s.domain)
        del s
        assert ref() is None
    finally:
        gc.enable()


def test_unconverged_newton_inner_solve_in_minimax_reason(annulus9, monkeypatch):
    from bnsolver import solve

    p = annulus9.params(lam_factor=0.25, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, annulus9.spectral, annulus9.lift)
    rec_minus = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    monkeypatch.setattr(solve, "solve_minres", lambda A, b, **kw: (np.zeros_like(b), False))
    _small_minimax(monkeypatch, 3, 1)
    mm = minimax_gamma(p, 0.3, rec_plus, rec_minus)
    assert not mm.found
    assert mm.reason.endswith("(1 of 1 Newton inner solves stopped short)")


def test_minimax_evaluates_each_cone_point_once(annulus9, monkeypatch):
    """Across the relaxation rounds and the pick of the maximizer the
    minimax search builds no profile twice for one cone point."""
    p = annulus9.params(lam_factor=0.25, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, annulus9.spectral, annulus9.lift)
    rec_minus = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    _small_minimax(monkeypatch, 3, 2)
    rays = _profile_rays(monkeypatch)
    mm = minimax_gamma(p, 0.3, rec_plus, rec_minus)
    assert mm.relaxed_points == 8 and len(rays) > mm.relaxed_points
    assert len(set(rays)) == len(rays)


def test_plus_solve_rejects_a_polished_point_of_another_class(cell13, monkeypatch):
    """Newton converges to the critical point nearest its start: a polish
    that ends at the cell's Minus point is a NonconvergenceError naming the
    class and the gradient norm.  The 13^3 box solves on its reflection
    fold, so the polish ends at the Minus point's fold values."""
    p, _, rec_minus = cell13
    monkeypatch.setattr(solve, "_newton_polish", lambda p, v, budget_factor, flags: (
        p.domain.restrict(rec_minus.v.values), rec_minus.grad_norm, 3, True))
    with pytest.raises(NonconvergenceError,
                       match=rf"class MINUS \(grad norm {rec_minus.grad_norm:.3e}\)"):
        minimize_on_Nplus(p)


@pytest.mark.parametrize("setup", ["box9", "annulus9"])
@pytest.mark.parametrize("lam_factor", [0.1, 0.5, 0.9])
def test_plus_record_certifies_as_plus(setup, lam_factor, request):
    s = request.getfixturevalue(setup)
    p = s.params(lam_factor=lam_factor, mu=0.01)
    rec = minimize_on_Nplus(p)
    assert rec.klass is Klass.PLUS
    cert = certify_solution(rec, p)
    assert cert.overall, str(cert)


def test_plus_solve_certifies_near_the_end_of_the_branch(box13):
    """At lam = 0.9 lam1, mu = 0.05 on the 13^3 box a cone descent of
    E(t_plus(v) v) from the zero-relax seed stalls (Newton from its last
    point leaves grad norm 0.18); projection and Newton certify a Plus
    record in at most 5 steps."""
    p = box13.params(lam_factor=0.9, mu=0.05)
    rec = minimize_on_Nplus(p)
    assert rec.klass is Klass.PLUS and rec.iterations <= 5
    cert = certify_solution(rec, p)
    assert cert.overall, str(cert)


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


def test_sign_changing_seed_gives_the_zero_relax_record(cell13, box13):
    """The Plus descent runs on the nonnegative cone from |seed|: a seed that
    changes sign ends at the record of the zero-relax seed."""
    p, rec, _ = cell13
    e1 = box13.spectral.e1.values
    seed = e1 - 0.5 * e1.max()
    assert seed.min() < 0 < seed.max()
    rec2 = minimize_on_Nplus(p, seed=Field(seed, box13.domain))
    assert rec2.klass is Klass.PLUS and rec2.positive
    assert abs(rec2.energy - rec.energy) <= 1e-12 * abs(rec.energy)
    assert np.sqrt(box13.domain.h1_norm_sq(rec.v.values - rec2.v.values)) < 1e-10


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
        d, _ = solve_cg(A.dot, g, x0=warm, rtol=1e-6, maxiter=4000)
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
    d0 = 0.45  # the cutoff radius: annulus9's delta0 = 0.5, capped at 0.45
    vals = make_bubble(0.3, y, dom)
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
        make_bubble(0.0, y, dom)
    with pytest.raises(ArgumentError):
        make_bubble(1.5, y, dom)
    with pytest.raises(ArgumentError):
        make_bubble(0.3, np.array([1.0, 1.0, 0.0]), dom)


def test_bubble_mirror_symmetry(annulus9):
    p = annulus9.params(lam_factor=0.25, mu=0.01)
    y = np.array([0.0, 0.0, 1.0])
    b1 = make_bubble(0.3, y, annulus9.domain)
    b2 = make_bubble(0.3, -y, annulus9.domain)
    e1 = energy(b1, p)
    e2 = energy(b2, p)
    assert abs(e1 - e2) <= 1e-8 * (1.0 + abs(e1))


def _bubble_direct(epsilon, y, domain):
    """The bubble computed from scratch on every call, the reference for
    `make_bubble`: frame, radius and cutoff from the interior coordinates,
    squared distances summed by numpy over each (n, N) row."""
    shape = domain.spec.shape
    if isinstance(shape, AnnulusD):
        pts, delta0 = domain.interior_coords, min(shape.delta0, 0.45)
    else:
        center = np.array([0.5 * s for s in shape.sides])
        pts, delta0 = (domain.interior_coords - center) / (0.5 * min(shape.sides)), 0.25
    N = domain.ndim
    r = np.linalg.norm(pts, axis=1)
    cut = smoothstep((r - delta0) / delta0)
    hi_lo = 1.0 / (2.0 * delta0)
    hi_hi = 1.0 / delta0
    cut = cut * (1.0 - smoothstep((r - hi_lo) / (hi_hi - hi_lo)))
    peak = (1.0 - epsilon) * np.asarray(y, dtype=float)
    amp = (N * (N - 2.0) * epsilon**2) ** ((N - 2.0) / 4.0)
    d2 = np.sum((pts - peak) ** 2, axis=1)
    prof = amp / (epsilon**2 + d2) ** ((N - 2.0) / 2.0)
    return cut * prof


@pytest.mark.parametrize("spec", [
    DomainSpec(AnnulusD(0.5), 3, 9),  # annulus9's domain
    DomainSpec(Box((1.0, 1.0, 1.0)), 3, 9),  # box9's domain
    DomainSpec(AnnulusD(0.3), 3, 13),
    DomainSpec(Box((1.0, 0.8, 1.2, 1.0)), 4, 7),
])
def test_bubble_is_the_direct_formula_bit_for_bit(spec):
    """make_bubble, with its frame and cutoff built on the domain's first
    bubble and reused after, equals the direct formula exactly for every
    axis and diagonal direction and several widths."""
    dom = build_domain(spec)
    for call in range(2):
        for eps in (0.05, 0.2, 0.25, 0.3, 0.5, 0.9):
            for y in sphere_directions(dom.ndim):
                assert np.array_equal(make_bubble(eps, y, dom), _bubble_direct(eps, y, dom))
        frame = dom.bubble_frame
        assert dom.bubble_frame is frame and frame[0].flags.c_contiguous


def test_multistart_on_box_is_permitted(box13):
    p = box13.params(lam_factor=0.25, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    dirs = [np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])]
    recs = multistart_Nminus(p, dirs, 0.3, rec_plus)
    assert len(recs) >= 1  # no distinctness claim without the annular geometry
    for r in recs:
        assert r.klass is Klass.MINUS
        assert r.seed is SeedKind.BUBBLE


def test_minimax_needs_annulus(box13):
    p = box13.params(lam_factor=0.25, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, box13.spectral, box13.lift)
    rec_minus = minimize_on_Nminus(p, gs)
    with pytest.raises(PreconditionError):
        minimax_gamma(p, 0.2, rec_plus, rec_minus)


def test_symmetry_maps_a_bubble_to_the_bubble_at_the_image_point(annulus9):
    dom = annulus9.domain
    y = np.array([0.6, 0.8, 0.0])
    b = make_bubble(0.3, y, dom)
    for g in dom.symmetries:
        gb = make_bubble(0.3, symmetry_point(g, y), dom)
        assert np.max(np.abs(dom.apply_symmetry(g, b) - gb)) <= 1e-12 * np.max(gb)


def test_symmetry_images_match_solved_seeds(annulus9, monkeypatch):
    """Multistart over the six axes and the minimax relaxation give the same
    records and level whether image seeds are mapped or solved."""
    p = annulus9.params(lam_factor=0.25, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, annulus9.spectral, annulus9.lift)
    rec_minus = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    dirs = sphere_directions(3, 6)
    _small_minimax(monkeypatch, 3, 2)

    def searches():
        return (multistart_Nminus(p, dirs, 0.3, rec_plus),
                minimax_gamma(p, 0.3, rec_plus, rec_minus))

    mapped, mm = searches()
    monkeypatch.setattr(solve._Orbits, "find", lambda self, y, seed: None)
    solved, mm_solved = searches()

    assert len(mapped) == len(solved) == 6
    assert mapped[0].image_of is None and mapped[0].iterations > 0
    assert all(r.image_of is mapped[0] and r.iterations == 0 for r in mapped[1:])
    assert all(r.image_of is None for r in solved)
    for a, b in zip(mapped, solved):
        assert a.klass is b.klass is Klass.MINUS
        assert abs(a.energy - b.energy) <= 1e-12 * abs(b.energy)
        assert np.max(np.abs(a.v.values - b.v.values)) <= 1e-10
        assert np.array_equal(a.seed_direction, b.seed_direction)
        assert certify_solution(a, p).overall and certify_solution(b, p).overall
    # 14 directions at 2 interior radii fall into 4 orbits; two rounds
    assert (mm.relaxed_points, mm.image_points) == (8, 48)
    assert (mm_solved.relaxed_points, mm_solved.image_points) == (56, 0)
    assert mm.gamma_estimate == pytest.approx(mm_solved.gamma_estimate, rel=1e-12, abs=0.0)
    assert (mm.found, mm.reason) == (mm_solved.found, mm_solved.reason)


def test_asymmetric_boundary_data_solve_every_seed(annulus9, monkeypatch):
    """A boundary bump in a direction no signed axis permutation fixes
    leaves only the identity, so no record or family point is an image."""
    dom = annulus9.domain
    lift = solve_lift(BumpOnBoundary((1.0, 0.4, 0.2), 0.8, 1.0), dom)
    p = Params(lam=0.25 * annulus9.spectral.lambda1, mu=0.01, spectral=annulus9.spectral,
               lift=lift)
    assert solve._Orbits(p).group == [dom.symmetries[0]]
    rec_plus = minimize_on_Nplus(p)
    recs = multistart_Nminus(p, sphere_directions(3, 6), 0.3, rec_plus)
    assert recs and all(r.image_of is None and r.iterations > 0 for r in recs)
    gs = ground_state(p.lam, annulus9.spectral, lift)
    rec_minus = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    _small_minimax(monkeypatch, 3, 1)
    mm = minimax_gamma(p, 0.3, rec_plus, rec_minus)
    assert (mm.relaxed_points, mm.image_points) == (28, 0)


def test_symmetry_group_is_found_once_per_params(annulus9, monkeypatch):
    """The multistart and the minimax of one (lam, mu) share one symmetry
    group: all symmetries are applied to mu*phi once, on the first search,
    each to the one lattice array of mu*phi."""
    p = annulus9.params(lam_factor=0.25, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, annulus9.spectral, annulus9.lift)
    rec_minus = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    dom = annulus9.domain
    act, on_mu_phi, arrays = functional._lattice_act, [], set()

    def counted(x, P, S):
        on_mu_phi.append((P, S))
        arrays.add(id(x))
        return act(x, P, S)

    monkeypatch.setattr(functional, "_lattice_act", counted)
    multistart_Nminus(p, sphere_directions(3, 6), 0.3, rec_plus)
    assert on_mu_phi == dom.symmetries
    _small_minimax(monkeypatch, 3, 1)
    minimax_gamma(p, 0.3, rec_plus, rec_minus)
    assert on_mu_phi == dom.symmetries and len(arrays) == 1
    assert solve._Orbits(p).group is p.symmetry_group and len(p.symmetry_group) == 48


def test_minimax_on_folds_matches_the_unfolded_search(annulus9, monkeypatch):
    """With the node-count floor lifted the minimax relaxes each orbit
    representative on the fold of the reflections that fix its point (the
    axis points over the other two axes; no reflection fixes a diagonal
    point) and unfolds the maximiser before the polish: the same
    gamma_estimate to 1e-12, the same point counts and the same outcome as
    with the fold patched out."""
    p = annulus9.params(lam_factor=0.25, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, annulus9.spectral, annulus9.lift)
    rec_minus = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    _small_minimax(monkeypatch, 3, 2)
    full = minimax_gamma(p, 0.3, rec_plus, rec_minus)
    monkeypatch.setattr(grid, "FOLD_MIN_NODES", 0)
    nodes, descent = [], solve._cone_descent

    def logged(p, *args):
        nodes.append(p.domain.n_interior)
        return descent(p, *args)

    monkeypatch.setattr(solve, "_cone_descent", logged)
    folded = minimax_gamma(p, 0.3, rec_plus, rec_minus)
    dom = annulus9.domain
    assert set(nodes) == {dom.fold((0, 1, 2)).n_interior, dom.fold((1, 2)).n_interior,
                          dom.n_interior}
    assert abs(folded.gamma_estimate - full.gamma_estimate) <= 1e-12 * abs(full.gamma_estimate)
    assert (folded.relaxed_points, folded.image_points) == (full.relaxed_points,
                                                            full.image_points)
    assert folded.found is full.found
    if full.found:
        assert abs(folded.record.energy - full.record.energy) <= 1e-12 * full.record.energy


def test_folds_of_every_axis_take_no_reflection(monkeypatch):
    """Data and seeds that every mid-plane reflection fixes pass the gate
    of the fold over all axes at once: a folded box solve builds no
    reflection table."""
    s = Setup(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 12))
    p = s.params(lam_factor=0.5, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    minimize_on_Nminus(p, ground_state(p.lam, s.spectral, s.lift))
    assert rec_plus.iterations > 0 and list(vars(s.domain)["_folds"]) == [(0, 1, 2)]
    assert "_reflections" not in vars(s.domain)


@pytest.mark.parametrize("boundary", ["constant", "bump"])
def test_orbit_lookup_is_a_scan_over_the_domain_symmetries(annulus9, boundary):
    """`_Orbits.find` returns the (g, outcome) of a brute-force scan: the
    solved seeds in the order added, for each the domain's symmetries in
    order, keeping the first g that fixes mu*phi, maps y0 to y and maps the
    solved seed onto the queried one."""
    dom = annulus9.domain
    lift = annulus9.lift if boundary == "constant" else solve_lift(
        BumpOnBoundary((1.0, 0.4, 0.2), 0.8, 1.0), dom)
    p = Params(lam=0.25 * annulus9.spectral.lambda1, mu=0.01, spectral=annulus9.spectral,
               lift=lift)
    dirs = sphere_directions(3)
    orbits, solved = solve._Orbits(p), []
    # an axis bubble, a diagonal one and an axis blend with its antipode
    for k, (y, vals) in enumerate([
            (dirs[0], make_bubble(0.3, dirs[0], dom)),
            (dirs[6], make_bubble(0.3, dirs[6], dom)),
            (dirs[2], make_bubble(0.5, dirs[2], dom) + 0.5 * make_bubble(0.5, -dirs[2], dom))]):
        orbits.add(y, vals, k)
        solved.append((y, vals, k))

    def brute(y, seed):
        for y0, seed0, outcome in solved:
            for g in dom.symmetries:
                if (grid._matches(dom.apply_symmetry(g, p.mu_phi), p.mu_phi)
                        and np.array_equal(symmetry_point(g, y0), y)
                        and grid._matches(dom.apply_symmetry(g, seed0), seed)):
                    return g, outcome
        return None

    queries = [(y, make_bubble(eps, y, dom)) for y in dirs for eps in (0.3, 0.4)]
    queries += [(y, make_bubble(0.5, y, dom) + 0.5 * make_bubble(0.5, -y, dom)) for y in dirs]
    hits = 0
    for y, seed in queries:
        found = orbits.find(y, seed)
        assert found == brute(y, seed)
        hits += found is not None
    # every direction's eps = 0.3 bubble and every axis blend hit with the
    # full group; with the bump only the solved seeds themselves do
    assert hits == (14 + 6 if boundary == "constant" else 3)


def test_sphere_directions_count_is_bounded():
    assert len(sphere_directions(3)) == 14 and len(sphere_directions(4, 24)) == 24
    with pytest.raises(ArgumentError, match="15 directions asked for, R\\^3 has 14"):
        sphere_directions(3, 15)


def test_cone_step_tries_only_steps_resolvable_in_J(annulus9, monkeypatch):
    """A cone step tries step b only while its required gain 1e-4 * b *
    slope is at least one ulp of J, and at most 30 steps."""
    p = annulus9.params(lam_factor=0.25, mu=0.01)
    dom = annulus9.domain
    v = make_bubble(0.3, np.array([1.0, 0.0, 0.0]), dom)
    v /= dom.lp_norm(v, dom.two_star)
    _, t, w, _ = reduced_functional(v, p)
    g = gradient_values(w, p)
    dr = dom.precondition(g)
    theta = dom.weight * float(np.dot(signed_pow(v, dom.two_star - 1.0), dr))
    slope = t * dom.inner(g, dr - theta * v)
    assert slope > 0
    trials = []
    # every trial is scored as rejected (no root), so armijo runs all it may
    monkeypatch.setattr(solve, "_cone_point", lambda *a: trials.append(a))

    def tries(j_val):
        trials.clear()
        assert solve._cone_step(p, v, t, j_val, g, dr, 1.0) is None
        return len(trials)

    eps = np.finfo(float).eps
    assert tries(1.0) == 30
    assert tries(1e-4 * slope * 0.5**4.5 / eps) == 5
    assert tries(2e-4 * slope / eps) == 0


def test_cone_descent_metric_does_not_move_the_critical_point(annulus9, monkeypatch):
    """The cone descent lifts its gradient by the bounding-box sine solve;
    lifting it by the exact -Lap solve instead (CG to 1e-12, which then
    also preconditions the Newton MINRES) gives a different descent path
    but, after the Newton polish, the same Minus critical point from the
    ground-state ray and from a bubble seed."""
    p = annulus9.params(lam_factor=0.25, mu=0.01)
    dom = annulus9.domain
    seeds = [ground_state(p.lam, annulus9.spectral, annulus9.lift),
             Field(make_bubble(0.3, np.array([1.0, 0.0, 0.0]), dom), dom)]

    def solves():
        return [minimize_on_Nminus(p, s) for s in seeds]

    shipped = solves()
    monkeypatch.setattr(type(dom), "precondition",
                        lambda self, b: _cg(self.matrix.dot, b, None, 1e-12, 20000, "exact lift"))
    exact = solves()
    for a, b in zip(shipped, exact):
        assert a.klass is b.klass is Klass.MINUS
        assert abs(a.energy - b.energy) <= 1e-12 * abs(b.energy)
        assert np.sqrt(dom.h1_norm_sq(a.v.values - b.v.values)) < 1e-8


def test_no_conjugate_gradients_after_setup(annulus9, monkeypatch):
    """Past the domain's setup (eigensolve, harmonic lift, Sobolev
    estimate) no search on the annulus runs CG: the descents lift by the
    preconditioner and Newton runs MINRES."""

    def no_cg(*args, **kwargs):
        raise AssertionError("conjugate gradients called after setup")

    # grid binds solve_cg at import, so patch its name there too
    for module in (numutil, grid):
        monkeypatch.setattr(module, "solve_cg", no_cg)
    p = annulus9.params(lam_factor=0.25, mu=0.01)
    rec_plus = minimize_on_Nplus(p)
    gs = ground_state(p.lam, annulus9.spectral, annulus9.lift)
    rec_minus = minimize_on_Nminus(p, gs, seed_kind=SeedKind.GROUND_STATE_RAY)
    assert rec_minus.klass is Klass.MINUS
    assert multistart_Nminus(p, sphere_directions(3, 6), 0.3, rec_plus)
    _small_minimax(monkeypatch, 2, 1)
    mm = minimax_gamma(p, 0.3, rec_plus, rec_minus)
    assert mm.relaxed_points > 0


# -- continuation -----------------------------------------------------------


def test_default_bump_is_built_once_across_a_continuation(monkeypatch):
    """The domain's default bump starts the Sobolev descent and the ground
    state and probes every continuation try; it is built once."""
    builds = count_builds(monkeypatch, grid.Domain, ["default_bump"])
    setup = Setup(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 7))
    assert len(builds) == 1  # the Sobolev descent's start
    admissible, tries = solve._admissible, []

    def counted(p):
        tries.append(p.mu)
        return admissible(p)

    monkeypatch.setattr(solve, "_admissible", counted)
    _, rows = estimate_mu_star(0.5 * setup.spectral.lambda1, setup.spectral, setup.lift,
                               max_cells=4)
    assert len(tries) >= len(rows) == 4 and len(builds) == 1


def test_record_diagnostics_are_taken_when_written(box9, monkeypatch):
    """A record takes its barycenter and gradient direction integral when
    its JSON is first written, each once, with the values a direct call
    gives; building it and the mu* continuation's rows take neither."""
    p = box9.params(lam_factor=0.5, mu=0.01)
    dom = box9.domain
    bary, gdi, calls = solve.barycenter, grid.Domain.gradient_direction_integral, []
    monkeypatch.setattr(solve, "barycenter", lambda f: calls.append("bary") or bary(f))
    monkeypatch.setattr(grid.Domain, "gradient_direction_integral",
                        lambda self, v: calls.append("gdi") or gdi(self, v))
    estimate_mu_star(p.lam, box9.spectral, box9.lift, max_cells=3)
    v = reduced_functional(solve._unit(box9.spectral.e1.values, dom, p.two_star), p)[2]
    rec = solve.build_record(p, v, 0.0, SeedKind.USER, 0)
    assert calls == []
    first = rec.to_json_dict()
    assert sorted(calls) == ["bary", "gdi"] and rec.to_json_dict() == first and len(calls) == 2
    assert first["barycenter"] == [float(x) for x in bary(rec.v)]
    assert first["grad_dir_integral"] == [float(x) for x in gdi(dom, v)]


def test_mu_star_precondition(box9):
    with pytest.raises(PreconditionError):
        estimate_mu_star(2.0 * box9.spectral.lambda1, box9.spectral, box9.lift)
    with pytest.raises(PreconditionError):
        estimate_mu_star(0.0, box9.spectral, box9.lift)


def test_mu_star_finite_positive_and_deterministic(box9, monkeypatch):
    cfg = dict(max_cells=10)
    lam = 0.5 * box9.spectral.lambda1
    admissible, admitted, plus_seeds = solve._admissible, [], []

    def counted(p):
        admitted.append(admissible(p))
        return admitted[-1]

    def plus(p, seed=None, budget_factor=1.0):
        plus_seeds.append(seed)
        return minimize_on_Nplus(p, seed, budget_factor)

    monkeypatch.setattr(solve, "_admissible", counted)
    monkeypatch.setattr(solve, "minimize_on_Nplus", plus)
    mu1, rows1 = estimate_mu_star(lam, box9.spectral, box9.lift, **cfg)
    # one Plus solve per admissible row: the zero-relax seed on the first,
    # the previous row's record after it
    assert len(plus_seeds) == sum(admitted)
    assert plus_seeds[0] is None and all(s is not None for s in plus_seeds[1:])
    assert 0.0 < mu1 < np.inf
    assert rows1, "no successful continuation cells"
    mus = [r.mu for r in rows1]
    assert mus == sorted(mus)
    for r in rows1:
        assert r.energy_plus < 0
    # energy at zero decreases in mu (closed form), a monotone backdrop
    e0s = [energy(np.zeros(box9.domain.n_interior), box9.params(lam=lam, mu=m)) for m in mus]
    assert all(b < a for a, b in zip(e0s, e0s[1:]))

    mu2, rows2 = estimate_mu_star(lam, box9.spectral, box9.lift, **cfg)
    assert repr((mu1, [(r.mu, r.energy_plus, r.energy_minus) for r in rows1])) == repr(
        (mu2, [(r.mu, r.energy_plus, r.energy_minus) for r in rows2])
    )
