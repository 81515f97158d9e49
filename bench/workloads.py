"""The benchmark's workloads and the configs generated from a workload seed.

Each workload is one `bnsolver run` config.  Seed 0 gives the reference
configs exactly; any other seed scales every lambda multiplier and every mu
by a factor drawn from [1 - perturb, 1 + perturb] and sets `[random] seed`,
so that a claim can be re-checked on inputs it was not tuned on.  The
program only ever sees the generated config text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Tuple

# Default largest relative change a non-zero seed makes to a lambda
# multiplier or a mu.  Small enough that every cell keeps its regime (search
# or nonexistence) and certifies, so statuses can still be gated.
PERTURB = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str  # "box" or "annulus"
    resolution: int
    lambda_multipliers: Tuple[float, ...]
    mus: Tuple[float, ...]
    searches: str
    searches_extra: Dict[str, str] = field(default_factory=dict)
    perturb: float = PERTURB


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="box-cells",
            # Poisson solves and the Plus projected descent dominate (CG about
            # half of the run, minimize_on_Nplus about 60%, find_roots about a
            # quarter), and its field dumps make the heaviest certify read
            # path.  Exercises the box-only fast Poisson solver and the
            # Newton-first Plus branch.
            why="box res 25, 4 search and 2 nonexistence cells: Poisson solves and Plus descent "
                "dominate, heaviest certify read path",
            shape="box",
            resolution=25,
            lambda_multipliers=(0.25, 0.75, 1.2),
            mus=(0.01, 0.04),
            searches="nplus nminus",
        ),
        Workload(
            name="annulus-multiplicity",
            # The masked lattice bypasses any box-only Poisson fast path (the
            # prediction there is no change) while CG is still about half of
            # the run; the bubble multistart and the minimax cone relaxation
            # load the reduced-functional kernel.
            why="annulus res 27 with multistart and minimax: bypasses box-only Poisson paths, "
                "loads the reduced-functional cone search",
            shape="annulus",
            resolution=27,
            lambda_multipliers=(0.1,),
            mus=(0.005,),
            searches="nplus nminus multistart minimax",
            searches_extra={"directions": "6", "epsilon": "0.25"},
        ),
        Workload(
            name="mu-star-sweep",
            # 343 unknowns: per-call overhead dominates (about 9,000
            # find_roots calls and 100,000 dT evaluations), Poisson solves do
            # not, so it separates overhead cuts from solver cuts.
            why="box res 9 mu* continuation: per-call overhead of fibering roots dominates, "
                "large Poisson solves do not",
            shape="box",
            resolution=9,
            lambda_multipliers=(0.25, 0.5, 0.75),
            mus=(0.01,),
            searches="nplus nminus mu_star",
            searches_extra={"mu_star_cells": "24"},
            # The continuation path, and with it the work, changes with
            # lambda: dT evaluations vary by 14% (IQR/median over eight
            # seeds) at +-3% and by 7% at +-0.5%.  Runnable, but not in the
            # workload list of BENCHMARK.json: on the 2-core VM it was tuned on,
            # its run_s and certify_s spread over ten seeds (IQR/median)
            # reached 0.25-0.35, past the largest bound a metric may have.
            perturb=0.005,
        ),
    )
}


def _scaled(x: float, rng: random.Random, perturb: float) -> float:
    return float(f"{x * (1.0 + rng.uniform(-perturb, perturb)):.4g}")


def parameters(w: Workload, seed: int):
    """(lambda multipliers, mus) for this seed; seed 0 is the reference set."""
    if seed == 0:
        return w.lambda_multipliers, w.mus
    rng = random.Random(f"{w.name}:{seed}")
    lams = tuple(_scaled(m, rng, w.perturb) for m in w.lambda_multipliers)
    mus = tuple(_scaled(m, rng, w.perturb) for m in w.mus)
    return lams, mus


def make_config(name: str, seed: int) -> str:
    """Config text for workload `name` at workload seed `seed`."""
    w = WORKLOADS[name]
    lams, mus = parameters(w, seed)
    if w.shape == "box":
        domain = "shape = box\nsides = 1 1 1\n"
    else:
        domain = "shape = annulus\ndelta0 = 0.45\n"
    searches = "".join(f"{k} = {v}\n" for k, v in w.searches_extra.items())
    return (
        f"# workload {w.name}, seed {seed}: {w.why}\n"
        f"[domain]\n{domain}dimension = 3\nresolution = {w.resolution}\n\n"
        "[boundary]\nkind = constant\nvalue = 1.0\n\n"
        "[parameters]\n"
        f"lambdas = {' '.join(f'{m!r}*lambda1' for m in lams)}\n"
        f"mus = {' '.join(repr(m) for m in mus)}\n\n"
        f"[searches]\nrun = {w.searches}\n{searches}\n"
        "[output]\ndirectory = out\ndump_fields = true\n\n"
        f"[random]\nseed = {seed}\n"
    )
