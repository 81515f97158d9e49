"""Batch front door: config parsing, sweep orchestration, reporting.

Config files are line-oriented `key = value` text with `[section]` headers
and `#` comments.  A run executes the requested searches on every
(lambda, mu) cell, isolates per-cell failures, and writes solution records
as JSON plus a sweep-level CSV; `report` post-processes a run directory
into plot-ready CSV tables.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import List

import numpy as np

from .errors import (
    ArgumentError,
    AssumptionGError,
    BNSolverError,
    ConfigurationError,
    NonconvergenceError,
)
from .functional import FiberingProfile, Params
from .grid import (
    AnnulusD,
    Box,
    DomainSpec,
    Field,
    build_domain,
    compute_spectral_data,
    dump_field,
    dump_spectral_data,
    load_field,
    load_spectral_data,
)
from .lift import (
    BumpOnBoundary,
    Constant,
    TableFile,
    load_lift,
    solve_lift,
)
from .nehari import Klass, t_minus, t_plus
from .solve import (
    SeedKind,
    SolutionRecord,
    estimate_mu_star,
    ground_state,
    minimax_gamma,
    minimize_on_Nminus,
    minimize_on_Nplus,
    multistart_Nminus,
    sphere_directions,
)
from .verify import (
    certify_solution,
    convexity_ball_check,
    nonexistence_certificate,
    threshold_report,
)

KNOWN_SEARCHES = ("nplus", "nminus", "multistart", "minimax", "mu_star")
# The searches that start from the records of others: multistart from the
# Plus record, minimax from the Plus and the Minus records.
SEARCH_NEEDS = {"multistart": ("nplus",), "minimax": ("nplus", "nminus")}
# The spellings of a boolean setting, matched in any case; any other value is
# an error, so that a misspelt "true" cannot turn the setting off.
BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
# Every section of a config and the keys it may hold; any other section or
# key is an error, so that a misspelt setting cannot fall back to its default.
CONFIG_KEYS = {
    "domain": ("shape", "sides", "delta0", "dimension", "resolution"),
    "boundary": ("kind", "value", "direction", "width", "amplitude", "file"),
    "parameters": ("lambdas", "mus"),
    "searches": ("run", "directions", "epsilon", "budget_factor", "mu_star_cells"),
    "output": ("directory", "dump_fields"),
    "random": ("seed",),
}
# Keys that `report` and `certify` read from a cell JSON and from each of its
# records, with the JSON types they read them as; every cell that `run`
# writes has all of them.  A record that is the symmetry image of a solved
# one also holds `image_of`, the index of that one, an earlier record of the
# same cell.
_NUMBER = (int, float)
CELL_KEYS = {"index": int, "lambda": _NUMBER, "mu": _NUMBER, "mode": str, "status": str,
             "records": list}
RECORD_KEYS = {"class": str, "energy": _NUMBER, "grad_norm": _NUMBER, "positive": bool,
               "seed": str, "iterations": int, "barycenter": list, "grad_dir_integral": list}


def _fmt(x) -> str:
    return repr(float(x))


# -- config ------------------------------------------------------------------


class ConfigFile:
    """Line-oriented `[section]` / `key = value` text, with line-anchored
    errors; sections and keys outside CONFIG_KEYS are rejected."""

    def __init__(self, path):
        self.path = str(path)
        self.sections = {}
        self.lines = {}
        section = None
        try:
            with open(path) as f:
                text = f.readlines()
        except (OSError, ValueError) as e:
            raise ConfigurationError(f"{self.path}: unreadable config: {e}") from None
        for lineno, raw in enumerate(text, 1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in CONFIG_KEYS:
                    raise ConfigurationError(
                        f"{self.path}:{lineno}: unknown section [{section}] "
                        f"(known: {', '.join(CONFIG_KEYS)})")
                self.sections.setdefault(section, {})
                self.lines.setdefault((section, None), lineno)  # its first header
                continue
            if "=" not in line:
                raise ConfigurationError(f"{self.path}:{lineno}: expected 'key = value'")
            if section is None:
                raise ConfigurationError(f"{self.path}:{lineno}: key outside any [section]")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.lower()
            if key not in CONFIG_KEYS[section]:
                raise ConfigurationError(
                    f"{self.path}:{lineno}: unknown key {key!r} in [{section}] "
                    f"(known: {', '.join(CONFIG_KEYS[section])})")
            if (section, key) in self.lines:
                raise ConfigurationError(
                    f"{self.path}:{lineno}: key {key!r} in [{section}] repeats the one "
                    f"at line {self.lines[(section, key)]}")
            self.sections[section][key] = val
            self.lines[(section, key)] = lineno

    def error(self, section, key, msg):
        """A ConfigurationError anchored at the key's line (key None: the
        section's first header)."""
        lineno = self.lines.get((section, key))
        anchor = f"{self.path}:{lineno}" if lineno else f"{self.path}:[{section}] {key}"
        return ConfigurationError(f"{anchor}: {msg}")

    def get(self, section, key, default=None, required=False):
        val = self.sections.get(section, {}).get(key, default)
        if required and val is None:
            raise ConfigurationError(f"{self.path}: missing [{section}] {key}")
        return val

    def token(self, section, key, tok, kind=float):
        """One token of a key's value converted by `kind` (int or float); a
        float must be finite (`nan`, `inf` and an overflowing `1e400` are
        errors)."""
        try:
            val = kind(tok)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise self.error(section, key, f"not {what}: {tok!r}") from None
        if kind is float and not math.isfinite(val):
            raise self.error(section, key, f"not a finite number: {tok!r}")
        return val

    def number(self, section, key, kind=float, default=None, required=False, many=False):
        """Typed value of a key: one `kind` number, or a tuple of one or more
        whitespace-separated numbers when `many`.  Malformed values raise a
        line-anchored ConfigurationError."""
        text = self.get(section, key, default, required)
        toks = text.split()
        if not toks or (len(toks) > 1 and not many):
            raise self.error(section, key,
                             f"expected {'numbers' if many else 'one number'}, got {text!r}")
        vals = tuple(self.token(section, key, tok, kind) for tok in toks)
        return vals if many else vals[0]


def _parse_values(cfg, section, key, text, lambda1=None):
    """Number list; supports `linspace a b n` and `c*lambda1` entries."""
    toks = text.split()
    if toks and toks[0].lower() == "linspace":
        if len(toks) != 4:
            raise cfg.error(section, key, "linspace needs: linspace start stop count")
        a, b = (cfg.token(section, key, tok) for tok in toks[1:3])
        n = cfg.token(section, key, toks[3], int)
        if n < 1:
            raise cfg.error(section, key, f"linspace count must be >= 1, got {n}")
        return [float(x) for x in np.linspace(a, b, n)]
    out = []
    for tok in toks:
        t = tok.lower().replace(" ", "")
        if t.endswith("*lambda1"):
            if lambda1 is None:
                raise cfg.error(section, key, "lambda1-relative value not allowed here")
            out.append(cfg.token(section, key, t[: -len("*lambda1")]) * lambda1)
        else:
            out.append(cfg.token(section, key, tok))
    return out


@dataclass
class RunConfig:
    """A parsed config; `parse_config` sets every field."""

    domain_spec: DomainSpec
    boundary: object
    lambdas_text: str
    mus_text: str
    searches: List[str]
    directions: int
    epsilon: float
    out_dir: str
    dump_fields: bool
    seed: int  # `[random] seed`: validated, read by no solver step
    budget_factor: float
    mu_star_cells: int
    cfg: ConfigFile = dc_field(repr=False)


def parse_config(path) -> RunConfig:
    cfg = ConfigFile(path)

    shape_name = cfg.get("domain", "shape", required=True).lower()
    dim = cfg.number("domain", "dimension", int, required=True)
    res = cfg.number("domain", "resolution", int, required=True)
    if shape_name == "box":
        make_shape, size = Box, cfg.number("domain", "sides", required=True, many=True)
    elif shape_name == "annulus":
        make_shape, size = AnnulusD, cfg.number("domain", "delta0", required=True)
    else:
        raise cfg.error("domain", "shape", f"unknown shape {shape_name!r}")
    try:
        spec = DomainSpec(make_shape(size), dim, res)
    except ConfigurationError as e:
        raise cfg.error("domain", None, str(e)) from None

    kind = cfg.get("boundary", "kind", "constant").lower()
    if kind == "constant":
        boundary = Constant(cfg.number("boundary", "value", default="1.0"))
    elif kind == "bump":
        boundary = BumpOnBoundary(
            cfg.number("boundary", "direction", required=True, many=True),
            cfg.number("boundary", "width", required=True),
            cfg.number("boundary", "amplitude", default="1.0"),
        )
    elif kind == "table":
        boundary = TableFile(cfg.get("boundary", "file", required=True))
    else:
        raise cfg.error("boundary", "kind", f"unknown boundary kind {kind!r}")

    searches = cfg.get("searches", "run", required=True).split()
    if not searches:
        raise cfg.error("searches", "run", "empty searches set")
    seed = cfg.number("random", "seed", int, default="0")
    if seed < 0:
        raise cfg.error("random", "seed", f"seed must be >= 0, got {seed}")
    for s in searches:
        if s not in KNOWN_SEARCHES:
            raise cfg.error("searches", "run",
                            f"unknown search {s!r} (known: {', '.join(KNOWN_SEARCHES)})")
    for s, needs in SEARCH_NEEDS.items():
        if s in searches and not all(n in searches for n in needs):
            raise cfg.error("searches", "run", f"{s} needs {' and '.join(needs)} in the same run")

    dump_fields = cfg.get("output", "dump_fields", "false").lower()
    if dump_fields not in BOOLEANS:
        raise cfg.error("output", "dump_fields",
                        f"dump_fields must be one of {'/'.join(BOOLEANS)}, got {dump_fields!r}")

    directions = cfg.number("searches", "directions", int, default="6")
    max_directions = 2 * dim + 2**dim  # the signed axes and the diagonals of R^dim
    epsilon = cfg.number("searches", "epsilon", default="0.2")
    budget_factor = cfg.number("searches", "budget_factor", default="1.0")
    mu_star_cells = cfg.number("searches", "mu_star_cells", int, default="24")
    for key, val, ok, need in (
        ("directions", directions, 1 <= directions <= max_directions,
         f"in [1, {max_directions}] for dimension {dim}"),
        ("epsilon", epsilon, 0.0 < epsilon < 1.0, "in (0, 1)"),
        ("budget_factor", budget_factor, budget_factor > 0.0, "> 0"),
        ("mu_star_cells", mu_star_cells, mu_star_cells >= 1, ">= 1"),
    ):
        if not ok:
            raise cfg.error("searches", key, f"{key} must be {need}, got {val}")

    return RunConfig(
        domain_spec=spec,
        boundary=boundary,
        lambdas_text=cfg.get("parameters", "lambdas", required=True),
        mus_text=cfg.get("parameters", "mus", "0.0"),
        searches=searches,
        directions=directions,
        epsilon=epsilon,
        out_dir=cfg.get("output", "directory", "out"),
        dump_fields=BOOLEANS[dump_fields],
        seed=seed,
        budget_factor=budget_factor,
        mu_star_cells=mu_star_cells,
        cfg=cfg,
    )


# -- run ----------------------------------------------------------------------


# The run's spectral data archive (`grid.dump_spectral_data`), its
# harmonic lift (`grid.dump_field`) and the copy of the node table a
# `kind = table` config names, at the run root next to config.ini: they
# belong to the run, not to one cell, and certify reads the copy.
SPECTRAL_FILE = "spectral.npz"
LIFT_FILE = "lift.npy"
TABLE_FILE = "boundary_table.txt"


def _setup(rc: RunConfig):
    """Domain, spectral data, lift and the (lambda, mu) lists of a config.
    Boundary data that break the assumption on g (`lift.boundary_values`)
    are an error anchored at the [boundary] header."""
    domain = build_domain(rc.domain_spec)
    try:
        lift = solve_lift(rc.boundary, domain)
    except AssumptionGError as e:
        raise rc.cfg.error("boundary", None, str(e)) from None
    spectral = compute_spectral_data(domain)
    lambdas = _parse_values(rc.cfg, "parameters", "lambdas", rc.lambdas_text,
                            lambda1=spectral.lambda1)
    mus = _parse_values(rc.cfg, "parameters", "mus", rc.mus_text, lambda1=spectral.lambda1)
    for lam in lambdas:
        if lam <= 0:
            raise rc.cfg.error("parameters", "lambdas",
                               f"lambda values must be positive, got {lam}")
    for mu in mus:
        if mu < 0:
            raise rc.cfg.error("parameters", "mus", f"mu values must be nonnegative, got {mu}")
    return domain, spectral, lift, lambdas, mus


def _nonexistence_certificates(p: Params):
    """The two pairing certificates of a nonexistence cell: the a-priori
    margin, and the probe with the candidate e1."""
    return nonexistence_certificate(p), nonexistence_certificate(p, candidate=p.spectral.e1)


def _run_cell(ci, lam, mu, spectral, lift, rc: RunConfig):
    """One (lambda, mu) cell; never raises (failures are recorded)."""
    cell = {
        "index": ci,
        "lambda": lam,
        "mu": mu,
        "mode": "search",
        "status": "ok",
        "records": [],
        "certificates": [],
        "threshold": None,
        "error": None,
    }
    try:
        p = Params(lam=lam, mu=mu, spectral=spectral, lift=lift)
        if lam >= spectral.lambda1:
            cell["mode"] = "nonexistence"
            certs = _nonexistence_certificates(p)
            cell["certificates"] = [c.to_json_dict() for c in certs]
            cell["status"] = "nonexistence" if all(c.overall for c in certs) else "uncertified"
            return cell

        # No Plus branch exists at mu = 0, so the searches that start from
        # it (SEARCH_NEEDS) are skipped there too.
        records = []
        rec_plus = rec_minus = None
        if "nplus" in rc.searches and mu > 0:
            rec_plus = minimize_on_Nplus(p, budget_factor=rc.budget_factor)
            records.append(rec_plus)
        if "nminus" in rc.searches:
            gs = ground_state(lam, spectral, lift, budget_factor=rc.budget_factor)
            rec_minus = minimize_on_Nminus(
                p, gs, seed_kind=SeedKind.GROUND_STATE_RAY, budget_factor=rc.budget_factor,
                solved_seed=True,
            )
            records.append(rec_minus)
        if "multistart" in rc.searches and mu > 0:
            dirs = sphere_directions(p.domain.ndim, rc.directions)
            extra = multistart_Nminus(
                p, dirs, rc.epsilon, rec_plus, budget_factor=rc.budget_factor
            )
            records.extend(extra)
        if "minimax" in rc.searches and mu > 0:
            mm = minimax_gamma(p, rc.epsilon, rec_plus, rec_minus,
                               budget_factor=rc.budget_factor)
            cell["minimax"] = {
                "found": mm.found,
                "gamma_estimate": mm.gamma_estimate,
                "window": list(mm.window),
                "reason": mm.reason,
                "relaxed_points": mm.relaxed_points,
                "image_points": mm.image_points,
            }
            if mm.found:
                records.append(mm.record)

        certs = [certify_solution(r, p) for r in records]
        cell["records"] = [r.to_json_dict(records) for r in records]
        cell["certificates"] = [c.to_json_dict() for c in certs]
        cell["_fields"] = [r.v for r in records]
        if rec_plus is not None:
            cell["convexity"] = convexity_ball_check(p, [rec_plus]).to_json_dict()
        if rec_plus is not None and rec_minus is not None:
            cell["threshold"] = threshold_report(p, records).to_json_dict()
        if records and not all(c["overall"] for c in cell["certificates"]):
            cell["status"] = "uncertified"
    except BNSolverError as e:
        cell["status"] = "failed"
        cell["error"] = f"{type(e).__name__}: {e}"
    except Exception as e:  # crash isolation: a failing cell never kills the sweep
        cell["status"] = "failed"
        cell["error"] = f"{type(e).__name__}: {e}\n{traceback.format_exc()}"
    return cell


def _write_cell(out, cell, dump_fields, s_quantum):
    """Write a finished cell's field dumps (when `dump_fields`) and its JSON
    under out/cells; returns its sweep.csv row and its summary line."""
    fields = cell.pop("_fields", [])
    if dump_fields:
        for k, f in enumerate(fields):
            fp = out / "cells" / f"cell_{cell['index']:04d}_field_{k}.npy"
            dump_field(f, fp)
            cell["records"][k]["field_dump"] = str(fp.name)
    with open(out / "cells" / f"cell_{cell['index']:04d}.json", "w") as f:
        json.dump(cell, f, indent=1)
    m_plus = min((r["energy"] for r in cell["records"] if r["class"] == "PLUS"),
                 default=float("nan"))
    m_minus = min((r["energy"] for r in cell["records"] if r["class"] == "MINUS"),
                  default=float("nan"))
    certified = sum(1 for c in cell["certificates"] if c.get("overall"))
    row = [
        _fmt(cell["lambda"]), _fmt(cell["mu"]), cell["mode"],
        _fmt(m_plus), _fmt(m_minus), _fmt(s_quantum),
        str(len(cell["records"])), str(certified), cell["status"],
    ]
    line = f"  cell {cell['index']:3d} lambda={cell['lambda']:.6g} mu={cell['mu']:.6g}: "
    line += f"{cell['status']} ({len(cell['records'])} records)"
    if cell["error"]:
        line += f" [{cell['error'].splitlines()[0]}]"
    return row, line


def run(config_path, out_dir_override=None) -> int:
    rc = parse_config(config_path)
    if out_dir_override:
        rc.out_dir = out_dir_override
    # set up before the output directory is touched, so that a config
    # refused there leaves an earlier run in that directory as it was
    _, spectral, lift, lambdas, mus = _setup(rc)
    out = Path(rc.out_dir)
    (out / "cells").mkdir(parents=True, exist_ok=True)
    shutil.copy(config_path, out / "config.ini")
    if isinstance(rc.boundary, TableFile):
        shutil.copy(rc.boundary.path, out / TABLE_FILE)
    if rc.dump_fields:
        dump_spectral_data(spectral, out / SPECTRAL_FILE)
        dump_field(lift, out / LIFT_FILE)
    # Each cell's files are written as soon as it is solved; only its sweep
    # row and its summary line are kept for the end of the run.
    sweep_rows, summary = [], []
    pairs = ([(lam, mu) for lam in lambdas for mu in mus]
             if any(s != "mu_star" for s in rc.searches) else [])
    for i, (lam, mu) in enumerate(pairs):
        row, line = _write_cell(out, _run_cell(i, lam, mu, spectral, lift, rc),
                                rc.dump_fields, spectral.s_quantum)
        sweep_rows.append(row)
        summary.append(line)
    with open(out / "sweep.csv", "w") as f:
        f.write("lambda,mu,mode,m_plus,m_minus,s_quantum,n_records,n_certified,status\n")
        for row in sweep_rows:
            f.write(",".join(row) + "\n")
    exit_code = 1 if any(row[-1] == "failed" for row in sweep_rows) else 0

    if "mu_star" in rc.searches:
        stars = []
        for lam in lambdas:
            if lam >= spectral.lambda1:
                continue
            mu_star, rows = estimate_mu_star(lam, spectral, lift, max_cells=rc.mu_star_cells,
                                             budget_factor=rc.budget_factor)
            if not (np.isfinite(mu_star) and mu_star > 0):
                raise NonconvergenceError(
                    f"mu* estimate at lambda={lam} is not finite positive: {mu_star}"
                )
            stars.append((lam, mu_star, rows))
        with open(out / "mu_star.csv", "w") as f:
            f.write("lambda,mu_star,n_cells\n")
            for lam, mu_star, rows in stars:
                f.write(f"{_fmt(lam)},{_fmt(mu_star)},{len(rows)}\n")
        with open(out / "mu_star_branches.csv", "w") as f:
            # a row exists only when its Plus solve converged (`BranchRow`)
            f.write("lambda,mu,energy_plus,energy_minus,plus_converged,minus_converged\n")
            for lam, _, rows in stars:
                for r in rows:
                    f.write(
                        f"{_fmt(lam)},{_fmt(r.mu)},{_fmt(r.energy_plus)},"
                        f"{_fmt(r.energy_minus)},True,{r.minus_converged}\n"
                    )

    print(f"run complete: {len(summary)} cells -> {out}")
    for line in summary:
        print(line)
    return exit_code


# -- report --------------------------------------------------------------------


def _is(x, kind):
    """x is of type `kind`; a JSON boolean is of type bool only, not a
    number (in Python bool is a subclass of int)."""
    return isinstance(x, kind) and (kind is bool or not isinstance(x, bool))


def _bad_key(obj, keys):
    """The first key of `keys` that obj lacks or holds with another type
    (the first key of all when obj is not a JSON object), or None."""
    obj = obj if isinstance(obj, dict) else {}
    return next((key for key, kind in keys.items() if not _is(obj.get(key), kind)), None)


def _read_cell(fp) -> dict:
    """The cell JSON at fp, with every key of CELL_KEYS and, on each record,
    of RECORD_KEYS, each of its type, with numbers in its two lists and,
    where it has an `image_of`, the index of an earlier record there.  A
    file that cannot be read or parsed or fails that check is an
    ArgumentError naming fp."""
    try:
        with open(fp) as f:
            cell = json.load(f)
    except (OSError, ValueError) as e:
        raise ArgumentError(f"{fp}: unreadable cell file: {e!r}") from None
    bad = _bad_key(cell, CELL_KEYS)
    if bad is not None:
        raise ArgumentError(f"{fp}: not a cell file: missing or mistyped {bad}")
    for k, r in enumerate(cell["records"]):
        bad = _bad_key(r, RECORD_KEYS) or next(
            (key for key in ("barycenter", "grad_dir_integral")
             if not all(_is(x, _NUMBER) for x in r[key])), None)
        if bad is None and "image_of" in r and not (
                type(r["image_of"]) is int and 0 <= r["image_of"] < k):
            bad = "image_of"
        if bad is not None:
            raise ArgumentError(f"{fp}: record {k}: missing key or unknown value {bad!r}")
    return cell


def report(run_dir) -> int:
    out = Path(run_dir)
    sweep = out / "sweep.csv"
    cells_dir = out / "cells"
    if not cells_dir.is_dir() and not (out / "mu_star.csv").exists():
        raise ArgumentError(f"{run_dir} is not a completed run (no cells/ or mu_star.csv)")
    cells = [_read_cell(fp) for fp in sorted(cells_dir.glob("cell_*.json"))]

    with open(out / "heatmap.csv", "w") as f:
        f.write("lambda,mu,n_solutions,status\n")
        for c in cells:
            f.write(f"{_fmt(c['lambda'])},{_fmt(c['mu'])},{len(c['records'])},{c['status']}\n")

    with open(out / "branches.csv", "w") as f:
        f.write("lambda,mu,class,energy,grad_norm,positive,seed\n")
        for c in cells:
            for r in c["records"]:
                f.write(
                    f"{_fmt(c['lambda'])},{_fmt(c['mu'])},{r['class']},{_fmt(r['energy'])},"
                    f"{_fmt(r['grad_norm'])},{r['positive']},{r['seed']}\n"
                )

    # at least 8 beta columns, more when a record's barycenter is longer (N > 8)
    width = max([8] + [len(r["barycenter"]) for c in cells for r in c["records"]])
    with open(out / "barycenters.csv", "w") as f:
        f.write("cell,record,class,seed,image_of," +
                ",".join(f"beta_{i}" for i in range(width)) + "\n")
        for c in cells:
            for k, r in enumerate(c["records"]):
                beta = r["barycenter"]
                cols = [str(c["index"]), str(k), r["class"], r["seed"], str(r.get("image_of", ""))]
                cols += [_fmt(x) for x in beta] + ["" for _ in range(width - len(beta))]
                f.write(",".join(cols) + "\n")

    n_rec = sum(len(c["records"]) for c in cells)
    print(f"report: {len(cells)} cells, {n_rec} records")
    if sweep.exists():
        with open(sweep) as f:
            print(f.read().rstrip())
    if (out / "mu_star.csv").exists():
        print("solvability boundary (mu_star.csv):")
        with open(out / "mu_star.csv") as f:
            print(f.read().rstrip())
    return 0


# -- fibering profile and certify ------------------------------------------------


def profile_cmd(config_path, ray_path, samples=200, tmax_factor=2.0, out_path=None) -> int:
    # the samples span [0, tmax * t_minus], both ends included
    if samples < 2:
        raise ArgumentError(f"--samples must be at least 2, got {samples}")
    if not (np.isfinite(tmax_factor) and tmax_factor > 0.0):
        raise ArgumentError(f"--tmax must be finite and > 0, got {tmax_factor}")
    rc = parse_config(config_path)
    domain, spectral, lift, lambdas, mus = _setup(rc)
    for key, values in (("lambdas", lambdas), ("mus", mus)):
        if not values:
            raise rc.cfg.error("parameters", key, "fibering-profile needs at least one value")
    if lambdas[0] >= spectral.lambda1:
        raise rc.cfg.error(
            "parameters", "lambdas",
            f"fibering-profile needs lambda < lambda1, got lambda = {lambdas[0]:.6g} "
            f">= lambda1 = {spectral.lambda1:.6g}",
        )
    p = Params(lam=lambdas[0], mu=mus[0], spectral=spectral, lift=lift)

    v = load_field(ray_path, domain).values
    prof = FiberingProfile(v, p)
    tm, tp = t_minus(prof), t_plus(prof)
    lines = ["t,T,T1,T2"]
    for t in np.linspace(0.0, tmax_factor * tm, samples).tolist():
        lines.append(f"{_fmt(t)},{_fmt(prof.T(t))},{_fmt(prof.dT(t))},{_fmt(prof.d2T(t))}")
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    print(f"# t0={_fmt(prof.t0)} t_minus={_fmt(tm)} t_plus={'' if tp is None else _fmt(tp)} "
          f"pairing={_fmt(prof.sign_pairing)}", file=sys.stderr)
    return 0


def _stored_record(r, v: Field, p: Params) -> SolutionRecord:
    """The record a cell JSON stores, around its loaded field v.  Its class
    and seed are the recorded ones, so that certify_solution checks the
    recorded class against a fresh classification.  An unknown class or
    seed raises KeyError or ValueError (`_read_cell` has checked the keys)."""
    return SolutionRecord(
        v=v, energy=r["energy"],
        klass=Klass[r["class"]], grad_norm=r["grad_norm"],
        positive=r["positive"], seed=SeedKind(r["seed"]),
        iterations=r["iterations"], lam=p.lam, mu=p.mu,
    )


def _stored_params(run_dir, rc: RunConfig, domain, cell) -> Params:
    """Params of a cell from the run's stored spectral data and lift, each
    checked against the run's config (`load_spectral_data`, `load_lift`)
    instead of computed again; node-table data are read from the run's own
    copy of the table."""
    spectral = load_spectral_data(run_dir / SPECTRAL_FILE, domain)
    boundary = (TableFile(str(run_dir / TABLE_FILE)) if isinstance(rc.boundary, TableFile)
                else rc.boundary)
    lift = load_lift(run_dir / LIFT_FILE, boundary, domain)
    return Params(lam=cell["lambda"], mu=cell["mu"], spectral=spectral, lift=lift)


def certify_cmd(record_path) -> int:
    """Re-certify one cell file against the run's field dumps, its stored
    spectral data and its stored lift; certify builds only the domain from
    config.ini, and runs no setup search and no linear solve.  The stored
    files are read and checked at the first record with a field dump; a
    nonexistence cell recomputes its two pairing certificates from them
    (exit 0 only when both pass)."""
    rec_path = Path(record_path)
    cell = _read_cell(rec_path)
    run_dir = rec_path.parent.parent
    cfg_path = run_dir / "config.ini"
    if not cfg_path.exists():
        raise ArgumentError(f"{rec_path}: no config.ini next to the run ({cfg_path})")
    rc = parse_config(cfg_path)
    domain = build_domain(rc.domain_spec)
    if cell["mode"] == "nonexistence":
        if not rc.dump_fields:
            print("nonexistence cell: no field dump stored (rerun with dump_fields = true)")
            return 1
        certs = _nonexistence_certificates(_stored_params(run_dir, rc, domain, cell))
        for k, (what, cert) in enumerate(zip(("a-priori margin", "e1 probe"), certs)):
            print(f"certificate {k} (nonexistence, {what}):")
            print(cert)
        return 0 if all(c.overall for c in certs) else 1
    p = None  # built once a record with a field dump is found
    ok = True
    n = 0
    for k, r in enumerate(cell["records"]):
        dumpname = r.get("field_dump")
        if not dumpname:
            print(f"record {k}: no field dump stored (rerun with dump_fields = true)")
            ok = False
            continue
        if p is None:
            p = _stored_params(run_dir, rc, domain, cell)
        v = load_field(rec_path.parent / dumpname, domain)
        try:
            rec = _stored_record(r, v, p)
        except (KeyError, ValueError) as e:
            raise ArgumentError(
                f"{rec_path}: record {k}: missing key or unknown value {e}"
            ) from None
        cert = certify_solution(rec, p)
        n += 1
        print(f"record {k} ({r['class']}, energy {_fmt(r['energy'])}):")
        print(cert)
        ok = ok and cert.overall
    if n == 0:
        print("no records with field dumps found", file=sys.stderr)
        return 1
    return 0 if ok else 1


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bnsolver",
        description="Nehari-manifold solver and verification harness for the "
                    "critical-exponent problem with nonnegative boundary data",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    ap_run = sub.add_parser("run", help="execute a sweep from a config file")
    ap_run.add_argument("config")
    ap_run.add_argument("--out", default=None, help="override output directory")

    ap_rep = sub.add_parser("report", help="summarize a completed run directory")
    ap_rep.add_argument("rundir")

    ap_fib = sub.add_parser("fibering-profile", help="dump (t, T, T', T'') for a ray")
    ap_fib.add_argument("config")
    ap_fib.add_argument("--ray", required=True,
                        help="field dump of the ray, such as cells/cell_0000_field_0.npy")
    ap_fib.add_argument("--samples", type=int, default=200)
    ap_fib.add_argument("--tmax", type=float, default=2.0,
                        help="sample up to tmax * t_minus")
    ap_fib.add_argument("--out", default=None)

    ap_cert = sub.add_parser("certify", help="re-certify records from a cell JSON")
    ap_cert.add_argument("record", help="cells/cell_XXXX.json from a run with field dumps")

    args = ap.parse_args(argv)
    try:
        if args.cmd == "run":
            return run(args.config, out_dir_override=args.out)
        if args.cmd == "report":
            return report(args.rundir)
        if args.cmd == "fibering-profile":
            return profile_cmd(args.config, args.ray, samples=args.samples,
                               tmax_factor=args.tmax, out_path=args.out)
        if args.cmd == "certify":
            return certify_cmd(args.record)
    except BNSolverError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
