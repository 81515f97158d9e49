"""Correctness gate: what a repetition produced, and which operations failed.

An operation is one record certificate, one nonexistence certificate, one
re-certified record (per certify pass) or one `mu*` estimate.  It fails on a
failed certificate, a wrong cell status or exit code, or, at the reference
seed, any mismatch with the stored reference outputs: statuses, record
counts and classes, certificate verdicts, the minimax `found` flag, and every
energy and `mu*` value within REL_TOL relative.  A check that belongs to no
single operation (the run's exit code, byte identity of the CSV files across
repetitions) fails every operation it covers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Speed-ups must keep every energy within this relative distance.
REL_TOL = 1e-12

CSV_FILES = ("sweep.csv", "mu_star.csv", "mu_star_branches.csv")


def observe(out_dir, run_exit, certify_passes):
    """The gated outputs of one repetition, as plain JSON data.

    `certify_passes` is a list of {cell index: (exit code, [overall, ...])}.
    """
    out = Path(out_dir)
    cells = []
    for fp in sorted((out / "cells").glob("cell_*.json")):
        if "_field_" in fp.name:
            continue
        with open(fp) as f:
            c = json.load(f)
        cells.append({
            "index": c["index"],
            "mode": c["mode"],
            "status": c["status"],
            "records": [{"class": r["class"], "energy": r["energy"],
                         "iterations": r["iterations"]} for r in c["records"]],
            "certificates": [bool(x["overall"]) for x in c["certificates"]],
            "extra_certificates": [bool(c[k]["overall"]) for k in ("convexity", "threshold")
                                   if c.get(k)],
            "minimax_found": c["minimax"]["found"] if c.get("minimax") else None,
        })
    csv = {}
    for name in CSV_FILES:
        fp = out / name
        csv[name] = fp.read_text() if fp.exists() else None
    return {
        "run_exit": run_exit,
        "cells": cells,
        "csv": csv,
        "certify": [{str(k): {"exit": e, "records": list(r)} for k, (e, r) in p.items()}
                    for p in certify_passes],
    }


def _close(a, b):
    """a equals reference b within REL_TOL relative (NaN matches NaN)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * abs(b)


def _rows(text):
    return [line.split(",") for line in text.splitlines()] if text else []


def _row_mismatch(row, ref_row):
    """First differing column of two CSV rows: numbers within REL_TOL, text exact."""
    if len(row) != len(ref_row):
        return f"{len(row)} columns, reference {len(ref_row)}"
    for a, b in zip(row, ref_row):
        try:
            fa, fb = float(a), float(b)
        except ValueError:
            if a != b:
                return f"{a!r} != reference {b!r}"
            continue
        if not _close(fa, fb):
            return f"{a} != reference {b}"
    return None


def operations(obs, ref=None, first=None):
    """{operation name: [problems]} for one repetition.

    `ref` is the stored reference observation (reference seed only); `first`
    is the first repetition of this invocation, against which the CSV files
    must be byte-identical.
    """
    ops = {}

    # -- cells -----------------------------------------------------------
    ref_cells = {c["index"]: c for c in ref["cells"]} if ref else {}
    seen = {c["index"] for c in obs["cells"]}
    cell_ops = {}
    for c in obs["cells"]:
        kind = "nonexistence" if c["mode"] == "nonexistence" else "record"
        names = []
        for k, ok in enumerate(c["certificates"]):
            name = f"cell{c['index']}.{kind}{k}"
            names.append(name)
            ops[name] = [] if ok else ["certificate failed"]
        shared = []
        expected = "nonexistence" if c["mode"] == "nonexistence" else "ok"
        if c["status"] != expected:
            shared.append(f"status {c['status']!r}, expected {expected!r}")
        rc = ref_cells.get(c["index"])
        if rc is not None:
            for key in ("mode", "status", "minimax_found", "extra_certificates"):
                if c[key] != rc[key]:
                    shared.append(f"{key} {c[key]!r} != reference {rc[key]!r}")
            if len(c["records"]) != len(rc["records"]):
                shared.append(f"{len(c['records'])} records, reference {len(rc['records'])}")
            for k in range(len(c["certificates"]), len(rc["certificates"])):
                name = f"cell{c['index']}.{kind}{k}"
                names.append(name)
                ops[name] = ["certificate missing"]
            for k, (r, rr) in enumerate(zip(c["records"], rc["records"])):
                name = f"cell{c['index']}.{kind}{k}"
                bad = []
                if r["class"] != rr["class"]:
                    bad.append(f"class {r['class']} != reference {rr['class']}")
                if not _close(r["energy"], rr["energy"]):
                    bad.append(f"energy {r['energy']!r} != reference {rr['energy']!r}")
                ops.setdefault(name, []).extend(bad)
            for k, (ok, rok) in enumerate(zip(c["certificates"], rc["certificates"])):
                if ok != rok:
                    ops[f"cell{c['index']}.{kind}{k}"].append("verdict differs from reference")
        for name in names:
            ops[name].extend(shared)
        cell_ops[c["index"]] = names
    for i, rc in ref_cells.items():
        if i not in seen:
            kind = "nonexistence" if rc["mode"] == "nonexistence" else "record"
            names = [f"cell{i}.{kind}{k}" for k in range(len(rc["certificates"]))]
            for name in names:
                ops[name] = ["cell missing"]
            cell_ops[i] = names

    sweep = obs["csv"]["sweep.csv"]
    all_cell_ops = [n for names in cell_ops.values() for n in names]
    if ref:
        rows, ref_rows = _rows(sweep), _rows(ref["csv"]["sweep.csv"])
        if len(rows) != len(ref_rows):
            for n in all_cell_ops:
                ops[n].append(f"sweep.csv has {len(rows)} lines, reference {len(ref_rows)}")
        else:
            for i, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:])):
                bad = _row_mismatch(row, ref_row)
                if bad:
                    for n in cell_ops.get(i, []):
                        ops[n].append(f"sweep.csv: {bad}")
    if first is not None and sweep != first["csv"]["sweep.csv"]:
        for n in all_cell_ops:
            ops[n].append("sweep.csv differs between repetitions")

    # -- mu* estimates ------------------------------------------------------
    mu_rows = _rows(obs["csv"]["mu_star.csv"])[1:]
    ref_mu = _rows(ref["csv"]["mu_star.csv"])[1:] if ref and ref["csv"]["mu_star.csv"] else []
    mu_ops = []
    for j, row in enumerate(mu_rows):
        name = f"mu_star{j}"
        mu_ops.append(name)
        mu = float(row[1])
        ops[name] = [] if math.isfinite(mu) and mu > 0 else [f"mu* {row[1]} not finite positive"]
    for j in range(len(mu_rows), len(ref_mu)):
        mu_ops.append(f"mu_star{j}")
        ops[f"mu_star{j}"] = ["mu* estimate missing"]
    if ref:
        branches = _rows(obs["csv"]["mu_star_branches.csv"])[1:]
        ref_branches = _rows(ref["csv"]["mu_star_branches.csv"])[1:]
        for j, (row, ref_row) in enumerate(zip(mu_rows, ref_mu)):
            bad = _row_mismatch(row, ref_row)
            if bad:
                ops[f"mu_star{j}"].append(f"mu_star.csv: {bad}")
            lam = [b for b in branches if b[0] == row[0]]
            ref_lam = [b for b in ref_branches if b[0] == ref_row[0]]
            if len(lam) != len(ref_lam):
                ops[f"mu_star{j}"].append(
                    f"{len(lam)} continuation rows, reference {len(ref_lam)}")
            for b, rb in zip(lam, ref_lam):
                bad = _row_mismatch(b, rb)
                if bad:
                    ops[f"mu_star{j}"].append(f"mu_star_branches.csv: {bad}")
    if first is not None:
        for name in ("mu_star.csv", "mu_star_branches.csv"):
            if obs["csv"][name] != first["csv"][name]:
                for n in mu_ops:
                    ops[n].append(f"{name} differs between repetitions")

    # -- certify passes -------------------------------------------------------
    records_with_dumps = {str(c["index"]): len(c["records"])
                          for c in obs["cells"] if c["records"]}
    for p, cert_pass in enumerate(obs["certify"]):
        for cell, n_records in records_with_dumps.items():
            got = cert_pass.get(cell, {"exit": None, "records": []})
            for k in range(max(n_records, len(got["records"]))):
                name = f"certify{p}.cell{cell}.record{k}"
                bad = []
                if got["exit"] != 0:
                    bad.append(f"certify exit code {got['exit']}")
                if k >= len(got["records"]):
                    bad.append("record not re-certified")
                elif not got["records"][k]:
                    bad.append("re-certification failed")
                ops[name] = bad

    # -- run exit code ----------------------------------------------------------
    expected_exit = ref["run_exit"] if ref else 0
    if obs["run_exit"] != expected_exit:
        for problems in ops.values():
            problems.append(f"run exit code {obs['run_exit']}, expected {expected_exit}")
    if not ops:
        ops["run"] = ["run produced no operations"]
    return ops


def count(ops):
    """(attempted, failed) of an operations dict."""
    return len(ops), sum(1 for problems in ops.values() if problems)
