import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bnsolver
from bnsolver import cli, grid, numutil, solve
from bnsolver.cli import RunConfig, main, parse_config
from bnsolver.errors import BNSolverError, ConfigurationError
from bnsolver.functional import Params
from bnsolver.grid import Box, DomainSpec, Field, build_domain, dump_field, load_spectral_data
from bnsolver.lift import solve_lift
from bnsolver.verify import certify_solution, nonexistence_certificate

from conftest import byte_mutations, mutated, text_dump

BASE_CONFIG = """
# two-cell sweep on a small box
[domain]
shape = box
sides = 1 1 1
dimension = 3
resolution = 9

[boundary]
kind = constant
value = 1.0

[parameters]
lambdas = 0.5*lambda1 1.2*lambda1
mus = 0.01

[searches]
run = nplus nminus

[output]
directory = {out}
dump_fields = true

[random]
seed = 0
"""


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    out = tmp / "out"
    cfg = write_config(tmp, BASE_CONFIG.format(out=out))
    code = main(["run", str(cfg)])
    assert code == 0
    return out


def test_run_outputs(completed_run):
    out = completed_run
    sweep = (out / "sweep.csv").read_text().strip().splitlines()
    assert sweep[0].startswith("lambda,mu,mode")
    assert len(sweep) == 3
    cell0 = json.loads((out / "cells" / "cell_0000.json").read_text())
    assert cell0["status"] == "ok"
    assert len(cell0["records"]) == 2
    assert all(c["overall"] for c in cell0["certificates"])
    assert cell0["threshold"]["overall"]
    assert cell0["convexity"]["overall"]
    cell1 = json.loads((out / "cells" / "cell_0001.json").read_text())
    assert cell1["mode"] == "nonexistence"
    assert cell1["status"] == "nonexistence"
    # full-precision roundtrip of CSV numbers
    row = sweep[1].split(",")
    assert float(row[0]) == cell0["lambda"]


def test_run_writes_each_cell_before_the_next_starts(tmp_path, monkeypatch):
    """`run` writes a cell's field dumps and JSON as soon as the cell is
    solved: when cell k starts, cells/cell_{k-1}.json and its dumps exist."""
    out = tmp_path / "out"
    run_cell, written = cli._run_cell, []

    def logged(ci, *args):
        written.append(sorted(p.name for p in (out / "cells").iterdir()))
        return run_cell(ci, *args)

    monkeypatch.setattr(cli, "_run_cell", logged)
    assert main(["run", str(write_config(tmp_path, BASE_CONFIG.format(out=out)))]) == 0
    assert written == [[], ["cell_0000.json", "cell_0000_field_0.npy", "cell_0000_field_1.npy"]]


def test_report(completed_run, capsys):
    code = main(["report", str(completed_run)])
    assert code == 0
    text = capsys.readouterr().out
    assert "2 cells" in text
    heat = (completed_run / "heatmap.csv").read_text().splitlines()
    assert len(heat) == 3
    assert (completed_run / "branches.csv").exists()
    assert (completed_run / "barycenters.csv").exists()


def test_report_widens_barycenters_past_eight_components(tmp_path, capsys):
    """A record whose barycenter has 9 components (dimension 9) widens the
    barycenters.csv header to beta_8, so every row has the header's width."""
    record = {"class": "PLUS", "energy": 1.0, "grad_norm": 0.0, "positive": True,
              "seed": "zero", "iterations": 1, "barycenter": [0.5] * 9,
              "grad_dir_integral": [0.0] * 9}
    cell = {"index": 0, "lambda": 1.0, "mu": 0.0, "mode": "search", "status": "ok",
            "records": [record]}
    (tmp_path / "cells").mkdir()
    (tmp_path / "cells" / "cell_0000.json").write_text(json.dumps(cell))
    assert main(["report", str(tmp_path)]) == 0
    rows = [row.split(",") for row in (tmp_path / "barycenters.csv").read_text().splitlines()]
    assert rows[0][-1] == "beta_8" and [len(row) for row in rows] == [14, 14]


def test_certify_subcommand(completed_run, capsys):
    code = main(["certify", str(completed_run / "cells" / "cell_0000.json")])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out
    # the nonexistence cell: both pairing certificates, recomputed
    assert main(["certify", str(completed_run / "cells" / "cell_0001.json")]) == 0
    text = capsys.readouterr().out
    assert "certificate 0 (nonexistence, a-priori margin):" in text
    assert "certificate 1 (nonexistence, e1 probe):" in text
    assert text.count("overall: PASS") == 2


def copied_run(completed_run, tmp_path, record_update=None):
    """A copy of the completed run, with record 0 of its cell 0 updated by
    the dict record_update.  Returns the copy's cell_0000.json."""
    run = tmp_path / "run"
    shutil.copytree(completed_run, run)
    cell_path = run / "cells" / "cell_0000.json"
    if record_update is not None:
        cell = json.loads(cell_path.read_text())
        cell["records"][0].update(record_update)
        cell_path.write_text(json.dumps(cell, indent=1))
    return cell_path


def test_records_without_descent_passes_report_and_certify(completed_run, tmp_path, capsys):
    """Every record carries `descent_passes`, the descent passes among its
    `iterations` (none for the Plus record, the Minus record here is
    Newton's from the ground state); cell files written before the key
    existed still report and certify."""
    cell_path = copied_run(completed_run, tmp_path)
    cell = json.loads(cell_path.read_text())
    assert [r["descent_passes"] for r in cell["records"]] == [0, 0]
    for r in cell["records"]:
        del r["descent_passes"]
    cell_path.write_text(json.dumps(cell, indent=1))
    assert main(["report", str(cell_path.parent.parent)]) == 0
    assert main(["certify", str(cell_path)]) == 0
    assert capsys.readouterr().out.count("overall: PASS") == 2


def test_certify_checks_the_recorded_class(completed_run, tmp_path, capsys):
    cell_path = copied_run(completed_run, tmp_path)
    assert json.loads(cell_path.read_text())["records"][0]["class"] == "PLUS"
    assert main(["certify", str(cell_path)]) == 0
    assert "[PASS] manifold class is PLUS (recorded PLUS)" in capsys.readouterr().out

    cell_path = copied_run(completed_run, tmp_path / "edited", {"class": "MINUS"})
    assert main(["certify", str(cell_path)]) == 1
    assert "[FAIL] manifold class is PLUS (recorded MINUS)" in capsys.readouterr().out


def missing_config(tmp_path, completed_run):
    path = tmp_path / "missing.ini"
    return ["run", str(path)], str(path)


def node_table_bad_line(tmp_path, completed_run):
    table = tmp_path / "table.txt"
    table.write_text("0 1.0\n1 abc\n")
    text = BASE_CONFIG.format(out=tmp_path / "out").replace(
        "kind = constant\nvalue = 1.0", f"kind = table\nfile = {table}")
    return ["run", str(write_config(tmp_path, text))], f"{table}:2: "


def node_table_case(tmp_path, lines):
    """A run on the node table of these lines, and the table's path."""
    table = tmp_path / "table.txt"
    table.write_text("".join(line + "\n" for line in lines))
    text = BASE_CONFIG.format(out=tmp_path / "out").replace(
        "kind = constant\nvalue = 1.0", f"kind = table\nfile = {table}")
    return ["run", str(write_config(tmp_path, text))], table


def node_table_repeated_index(tmp_path, completed_run):
    argv, table = node_table_case(tmp_path, ["0 1.0", "1 1.0", "# comment", "0 2.0"])
    return argv, f"{table}:4: boundary index 0 repeats the one at line 1"


def node_table_nan_value(tmp_path, completed_run):
    argv, table = node_table_case(tmp_path, ["0 1.0", "1 nan"])
    return argv, f"{table}:2: not a finite number: 'nan'"


def field_dump_bad_header(tmp_path, completed_run):
    ray = tmp_path / "ray.txt"
    ray.write_text("garbage\n1 2 3\n")
    cfg = write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    return ["fibering-profile", str(cfg), "--ray", str(ray)], str(ray)


def certify_old_text_dump(tmp_path, completed_run):
    """Record 0's field dump is in the text format of older runs."""
    cell_path = copied_run(completed_run, tmp_path, {"field_dump": "cell_0000_field_0.txt"})
    dump = cell_path.parent / "cell_0000_field_0.txt"
    dump.write_text(text_dump(np.load(cell_path.parent / "cell_0000_field_0.npy")))
    return ["certify", str(cell_path)], str(dump)


def missing_cell_file(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path)
    cell_path.unlink()
    return ["certify", str(cell_path)], str(cell_path)


def non_json_cell_file(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path)
    cell_path.write_text("not json\n")
    return ["certify", str(cell_path)], str(cell_path)


def unknown_recorded_class(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path, {"class": "SIDEWAYS"})
    return ["certify", str(cell_path)], f"{cell_path}: record 0: missing key or unknown value"


def record_without_energy(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path)
    cell = json.loads(cell_path.read_text())
    del cell["records"][0]["energy"]
    cell_path.write_text(json.dumps(cell))
    return ["certify", str(cell_path)], f"{cell_path}: record 0: missing key or unknown value"


def report_cell_without_lambda(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path)
    cell = json.loads(cell_path.read_text())
    del cell["lambda"]
    cell_path.write_text(json.dumps(cell))
    return ["report", str(cell_path.parent.parent)], f"{cell_path}: not a cell file: missing or mistyped lambda"


def report_cell_is_a_list(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path)
    cell_path.write_text("[1, 2]\n")
    return ["report", str(cell_path.parent.parent)], f"{cell_path}: not a cell file"


def report_lambda_not_a_number(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path)
    cell = json.loads(cell_path.read_text())
    cell["lambda"] = "x"
    cell_path.write_text(json.dumps(cell))
    return ["report", str(cell_path.parent.parent)], f"{cell_path}: not a cell file"


def report_record_without_class(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path)
    cell = json.loads(cell_path.read_text())
    del cell["records"][1]["class"]
    cell_path.write_text(json.dumps(cell))
    return (["report", str(cell_path.parent.parent)],
            f"{cell_path}: record 1: missing key or unknown value 'class'")


def report_barycenter_entry_not_a_number(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path, {"barycenter": ["x"]})
    return (["report", str(cell_path.parent.parent)],
            f"{cell_path}: record 0: missing key or unknown value 'barycenter'")


def report_image_of_not_an_index(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path, {"image_of": "first"})
    return (["report", str(cell_path.parent.parent)],
            f"{cell_path}: record 0: missing key or unknown value 'image_of'")


def report_image_of_not_an_earlier_record(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path, {"image_of": 0})
    return (["report", str(cell_path.parent.parent)],
            f"{cell_path}: record 0: missing key or unknown value 'image_of'")


def report_iterations_a_boolean(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path, {"iterations": False})
    return (["report", str(cell_path.parent.parent)],
            f"{cell_path}: record 0: missing key or unknown value 'iterations'")


def certify_energy_a_boolean(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path, {"energy": True})
    return (["certify", str(cell_path)],
            f"{cell_path}: record 0: missing key or unknown value 'energy'")


def report_not_a_run(tmp_path, completed_run):
    return ["report", str(tmp_path)], f"{tmp_path} is not a completed run"


def certify_without_config(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path)
    (cell_path.parent.parent / "config.ini").unlink()
    return ["certify", str(cell_path)], f"{cell_path}: no config.ini next to the run"


def edited_spectral_data(tmp_path, completed_run, edit):
    """A copy of the completed run whose spectral.npz arrays are changed by
    edit(arrays, domain), arrays being a dict of them; returns the copy's
    cell_0000.json and spectral.npz."""
    cell_path = copied_run(completed_run, tmp_path)
    path = cell_path.parent.parent / "spectral.npz"
    with np.load(path) as data:
        arrays = dict(data)
    edit(arrays, build_domain(parse_config(cell_path.parent.parent / "config.ini").domain_spec))
    np.savez(path, **arrays)
    return cell_path, path


def certify_without_spectral_data(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path)
    path = cell_path.parent.parent / "spectral.npz"
    path.unlink()
    return ["certify", str(cell_path)], f"{path}: not a readable spectral data archive"


def certify_truncated_spectral_data(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path)
    path = cell_path.parent.parent / "spectral.npz"
    path.write_bytes(path.read_bytes()[:-100])
    return ["certify", str(cell_path)], f"{path}: not a readable spectral data archive"


def certify_pickled_spectral_data(tmp_path, completed_run):
    def edit(arrays, domain):
        arrays["e1"] = arrays["e1"].astype(object)
    cell_path, path = edited_spectral_data(tmp_path, completed_run, edit)
    return ["certify", str(cell_path)], f"{path}: not a readable spectral data archive"


def certify_sobolev_S_off_its_witness(tmp_path, completed_run):
    def edit(arrays, domain):
        arrays["sobolev_S"] = arrays["sobolev_S"] * (1.0 - 1e-9)
    cell_path, path = edited_spectral_data(tmp_path, completed_run, edit)
    return ["certify", str(cell_path)], f"{path}: sobolev_S is not the quotient of its witness"


def certify_sobolev_S_above_the_bump(tmp_path, completed_run):
    """A noisy witness with its own, matching quotient, above the bump's."""
    def edit(arrays, domain):
        noise = np.zeros(domain.lattice_shape)
        noise.flat[domain.interior_flat] = 1.0 + np.random.default_rng(0).random(domain.n_interior)
        q = grid.rayleigh_quotient(domain, noise.flat[domain.interior_flat])
        assert q > arrays["sobolev_S"] * 1.5
        arrays["sobolev_witness"], arrays["sobolev_S"] = noise, np.float64(q)
    cell_path, path = edited_spectral_data(tmp_path, completed_run, edit)
    return ["certify", str(cell_path)], f"{path}: sobolev_S is above the default bump's quotient"


def certify_e1_not_an_eigenvector(tmp_path, completed_run):
    """e1 replaced by the positive, L2-normalized Sobolev witness."""
    def edit(arrays, domain):
        w = arrays["sobolev_witness"]
        arrays["e1"] = w / np.sqrt(domain.l2_norm_sq(w.flat[domain.interior_flat]))
    cell_path, path = edited_spectral_data(tmp_path, completed_run, edit)
    return (["certify", str(cell_path)],
            f"{path}: (lambda1, e1) is not a normalized positive eigenpair")


def edited_lift(tmp_path, completed_run, edit):
    """A copy of the completed run whose lift.npy lattice array is changed
    in place by edit(array, domain); returns the copy's cell_0000.json and
    lift.npy."""
    cell_path = copied_run(completed_run, tmp_path)
    path = cell_path.parent.parent / "lift.npy"
    full = np.load(path)
    edit(full, build_domain(parse_config(cell_path.parent.parent / "config.ini").domain_spec))
    np.save(path, full)
    return cell_path, path


def certify_without_lift(tmp_path, completed_run):
    cell_path = copied_run(completed_run, tmp_path)
    path = cell_path.parent.parent / "lift.npy"
    path.unlink()
    return ["certify", str(cell_path)], f"{path}: not a readable .npy field dump"


def certify_lift_off_its_residual(tmp_path, completed_run):
    """One interior value of the lift moved by 1e-6."""
    def edit(full, domain):
        full.flat[domain.interior_flat[domain.n_interior // 2]] -= 1e-6
    cell_path, path = edited_lift(tmp_path, completed_run, edit)
    return ["certify", str(cell_path)], f"{path}: lift residual"


def certify_lift_of_other_boundary_data(tmp_path, completed_run):
    """The copied config.ini names the boundary value 2 instead of 1."""
    cell_path = copied_run(completed_run, tmp_path)
    cfg = cell_path.parent.parent / "config.ini"
    cfg.write_text(cfg.read_text().replace("value = 1.0", "value = 2.0"))
    return ["certify", str(cell_path)], f"{cell_path.parent.parent / 'lift.npy'}: lift residual"


def certify_lift_above_max_g(tmp_path, completed_run):
    """One interior value of the lift one ulp above max g = 1, which moves
    the residual by far less than its tolerance."""
    def edit(full, domain):
        full.flat[domain.interior_flat[0]] = np.nextafter(1.0, 2.0)
    cell_path, path = edited_lift(tmp_path, completed_run, edit)
    return ["certify", str(cell_path)], f"{path}: lift violates maximum principle bounds"


def certify_lift_overflowing(tmp_path, completed_run):
    """One interior value of the lift 1e300, whose residual overflows: the
    check fails, with no overflow warning."""
    def edit(full, domain):
        full.flat[domain.interior_flat[0]] = 1e300
    cell_path, path = edited_lift(tmp_path, completed_run, edit)
    return ["certify", str(cell_path)], f"{path}: lift residual inf"


def overflowing_field_dump(tmp_path, completed_run):
    """A copy of the completed run with one interior value of record 0's
    field dump 1e300, finite, so the dump loads, but its ray's critical
    powers overflow; returns the copy's cell_0000.json and the dump."""
    cell_path = copied_run(completed_run, tmp_path)
    path = cell_path.parent / json.loads(cell_path.read_text())["records"][0]["field_dump"]
    full = np.load(path)
    domain = build_domain(parse_config(cell_path.parent.parent / "config.ini").domain_spec)
    full.flat[domain.interior_flat[domain.n_interior // 2]] = 1e300
    np.save(path, full)
    return cell_path, path


def certify_field_dump_overflowing(tmp_path, completed_run):
    """No fibering map takes the overflowing dump, and the error names it,
    with no overflow warning."""
    cell_path, path = overflowing_field_dump(tmp_path, completed_run)
    return ["certify", str(cell_path)], f"{path}: fibering ray contains non-finite values"


def profile_field_dump_overflowing(tmp_path, completed_run):
    """fibering-profile --ray on the overflowing dump fails as certify
    does: the error names the dump, with no overflow warning."""
    cell_path, path = overflowing_field_dump(tmp_path, completed_run)
    config = cell_path.parent.parent / "config.ini"
    return (["fibering-profile", str(config), "--ray", str(path)],
            f"{path}: fibering ray contains non-finite values")


@pytest.mark.parametrize("case", [missing_config, node_table_bad_line,
                                  node_table_repeated_index, node_table_nan_value,
                                  field_dump_bad_header,
                                  certify_old_text_dump, missing_cell_file, non_json_cell_file,
                                  unknown_recorded_class, record_without_energy, report_cell_without_lambda,
                                  report_cell_is_a_list, report_lambda_not_a_number,
                                  report_record_without_class,
                                  report_barycenter_entry_not_a_number,
                                  report_image_of_not_an_index,
                                  report_image_of_not_an_earlier_record,
                                  report_iterations_a_boolean, certify_energy_a_boolean,
                                  report_not_a_run, certify_without_config,
                                  certify_without_spectral_data, certify_truncated_spectral_data,
                                  certify_pickled_spectral_data,
                                  certify_sobolev_S_off_its_witness,
                                  certify_sobolev_S_above_the_bump,
                                  certify_e1_not_an_eigenvector, certify_without_lift,
                                  certify_lift_off_its_residual,
                                  certify_lift_of_other_boundary_data,
                                  certify_lift_above_max_g, certify_lift_overflowing,
                                  certify_field_dump_overflowing,
                                  profile_field_dump_overflowing],
                         ids=lambda case: case.__name__)
def test_unreadable_inputs_are_typed_errors(tmp_path, completed_run, capsys, case):
    """Missing or malformed input files exit 2 with an error that names the
    file (and the line, for a node table), never with a traceback or a
    numpy warning."""
    argv, where = case(tmp_path, completed_run)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    assert where in capsys.readouterr().err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutations=byte_mutations([b"", b'"records"', b'"energy"', b'"barycenter"', b"["]))
# energy becomes the integer 10**400, which no float holds (its old value
# moves to a new key); the cell nested 100,000 lists deep
@example(mutations=[("insert", b'"energy"', 10, b"1" + b"0" * 400 + b', "was": ')])
@example(mutations=[("insert", b"", 0, b"[" * 100_000)])
def test_read_cell_takes_mutated_cell_files(tmp_path_factory, completed_run, mutations):
    """A cell file with bytes cut, replaced, inserted or deleted reads to a
    cell whose numbers all fit in a float, or is an ArgumentError that
    names the file."""
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_bytes(mutated((completed_run / "cells" / "cell_0000.json").read_bytes(),
                             mutations))
    try:
        cell = cli._read_cell(path)
    except BNSolverError as e:
        assert str(path) in str(e), str(e)
        return
    for r in cell["records"]:
        for x in (r["energy"], r["grad_norm"], *r["barycenter"], *r["grad_dir_integral"]):
            float(x)


def assert_same_outputs(a, b):
    """sweep.csv, the spectral data archive spectral.npz, the lift lift.npy,
    every cells/*.json and every field dump cells/*_field_*.npy are
    byte-identical in run dirs a and b."""
    names = sorted(fp.name for fp in (a / "cells").glob("*.json"))
    assert names and names == sorted(fp.name for fp in (b / "cells").glob("*.json"))
    dumps = sorted(fp.name for fp in (a / "cells").glob("*_field_*.npy"))
    assert dumps == sorted(fp.name for fp in (b / "cells").glob("*_field_*.npy"))
    for rel in ["sweep.csv", "spectral.npz", "lift.npy"] + [f"cells/{n}" for n in names + dumps]:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_run_determinism(tmp_path):
    """Two runs of one config give byte-identical sweep.csv, cell files and
    field dumps."""
    cfg = write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert list((outs[0] / "cells").glob("*_field_*.npy"))
    assert_same_outputs(*outs)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(resolution=st.integers(5, 7), lam_factor=st.floats(0.1, 1.3),
       mu=st.floats(0.0, 0.05), searches=st.sampled_from(["nplus", "nminus", "nplus nminus"]))
def test_rerun_is_byte_identical(resolution, lam_factor, mu, searches):
    """Two runs of a drawn small box config give byte-identical outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        text = (BASE_CONFIG.format(out=tmp / "out")
                .replace("resolution = 9", f"resolution = {resolution}")
                .replace("lambdas = 0.5*lambda1 1.2*lambda1", f"lambdas = {lam_factor!r}*lambda1")
                .replace("mus = 0.01", f"mus = {mu!r}")
                .replace("run = nplus nminus", f"run = {searches}"))
        cfg = write_config(tmp, text)
        outs = [tmp / "a", tmp / "b"]
        codes = [main(["run", str(cfg), "--out", str(out)]) for out in outs]
        assert codes[0] == codes[1]
        assert_same_outputs(*outs)


def test_threaded_run_matches_serial(tmp_path, monkeypatch):
    """Cells run serially: BNSOLVER_THREADS, which a former cell pool read,
    leaves every output byte unchanged."""
    outs = []
    for tag, workers in (("serial", "1"), ("pool", "2")):
        out = tmp_path / f"out_{tag}"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out), name=f"cfg_{tag}.ini")
        monkeypatch.setenv("BNSOLVER_THREADS", workers)
        assert main(["run", str(cfg)]) == 0
        outs.append(out)
    assert_same_outputs(*outs)


def test_fibering_profile_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
    dom = build_domain(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 9))
    rng = np.random.default_rng(0)
    ray = Field(np.abs(rng.standard_normal(dom.n_interior)) + 0.1, dom)
    ray_path = tmp_path / "ray.npy"
    dump_field(ray, ray_path)
    csv_path = tmp_path / "prof.csv"
    code = main(["fibering-profile", str(cfg), "--ray", str(ray_path),
                 "--samples", "50", "--out", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,T,T1,T2"
    assert len(lines) == 51
    t, T, T1, T2 = (np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]).T)
    assert t[0] == 0.0
    # T' crosses zero inside the sampled window (the t_minus root)
    assert (T1[1:] > 0).any() and (T1 < 0).any()

    # stdout variant
    code = main(["fibering-profile", str(cfg), "--ray", str(ray_path), "--samples", "10"])
    assert code == 0
    out_text = capsys.readouterr().out
    assert out_text.splitlines()[0] == "t,T,T1,T2"


@pytest.mark.parametrize("flag,value", [("--samples", "-3"), ("--samples", "1"),
                                        ("--tmax", "nan"), ("--tmax", "inf"),
                                        ("--tmax", "0"), ("--tmax", "-1")])
def test_fibering_profile_bad_sampling_is_argument_error(tmp_path, capsys, flag, value):
    dom = build_domain(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 9))
    ray_path = tmp_path / "ray.npy"
    dump_field(Field(np.ones(dom.n_interior), dom), ray_path)
    cfg = write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    csv_path = tmp_path / "prof.csv"
    code = main(["fibering-profile", str(cfg), "--ray", str(ray_path), flag, value,
                 "--out", str(csv_path)])
    assert code == 2
    assert f"error: {flag} must be" in capsys.readouterr().err
    assert not csv_path.exists()


def test_fibering_profile_empty_list_is_anchored(tmp_path, capsys):
    dom = build_domain(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 9))
    ray_path = tmp_path / "ray.npy"
    dump_field(Field(np.ones(dom.n_interior), dom), ray_path)
    for old, new in (("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = linspace 0.1 0.2 0"),
                     ("mus = 0.01", "mus = linspace 0.1 0.2 0")):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(old, new)
        cfg = write_config(tmp_path, text)
        bad_line = text.splitlines().index(new) + 1
        assert main(["fibering-profile", str(cfg), "--ray", str(ray_path)]) == 2
        assert f"{cfg}:{bad_line}: " in capsys.readouterr().err


def test_fibering_profile_lambda_at_or_above_lambda1_is_anchored(tmp_path, capsys):
    dom = build_domain(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 9))
    ray_path = tmp_path / "ray.npy"
    dump_field(Field(np.ones(dom.n_interior), dom), ray_path)
    for lambdas in ("lambdas = 1.2*lambda1 0.5*lambda1", "lambdas = 1*lambda1"):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "lambdas = 0.5*lambda1 1.2*lambda1", lambdas)
        cfg = write_config(tmp_path, text)
        bad_line = text.splitlines().index(lambdas) + 1
        assert main(["fibering-profile", str(cfg), "--ray", str(ray_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:{bad_line}: " in err
        assert "lambda1" in err and "mu too large" not in err


def test_nonexistence_cell_at_mu_zero_is_uncertified(tmp_path, capsys):
    """The mu = 0 pairing margins are zero: the cell is uncertified, not failed."""
    out = tmp_path / "out"
    cfg_text = BASE_CONFIG.format(out=out).replace(
        "lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = 1.2*lambda1").replace(
        "mus = 0.01", "mus = 0.0")
    assert main(["run", str(write_config(tmp_path, cfg_text))]) == 0
    cell = json.loads((out / "cells" / "cell_0000.json").read_text())
    assert cell["mode"] == "nonexistence"
    assert cell["status"] == "uncertified"
    assert cell["error"] is None
    # certify recomputes the two certificates and finds the probe failing
    capsys.readouterr()
    assert main(["certify", str(out / "cells" / "cell_0000.json")]) == 1
    text = capsys.readouterr().out
    assert text.count("overall: ") == 2 and "overall: FAIL" in text


def test_certify_nonexistence_cell_without_dumps(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_text = BASE_CONFIG.format(out=out).replace(
        "lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = 1.2*lambda1").replace(
        "dump_fields = true", "dump_fields = false")
    assert main(["run", str(write_config(tmp_path, cfg_text))]) == 0
    assert not (out / "lift.npy").exists()
    capsys.readouterr()
    assert main(["certify", str(out / "cells" / "cell_0000.json")]) == 1
    assert capsys.readouterr().out == (
        "nonexistence cell: no field dump stored (rerun with dump_fields = true)\n")


def _node_table_run(tmp_path, file=None):
    """(run directory, table path, config path) of a res-7 box run on
    node-table boundary data; the config names the table by `file`, by
    default its absolute path."""
    nb = build_domain(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 7)).boundary_flat.size
    table = tmp_path / "table.txt"
    table.write_text("".join(f"{i} {1.0 + (i % 5) / 4}\n" for i in range(nb)))
    out = tmp_path / "out"
    text = (BASE_CONFIG.format(out=out)
            .replace("resolution = 9", "resolution = 7")
            .replace("kind = constant\nvalue = 1.0", f"kind = table\nfile = {file or table}")
            .replace("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = 0.5*lambda1"))
    cfg = write_config(tmp_path, text)
    assert main(["run", str(cfg)]) == 0
    return out, table, cfg


def _edit_table(path):
    nb = build_domain(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 7)).boundary_flat.size
    path.write_text("".join(f"{i} {2.0 + (i % 5) / 4}\n" for i in range(nb)))


def test_node_table_config_is_boundary_data(tmp_path):
    """The boundary data that parse_config returns for a node-table config
    lift on their own: solve_lift of them is the run's lift.npy, bit for
    bit."""
    out, _, cfg = _node_table_run(tmp_path)
    rc = parse_config(cfg)
    domain = build_domain(rc.domain_spec)
    phi = solve_lift(rc.boundary, domain)
    assert np.load(out / "lift.npy").tobytes() == domain.lattice_array(phi.values).tobytes()


def test_node_table_run_and_certify(tmp_path, capsys):
    """A run on node-table boundary data, with the table at an absolute
    path, keeps a copy of the table and certifies against it, also after
    the original table is edited; once the run's copy is edited, the stored
    lift no longer passes against it."""
    out, table, _ = _node_table_run(tmp_path)
    assert (out / cli.TABLE_FILE).read_bytes() == table.read_bytes()
    cell_path = out / "cells" / "cell_0000.json"
    _edit_table(table)
    capsys.readouterr()
    assert main(["certify", str(cell_path)]) == 0
    assert capsys.readouterr().out.count("overall: PASS") == 2

    _edit_table(out / cli.TABLE_FILE)
    assert main(["certify", str(cell_path)]) == 2
    assert f"{out / 'lift.npy'}: lift residual" in capsys.readouterr().err


def test_node_table_run_certifies_from_another_directory(tmp_path, monkeypatch, capsys):
    """A node table named by a path relative to the directory the run
    started in: certify from the run directory itself reads the run's copy
    and passes, also after the original table is edited."""
    monkeypatch.chdir(tmp_path)
    out, table, _ = _node_table_run(tmp_path, file="table.txt")
    monkeypatch.chdir(out)
    capsys.readouterr()
    assert main(["certify", "cells/cell_0000.json"]) == 0
    assert capsys.readouterr().out.count("overall: PASS") == 2
    _edit_table(table)
    assert main(["certify", "cells/cell_0000.json"]) == 0


def test_config_errors(tmp_path):
    bad = write_config(tmp_path, "[domain]\nshape box\n", name="bad1.ini")
    with pytest.raises(ConfigurationError) as ei:
        parse_config(bad)
    assert "bad1.ini:2" in str(ei.value)

    bad2 = write_config(tmp_path, "shape = box\n", name="bad2.ini")
    with pytest.raises(ConfigurationError) as ei:
        parse_config(bad2)
    assert "outside any [section]" in str(ei.value)

    cfg = BASE_CONFIG.format(out=tmp_path / "o").replace("run = nplus nminus", "run = warps")
    with pytest.raises(ConfigurationError) as ei:
        parse_config(write_config(tmp_path, cfg, name="bad3.ini"))
    assert "unknown search" in str(ei.value)

    code = main(["run", str(write_config(tmp_path, cfg, name="bad4.ini"))])
    assert code == 2


@pytest.mark.parametrize("old, new, bad, message", [
    ("run = nplus nminus", "run = nplus nminus\nbudget_facter = 1.0", "budget_facter = 1.0",
     "unknown key 'budget_facter' in [searches]"),
    ("seed = 0", "seed = 0\n\n[typo_section]\nepsilonn = 0.25", "[typo_section]",
     "unknown section [typo_section]"),
    ("value = 1.0", "value = 1.0\nseed = 3", "seed = 3", "unknown key 'seed' in [boundary]"),
    ("dump_fields = true", "dump_fields = ture", "dump_fields = ture",
     "dump_fields must be one of true/yes/1/false/no/0, got 'ture'"),
    ("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = nan", "lambdas = nan",
     "not a finite number: 'nan'"),
    ("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = 1e400", "lambdas = 1e400",
     "not a finite number: '1e400'"),
    ("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = inf*lambda1", "lambdas = inf*lambda1",
     "not a finite number: 'inf'"),
    ("mus = 0.01", "mus = inf", "mus = inf", "not a finite number: 'inf'"),
    ("run = nplus nminus", "run = nplus nminus\nbudget_factor = inf", "budget_factor = inf",
     "not a finite number: 'inf'"),
    ("value = 1.0", "value = inf", "value = inf", "not a finite number: 'inf'"),
    ("mus = 0.01", "mus = linspace 0.01 0.1 0", "mus = linspace 0.01 0.1 0",
     "linspace count must be >= 1, got 0"),
    ("mus = 0.01", "mus = 0.01\nmus = 0.02", "mus = 0.02",
     "key 'mus' in [parameters] repeats the one at line 15"),
    ("run = nplus nminus", "run = nminus multistart", "run = nminus multistart",
     "multistart needs nplus in the same run"),
    ("run = nplus nminus", "run = nplus minimax", "run = nplus minimax",
     "minimax needs nplus and nminus in the same run"),
    ("resolution = 9", "resolution = -0", "[domain]",
     "resolution must be >= 4 points per axis"),
    ("value = 1.0", "value = 0", "[boundary]", "boundary data must not vanish identically"),
    ("value = 1.0", "value = -1", "[boundary]", "boundary data must be nonnegative"),
    ("kind = constant\nvalue = 1.0",
     "kind = bump\ndirection = 1 0 0\nwidth = 0.3\namplitude = 0", "[boundary]",
     "boundary data must not vanish identically"),
], ids=["key", "section", "key-in-wrong-section", "boolean",
        "nan", "overflow", "inf-lambda1", "inf-mu", "budget-inf", "boundary-inf",
        "linspace-0", "repeated-key", "multistart-deps", "minimax-deps", "domain-spec",
        "boundary-zero", "boundary-negative", "bump-zero-amplitude"])
def test_unknown_config_names_are_anchored(tmp_path, capsys, old, new, bad, message):
    """A misspelt key, section or boolean value, or a key in the wrong
    section, stops the run at its line instead of leaving the setting at its
    default.  So do a non-finite or overflowing number, a linspace of no
    values, a key given twice, a search without the searches it starts from,
    a domain the spec check refuses (anchored at its [domain] header) and
    boundary data that are zero or negative (anchored at the [boundary]
    header): exit 2, no traceback and no cell run."""
    text = BASE_CONFIG.format(out=tmp_path / "out").replace(old, new)
    bad_line = text.splitlines().index(bad) + 1
    cfg = write_config(tmp_path, text)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{bad_line}: {message}" in err and "Traceback" not in err
    assert not list((tmp_path / "out").glob("cells/*"))


def test_rejected_rerun_leaves_the_finished_run_certifiable(tmp_path, capsys):
    """A config refused at set-up (boundary data that vanish, a negative
    lambda) exits 2 before it touches the output directory: the certified
    run there keeps its config.ini and still certifies."""
    text = BASE_CONFIG.format(out=tmp_path / "out").replace("resolution = 9", "resolution = 7")
    assert main(["run", str(write_config(tmp_path, text))]) == 0
    stored = (tmp_path / "out" / "config.ini").read_bytes()
    cell = tmp_path / "out" / "cells" / "cell_0000.json"
    for old, new in (("value = 1.0", "value = 0"),
                     ("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = -1")):
        bad = write_config(tmp_path, text.replace(old, new), name="bad.ini")
        assert main(["run", str(bad)]) == 2
        assert (tmp_path / "out" / "config.ini").read_bytes() == stored
        capsys.readouterr()
        assert main(["certify", str(cell)]) == 0
        assert "overall: PASS" in capsys.readouterr().out


def test_dump_fields_takes_booleans_in_any_case(tmp_path):
    for value, on in (("TRUE", True), ("Yes", True), ("1", True),
                      ("False", False), ("NO", False), ("0", False)):
        text = BASE_CONFIG.format(out=tmp_path / "out").replace(
            "dump_fields = true", f"dump_fields = {value}")
        assert parse_config(write_config(tmp_path, text)).dump_fields is on


@pytest.mark.parametrize("dimension, directions, most", [(3, 15, 14), (4, 25, 24)])
def test_directions_beyond_the_sphere_set_are_anchored(tmp_path, capsys, dimension,
                                                       directions, most):
    """More multistart directions than the 2N signed axes and 2^N diagonals
    of the dimension is an error at its line, not a silent truncation."""
    text = (BASE_CONFIG.format(out=tmp_path / "out")
            .replace("sides = 1 1 1", "sides = " + " ".join(["1"] * dimension))
            .replace("dimension = 3", f"dimension = {dimension}")
            .replace("run = nplus nminus", f"run = nplus nminus\ndirections = {directions}"))
    line = text.splitlines().index(f"directions = {directions}") + 1
    cfg = write_config(tmp_path, text)
    assert main(["run", str(cfg)]) == 2
    assert (f"{cfg}:{line}: directions must be in [1, {most}] for dimension {dimension}, "
            f"got {directions}") in capsys.readouterr().err
    ok = text.replace(f"directions = {directions}", f"directions = {most}")
    assert parse_config(write_config(tmp_path, ok, name="ok.ini")).directions == most



def test_mu_zero_cell_skips_the_searches_that_start_from_plus(tmp_path, capsys):
    """At mu = 0 there is no Plus branch: nplus, multistart and minimax
    (which on a box would fail) are skipped, and the cell keeps and
    certifies its Minus record."""
    text = (BASE_CONFIG.format(out=tmp_path / "out")
            .replace("resolution = 9", "resolution = 7")
            .replace("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = 0.5*lambda1")
            .replace("mus = 0.01", "mus = 0")
            .replace("run = nplus nminus", "run = nplus nminus multistart minimax"))
    assert main(["run", str(write_config(tmp_path, text))]) == 0
    cell_path = tmp_path / "out" / "cells" / "cell_0000.json"
    cell = json.loads(cell_path.read_text())
    assert cell["status"] == "ok" and cell["error"] is None and "minimax" not in cell
    assert [r["class"] for r in cell["records"]] == ["MINUS"]
    assert cell["certificates"][0]["overall"]
    capsys.readouterr()
    assert main(["certify", str(cell_path)]) == 0
    assert capsys.readouterr().out.count("overall: PASS") == 1


# A valid box config that sets every numeric key, and a number in its lines
_FUZZ_CONFIG = BASE_CONFIG.format(out="out").replace(
    "run = nplus nminus", "run = nplus nminus multistart\ndirections = 6\nepsilon = 0.2\n"
    "budget_factor = 1.0\nmu_star_cells = 24")
_FUZZ_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?![\w.])")


@st.composite
def _mutated_configs(draw):
    """_FUZZ_CONFIG with one to three lines dropped, duplicated or copied to
    another place (a key repeated), or a number replaced by a non-finite,
    overflowing or negative-zero one; its bytes then possibly truncated."""
    lines = _FUZZ_CONFIG.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["number", "number", "drop", "duplicate", "copy"]))
        if how == "number":
            numbers = [(i, m) for i, line in enumerate(lines)
                       for m in _FUZZ_NUMBER.finditer(line)]
            if not numbers:
                continue
            i, m = draw(st.sampled_from(numbers))
            bad = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "-0"]))
            lines[i] = lines[i][:m.start()] + bad + lines[i][m.end():]
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if how == "drop":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        if not lines:
            break
    data = "".join(lines).encode()
    return data[:draw(st.integers(0, len(data)))] if draw(st.integers(0, 3)) == 0 else data


def _fuzz_edit(old, new):
    return _FUZZ_CONFIG.replace(old, new).encode()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=_mutated_configs())
@example(data=_fuzz_edit("budget_factor = 1.0", "budget_factor = inf"))
@example(data=_fuzz_edit("value = 1.0", "value = 1e400"))
@example(data=_fuzz_edit("sides = 1 1 1", "sides = 1 -0 1"))
@example(data=_fuzz_edit("resolution = 9", "resolution = -0"))
@example(data=_fuzz_edit("mus = 0.01", "mus = nan"))
@example(data=_fuzz_edit("mus = 0.01", "mus = 0.01\nmus = 0.01"))
@example(data=_FUZZ_CONFIG.encode()[:60])
def test_parse_config_takes_mutated_configs(tmp_path_factory, data):
    """Every mutation of a valid config parses to a RunConfig with finite
    numbers, whose lambda and mu lists (`_parse_values`) are finite too, or
    is a ConfigurationError whose message starts with the path."""
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    path.write_bytes(data)
    try:
        rc = parse_config(path)
        assert isinstance(rc, RunConfig)
        numbers = [rc.epsilon, rc.budget_factor, rc.boundary.value,
                   *rc.domain_spec.shape.sides]
        for key, text in (("lambdas", rc.lambdas_text), ("mus", rc.mus_text)):
            numbers += cli._parse_values(rc.cfg, "parameters", key, text, lambda1=1.0)
    except ConfigurationError as e:
        assert str(e).startswith(f"{path}:"), str(e)
        return
    assert all(math.isfinite(x) for x in numbers)


def test_lattice_past_the_int32_range_is_a_config_error(tmp_path, capsys):
    """dimension = 8 at resolution = 300 is 300^8 nodes, more than int32
    indices address: the run stops at the spec check with exit 2 and an
    error line, not a traceback from the first lattice allocation."""
    text = (BASE_CONFIG.format(out=tmp_path / "out")
            .replace("sides = 1 1 1", "sides = " + " ".join(["1"] * 8))
            .replace("dimension = 3", "dimension = 8")
            .replace("resolution = 9", "resolution = 300"))
    cfg = write_config(tmp_path, text)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    # anchored at the [domain] header, line 3 of the config
    assert err.startswith(f"error: {cfg}:3: lattice of 300^8 nodes") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_default_bump_underflow_is_a_config_error(tmp_path, capsys):
    """A box so elongated that the default bump (the Sobolev descent's seed)
    underflows on every interior node stops with an error naming the bump,
    not with a NaN descent."""
    text = (BASE_CONFIG.format(out=tmp_path / "out")
            .replace("sides = 1 1 1", "sides = 1 1000 1")
            .replace("resolution = 9", "resolution = 4"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
    assert "default bump underflows" in capsys.readouterr().err


def test_module_entry_point_runs_without_warnings():
    """`python -W error -m bnsolver.cli` finds the module not yet imported
    by its package (runpy warns otherwise)."""
    src = str(Path(bnsolver.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "bnsolver.cli", "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: bnsolver") and proc.stderr == ""


SCIPY_LINALG_PROBE = """
import sys
import scipy.sparse
loaded = ["scipy.linalg" in sys.modules]
from bnsolver.cli import main
assert main(["run", sys.argv[1]]) == 0
assert main(["certify", sys.argv[2]]) == 0
loaded.append("scipy.linalg" in sys.modules)
sys.stderr.write(f"scipy.linalg loaded: {loaded}")
"""


def test_run_and_certify_leave_scipy_linalg_unimported(tmp_path):
    """A res-7 box run and certify in one fresh interpreter never import
    scipy.linalg (about 8.5 MB of resident memory): the package takes its
    small dense eigenproblems from numpy.linalg."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path, BASE_CONFIG.replace("resolution = 9", "resolution = 7")
                       .format(out=out))
    src = str(Path(bnsolver.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_LINALG_PROBE, str(cfg),
                           str(out / "cells" / "cell_0000.json")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if proc.stderr.endswith("[True, True]"):
        pytest.skip("this scipy loads scipy.linalg on import scipy.sparse")
    assert proc.stderr.endswith("scipy.linalg loaded: [False, False]"), proc.stderr


MALFORMED = [
    ("dimension = 3", "dimension = three"),
    ("resolution = 9", "resolution = 9.5"),
    ("sides = 1 1 1", "sides = 1 one 1"),
    ("shape = box\nsides = 1 1 1", "shape = annulus\ndelta0 = wide"),
    ("value = 1.0", "value = 1.0 2.0"),
    ("kind = constant\nvalue = 1.0", "kind = bump\nwidth = 0.8\ndirection = 1 0 x"),
    ("kind = constant\nvalue = 1.0", "kind = bump\ndirection = 1 0 0\nwidth = narrow"),
    ("kind = constant\nvalue = 1.0", "kind = bump\ndirection = 1 0 0\nwidth = 0.8\namplitude = ?"),
    ("run = nplus nminus", "run = nplus nminus\ndirections = six"),
    ("run = nplus nminus", "run = nplus nminus\nepsilon = 0.2.1"),
    ("run = nplus nminus", "run = nplus nminus\nbudget_factor = x"),
    ("run = nplus nminus", "run = nplus nminus\nmu_star_cells = 8.5"),
    ("run = nplus nminus", "run = nplus nminus\ndirections = 0"),
    ("run = nplus nminus", "run = nplus nminus\nepsilon = 1.5"),
    ("run = nplus nminus", "run = nplus nminus\nepsilon = 0"),
    ("run = nplus nminus", "run = nplus nminus\nbudget_factor = -1"),
    ("run = nplus nminus", "run = nplus nminus\nbudget_factor = 0"),
    ("run = nplus nminus", "run = nplus nminus\nmu_star_cells = 0"),
    ("seed = 0", "seed = zero"),
    ("seed = 0", "seed = -1"),
    ("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = linspace 0.1 x 3"),
    ("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = linspace 0.1 0.2 three"),
    ("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = linspace 0.1 0.2 -1"),
    ("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = half*lambda1"),
    ("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = -0.5*lambda1"),
    ("mus = 0.01", "mus = -0.01"),
]


@pytest.mark.parametrize("old, new", MALFORMED, ids=[n.splitlines()[-1] for _, n in MALFORMED])
def test_malformed_numbers_are_anchored(tmp_path, capsys, old, new):
    text = BASE_CONFIG.format(out=tmp_path / "out")
    assert old in text
    text = text.replace(old, new)
    bad_line = text.splitlines().index(new.splitlines()[-1]) + 1
    cfg = write_config(tmp_path, text)
    assert main(["run", str(cfg)]) == 2
    assert f"{cfg}:{bad_line}: " in capsys.readouterr().err


def test_crash_isolation(tmp_path):
    out = tmp_path / "out"
    cfg_text = BASE_CONFIG.format(out=out).replace("mus = 0.01", "mus = 0.01 40.0")
    cfg = write_config(tmp_path, cfg_text)
    code = main(["run", str(cfg)])
    assert code == 1  # the mu = 40 cell fails, the sweep completes
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    statuses = [r.split(",")[-1] for r in rows]
    assert "ok" in statuses and "failed" in statuses


ANNULUS_CONFIG = """
[domain]
shape = annulus
delta0 = 0.5
dimension = 3
resolution = 9

[boundary]
kind = bump
direction = 1 0 0
width = 0.8
amplitude = 1.0

[parameters]
lambdas = 0.25*lambda1
mus = 0.01

[searches]
run = nplus nminus multistart minimax
directions = 2
epsilon = 0.3

[output]
directory = {out}
dump_fields = false

[random]
seed = 0
"""


def test_annulus_run_with_multistart_and_minimax(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ANNULUS_CONFIG.format(out=out))
    code = main(["run", str(cfg)])
    cell = json.loads((out / "cells" / "cell_0000.json").read_text())
    assert cell["status"] in ("ok", "uncertified"), cell["error"]
    assert code in (0, 1)
    assert len(cell["records"]) >= 2  # nplus, nminus, plus whatever multistart kept
    assert "minimax" in cell
    assert set(cell["minimax"]) >= {"found", "gamma_estimate", "window", "reason"}
    # without field dumps the run stores no spectral data and no lift, and
    # certify says what is missing instead of failing on the absent files
    assert not (out / "spectral.npz").exists() and not (out / "lift.npy").exists()
    capsys.readouterr()
    assert main(["certify", str(out / "cells" / "cell_0000.json")]) == 1
    assert "record 0: no field dump stored" in capsys.readouterr().out


@pytest.fixture(scope="module")
def annulus_run(tmp_path_factory):
    """A run of the annulus config with field dumps, nplus and nminus only."""
    tmp = tmp_path_factory.mktemp("annulus")
    out = tmp / "out"
    text = (ANNULUS_CONFIG.format(out=out)
            .replace("run = nplus nminus multistart minimax", "run = nplus nminus")
            .replace("dump_fields = false", "dump_fields = true"))
    assert main(["run", str(write_config(tmp, text))]) == 0
    return out


def test_stored_lift_is_the_solved_lift(completed_run, annulus_run):
    """lift.npy is the dump of solve_lift on the run's config, bit for bit,
    on a box and on the annulus."""
    for out in (completed_run, annulus_run):
        rc = parse_config(out / "config.ini")
        domain = build_domain(rc.domain_spec)
        phi = solve_lift(rc.boundary, domain)
        assert np.load(out / "lift.npy").tobytes() == domain.lattice_array(phi.values).tobytes()


def test_certify_runs_no_setup_search(completed_run, annulus_run, monkeypatch, capsys):
    """Certify reads the run's spectral data and lift instead of computing
    them again: with the eigensolve, the Sobolev descent and CG made to
    raise, every cell with records, and the nonexistence cell, certifies
    with the text that freshly computed spectral data and lift give, and the
    stored lambda1 and sobolev_S are the run's bit for bit."""
    expected = []
    for out in (completed_run, annulus_run):
        domain, spectral, lift, _, _ = cli._setup(parse_config(out / "config.ini"))
        stored = load_spectral_data(out / "spectral.npz", domain)
        assert (stored.lambda1, stored.sobolev_S) == (spectral.lambda1, spectral.sobolev_S)
        for fp in sorted((out / "cells").glob("cell_*.json")):
            cell = json.loads(fp.read_text())
            p = Params(lam=cell["lambda"], mu=cell["mu"], spectral=spectral, lift=lift)
            lines = []
            if cell["mode"] == "nonexistence":
                for k, (what, candidate) in enumerate((("a-priori margin", None),
                                                       ("e1 probe", spectral.e1))):
                    cert = nonexistence_certificate(p, candidate=candidate)
                    lines += [f"certificate {k} (nonexistence, {what}):", str(cert)]
            for k, r in enumerate(cell["records"]):
                v = grid.load_field(fp.parent / r["field_dump"], domain)
                cert = certify_solution(cli._stored_record(r, v, p), p)
                lines += [f"record {k} ({r['class']}, energy {cli._fmt(r['energy'])}):", str(cert)]
            expected.append((fp, "\n".join(lines) + "\n"))
    assert len(expected) == 3

    def no_search(*args, **kwargs):
        raise AssertionError("certify ran a setup search or a linear solve")

    monkeypatch.setattr(grid, "estimate_sobolev_S", no_search)
    monkeypatch.setattr(grid, "principal_eigenpair", no_search)
    # grid binds solve_cg at import, so patch its name there too
    for module in (numutil, grid):
        monkeypatch.setattr(module, "solve_cg", no_search)
    capsys.readouterr()
    for fp, text in expected:
        assert main(["certify", str(fp)]) == 0
        assert capsys.readouterr().out == text


def test_certify_takes_no_record_diagnostics(completed_run, monkeypatch):
    """Certify reads neither the barycenter nor the gradient direction
    integral of a stored record: with both made to raise, every cell
    certifies."""
    def no_diagnostic(*args):
        raise AssertionError("certify took a record diagnostic")

    monkeypatch.setattr(solve, "barycenter", no_diagnostic)
    monkeypatch.setattr(grid.Domain, "gradient_direction_integral", no_diagnostic)
    cells = sorted((completed_run / "cells").glob("cell_*.json"))
    assert len(cells) == 2
    for fp in cells:
        assert main(["certify", str(fp)]) == 0


def test_certify_without_field_dumps_reads_no_stored_file(completed_run, tmp_path, capsys):
    """A cell whose records have no field dump is reported as such, without
    reading the run's spectral data or lift: here both are garbage."""
    cell_path = copied_run(completed_run, tmp_path)
    cell = json.loads(cell_path.read_text())
    for r in cell["records"]:
        del r["field_dump"]
    cell_path.write_text(json.dumps(cell))
    for name in ("spectral.npz", "lift.npy"):
        (cell_path.parent.parent / name).write_text("garbage\n")
    assert main(["certify", str(cell_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "".join(
        f"record {k}: no field dump stored (rerun with dump_fields = true)\n"
        for k in range(len(cell["records"])))
    assert captured.err == "no records with field dumps found\n"


def test_mu_star_search(tmp_path):
    out = tmp_path / "out"
    cfg_text = BASE_CONFIG.format(out=out).replace(
        "run = nplus nminus", "run = mu_star\nmu_star_cells = 8"
    ).replace("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = 0.5*lambda1")
    cfg = write_config(tmp_path, cfg_text)
    assert main(["run", str(cfg)]) == 0
    rows = (out / "mu_star.csv").read_text().strip().splitlines()
    assert rows[0] == "lambda,mu_star,n_cells"
    lam, mu_star, n = rows[1].split(",")
    assert float(mu_star) > 0
    branches = (out / "mu_star_branches.csv").read_text().strip().splitlines()
    assert len(branches) == int(n) + 1


def test_mu_star_combines_with_cell_searches(tmp_path):
    out = tmp_path / "out"
    cfg_text = BASE_CONFIG.format(out=out).replace(
        "run = nplus nminus", "run = nplus nminus mu_star\nmu_star_cells = 4"
    ).replace("lambdas = 0.5*lambda1 1.2*lambda1", "lambdas = 0.5*lambda1")
    cfg = write_config(tmp_path, cfg_text)
    assert main(["run", str(cfg)]) == 0
    sweep = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(sweep) == 2  # the (lambda, mu) cell still ran
    assert (out / "mu_star.csv").exists()  # and so did the continuation


def test_symmetry_images_are_recorded_reported_and_certified(tmp_path, capsys):
    """On constant data the six axis bubbles are one orbit: records 3-7 are
    images of record 2, with no iterations of their own; the minimax block
    counts relaxed and image points; report and certify read the cell."""
    out = tmp_path / "out"
    text = (ANNULUS_CONFIG.format(out=out)
            .replace("kind = bump\ndirection = 1 0 0\nwidth = 0.8\namplitude = 1.0",
                     "kind = constant\nvalue = 1.0")
            .replace("directions = 2", "directions = 6")
            .replace("dump_fields = false", "dump_fields = true"))
    assert main(["run", str(write_config(tmp_path, text))]) == 0
    cell_path = out / "cells" / "cell_0000.json"
    cell = json.loads(cell_path.read_text())
    records = cell["records"]
    assert [r.get("image_of") for r in records[:3]] == [None, None, None]
    assert records[2]["iterations"] > 0
    assert all(r["image_of"] == 2 and r["iterations"] == 0 for r in records[3:8])
    assert (cell["minimax"]["relaxed_points"], cell["minimax"]["image_points"]) == (18, 108)
    assert main(["report", str(out)]) == 0
    rows = (out / "barycenters.csv").read_text().splitlines()
    assert rows[0].startswith("cell,record,class,seed,image_of,beta_0")
    assert [row.split(",")[4] for row in rows[1:9]] == ["", "", ""] + ["2"] * 5
    capsys.readouterr()
    assert main(["certify", str(cell_path)]) == 0
    assert capsys.readouterr().out.count("overall: PASS") == len(records)
