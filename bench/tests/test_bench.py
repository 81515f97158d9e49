"""Tests of the benchmark itself: span arithmetic, the correctness gate,
config generation and the tracer's patching.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_config, parameters  # noqa: E402


def _reference(name):
    with open(BENCH / "reference" / f"{name}.json") as f:
        return json.load(f)


# -- span arithmetic -------------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    # root [0, 10]; children [1, 3] and [2, 5] overlap, [6, 7] holds a
    # grandchild [6.2, 6.5]; [9, 12] runs past the root and is clipped.
    start = [0.0, 1.0, 2.0, 6.0, 6.2, 9.0]
    end = [10.0, 3.0, 5.0, 7.0, 6.5, 12.0]
    parent = [-1, 0, 0, 0, 3, 0]
    selfs = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(selfs, [10 - 4 - 1 - 1, 2.0, 3.0, 0.7, 0.3, 3.0])


def test_layer_metrics_on_synthetic_trace():
    names = ["cli.main", "nehari.find_roots", "functional.dT", "functional.dT",
             "functional.dT", "numutil.solve_cg"]
    start = [0.0, 1.0, 1.5, 2.5, 5.0, 7.0]
    end = [10.0, 4.0, 2.0, 3.0, 6.0, 8.0]
    parent = [-1, 0, 1, 1, 0, 0]
    table = sorted(set(names))
    arrays = {
        "name": np.array([table.index(n) for n in names]),
        "start": np.array(start), "end": np.array(end), "parent": np.array(parent),
        "trace": np.zeros(len(names), dtype=int), "failed": np.zeros(len(names), dtype=bool),
        "name_table": np.array(table),
    }
    attrs = {5: {"label": "riesz_lift", "iters": 12, "unconverged": 1}}
    m = tracing.layer_metrics(arrays, attrs, run_trace=0, run_s=10.0)
    assert m["nehari.find_roots.calls"] == 1
    assert m["nehari.find_roots.self_s"] == pytest.approx(2.0)
    assert m["nehari.find_roots.dT_per_call"] == pytest.approx(2.0)  # the third dT is outside
    assert m["functional.dT.calls"] == 3
    assert m["functional.fibering.self_s"] == pytest.approx(2.0)
    assert m["numutil.solve_cg.riesz_lift.iters"] == 12
    assert m["numutil.solve_cg.unconverged"] == 1
    assert m["layer.cli.self_share"] == pytest.approx(0.5)
    assert m["layer.nehari.self_share"] == pytest.approx(0.2)
    assert m["layer.functional.self_share"] == pytest.approx(0.2)
    assert m["layer.numutil.self_share"] == pytest.approx(0.1)
    assert m["trace.coverage"] == pytest.approx(0.5)
    assert m["nehari.find_roots.run_share"] == pytest.approx(0.3)


# -- correctness gate --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_passes_its_own_gate(name):
    ref = _reference(name)
    attempted, failed = gate.count(gate.operations(ref, ref=ref, first=ref))
    assert attempted > 0 and failed == 0


def _failed(obs, ref):
    ops = gate.operations(obs, ref=ref)
    return sorted(name for name, problems in ops.items() if problems)


def test_gate_rejects_energy_perturbed_in_cell_record():
    ref = _reference("box-cells")
    obs = copy.deepcopy(ref)
    obs["cells"][1]["records"][0]["energy"] *= 1.0 + 1e-9
    assert _failed(obs, ref) == ["cell1.record0"]
    obs = copy.deepcopy(ref)
    obs["cells"][1]["records"][0]["energy"] *= 1.0 + 1e-14  # inside REL_TOL
    assert _failed(obs, ref) == []


def test_gate_rejects_energy_perturbed_in_sweep_csv():
    ref = _reference("box-cells")
    obs = copy.deepcopy(ref)
    lines = obs["csv"]["sweep.csv"].splitlines()
    cols = lines[3].split(",")
    cols[4] = repr(float(cols[4]) * (1.0 + 1e-9))  # m_minus of cell 2
    lines[3] = ",".join(cols)
    obs["csv"]["sweep.csv"] = "\n".join(lines) + "\n"
    assert _failed(obs, ref) == ["cell2.record0", "cell2.record1"]
    # without the reference the bytes still differ from the first repetition
    assert gate.count(gate.operations(obs, first=ref))[1] == 12


def test_gate_rejects_flipped_certificates():
    ref = _reference("box-cells")
    for path in (("cells", 0, "certificates", 1), ("cells", 4, "certificates", 0),
                 ("certify", 0, "3", "records", 0)):
        obs = copy.deepcopy(ref)
        node = obs
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = not node[path[-1]]
        assert len(_failed(obs, ref)) == 1, path


def test_gate_rejects_mu_star_change_and_bad_status():
    ref = _reference("mu-star-sweep")
    obs = copy.deepcopy(ref)
    lines = obs["csv"]["mu_star_branches.csv"].splitlines()
    cols = lines[5].split(",")
    cols[2] = repr(float(cols[2]) * (1.0 + 1e-9))
    lines[5] = ",".join(cols)
    obs["csv"]["mu_star_branches.csv"] = "\n".join(lines) + "\n"
    assert _failed(obs, ref) == ["mu_star0"]
    obs = copy.deepcopy(ref)
    obs["cells"][2]["status"] = "uncertified"
    assert _failed(obs, None) == ["cell2.record0", "cell2.record1"]
    obs = copy.deepcopy(ref)
    obs["run_exit"] = 1
    attempted, failed = gate.count(gate.operations(obs))
    assert failed == attempted


def test_gate_counts_missing_records_as_failed():
    ref = _reference("annulus-multiplicity")
    obs = copy.deepcopy(ref)
    del obs["cells"][0]["records"][-1]
    del obs["cells"][0]["certificates"][-1]
    attempted, failed = gate.count(gate.operations(obs, ref=ref))
    assert attempted == gate.count(gate.operations(ref, ref=ref))[0]
    assert failed >= 1


# -- workloads ------------------------------------------------------------------------


def test_seed_zero_is_the_reference_config():
    text = make_config("box-cells", 0)
    assert "lambdas = 0.25*lambda1 0.75*lambda1 1.2*lambda1\n" in text
    assert "mus = 0.01 0.04\n" in text
    assert "resolution = 25\n" in text and "seed = 0\n" in text
    text = make_config("annulus-multiplicity", 0)
    assert "delta0 = 0.45\n" in text and "directions = 6\n" in text
    assert "lambdas = 0.1*lambda1\n" in text and "mus = 0.005\n" in text
    text = make_config("mu-star-sweep", 0)
    assert "run = nplus nminus mu_star\n" in text and "mu_star_cells = 24\n" in text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_generation_is_deterministic(name, tmp_path):
    from bnsolver.cli import parse_config

    for seed in (0, 1, 17):
        assert make_config(name, seed) == make_config(name, seed)
        path = tmp_path / f"{seed}.ini"
        path.write_text(make_config(name, seed))
        assert parse_config(path).seed == seed
    assert make_config(name, 1) != make_config(name, 2)
    w = WORKLOADS[name]
    lams, mus = parameters(w, 5)
    for got, base in zip(lams + mus, w.lambda_multipliers + w.mus):
        assert abs(got / base - 1.0) <= w.perturb + 1e-3


def test_benchmark_json_matches_the_bench():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"] for m in spec["end_to_end"]} == run.ESTIMATOR.keys()
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]


# -- tracer -----------------------------------------------------------------------------


def _snapshot():
    """Identity of every function-valued attribute of bnsolver's modules and
    of the patched classes."""
    import bnsolver

    snap = {}
    for key, mod in sorted(sys.modules.items()):
        if key == "bnsolver" or key.startswith("bnsolver."):
            for attr, val in vars(mod).items():
                if callable(val):
                    snap[(key, attr)] = val
    for (short, cls_name, attr) in tracing.METHODS:
        cls = getattr(getattr(bnsolver, short), cls_name)
        snap[(short, cls_name, attr)] = vars(cls)[attr]
    return snap


TINY = """[domain]
shape = box
sides = 1 1 1
dimension = 3
resolution = 7
[parameters]
lambdas = 0.5*lambda1 1.2*lambda1
mus = 0.01
[searches]
run = nplus nminus
[output]
dump_fields = true
"""


def test_tracer_wraps_then_restores_everything(tmp_path):
    import bnsolver.cli as cli
    from bnsolver import nehari, solve

    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solve.find_roots is not before[("bnsolver.solve", "find_roots")]
        assert solve.find_roots is nehari.find_roots  # one wrapper per name
        assert cli.minimize_on_Nplus is solve.minimize_on_Nplus
        config = tmp_path / "tiny.ini"
        config.write_text(TINY)
        tracer.begin_trace("run")
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
        run_s = tracer.end[0] - tracer.start[0]
        tracer.begin_trace("certify")
        assert cli.main(["certify", str(tmp_path / "out" / "cells" / "cell_0000.json")]) == 0
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    for val in after.values():
        if inspect.isfunction(val):
            assert val.__code__ is not tracing.Tracer._wrap.__code__

    n_spans = len(tracer.names)
    cli.main(["run", str(config), "--out", str(tmp_path / "again")])
    assert len(tracer.names) == n_spans  # untraced code records nothing

    m = tracing.layer_metrics(tracer.arrays(), tracer.attrs, run_trace=0, run_s=run_s)
    added_by_run_py = {"trace.overhead_s", "trace.overhead_frac", "cli.output.bytes",
                       "cli.import.s", "solve.nplus.iterations"}
    with open(ROOT / "BENCHMARK.json") as f:
        listed = {m_["name"] for m_ in json.load(f)["per_layer"]}
    assert listed - added_by_run_py <= m.keys()
    assert m["nehari.find_roots.calls"] > 0 and m["numutil.solve_cg.riesz_lift.iters"] > 0
    assert m["verify.nonexistence_certificate.calls"] == 2
    assert m["grid.load_field.bytes"] > 0 and m["grid.dump_field.bytes"] > 0
