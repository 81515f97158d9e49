import json
import shutil

import numpy as np
import pytest

from bnsolver.cli import main, parse_config
from bnsolver.errors import ConfigurationError
from bnsolver.grid import Box, DomainSpec, Field, build_domain, dump_field

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


def test_report(completed_run, capsys):
    code = main(["report", str(completed_run)])
    assert code == 0
    text = capsys.readouterr().out
    assert "2 cells" in text
    heat = (completed_run / "heatmap.csv").read_text().splitlines()
    assert len(heat) == 3
    assert (completed_run / "branches.csv").exists()
    assert (completed_run / "barycenters.csv").exists()


def test_certify_subcommand(completed_run, capsys):
    code = main(["certify", str(completed_run / "cells" / "cell_0000.json")])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


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


def field_dump_bad_header(tmp_path, completed_run):
    ray = tmp_path / "ray.txt"
    ray.write_text("garbage\n1 2 3\n")
    cfg = write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    return ["fibering-profile", str(cfg), "--ray", str(ray)], str(ray)


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


@pytest.mark.parametrize("case", [missing_config, node_table_bad_line, field_dump_bad_header,
                                  missing_cell_file, non_json_cell_file, unknown_recorded_class,
                                  record_without_energy],
                         ids=lambda case: case.__name__)
def test_unreadable_inputs_are_typed_errors(tmp_path, completed_run, capsys, case):
    """Missing or malformed input files exit 2 with an error that names the
    file (and the line, for a node table), never with a traceback."""
    argv, where = case(tmp_path, completed_run)
    assert main(argv) == 2
    assert where in capsys.readouterr().err


def assert_same_outputs(a, b):
    """sweep.csv and every cells/*.json are byte-identical in run dirs a and b."""
    names = sorted(fp.name for fp in (a / "cells").glob("*.json"))
    assert names and names == sorted(fp.name for fp in (b / "cells").glob("*.json"))
    for rel in ["sweep.csv"] + [f"cells/{n}" for n in names]:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_run_determinism(tmp_path):
    """Two runs of one config give byte-identical sweep.csv and cell files."""
    cfg = write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "out"))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["run", str(cfg), "--out", str(out)]) == 0
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
    ray_path = tmp_path / "ray.txt"
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


def test_fibering_profile_empty_list_is_anchored(tmp_path, capsys):
    dom = build_domain(DomainSpec(Box((1.0, 1.0, 1.0)), 3, 9))
    ray_path = tmp_path / "ray.txt"
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
    ray_path = tmp_path / "ray.txt"
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


def test_nonexistence_cell_at_mu_zero_is_uncertified(tmp_path):
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


def test_annulus_run_with_multistart_and_minimax(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, ANNULUS_CONFIG.format(out=out))
    code = main(["run", str(cfg)])
    cell = json.loads((out / "cells" / "cell_0000.json").read_text())
    assert cell["status"] in ("ok", "uncertified"), cell["error"]
    assert code in (0, 1)
    assert len(cell["records"]) >= 2  # nplus, nminus, plus whatever multistart kept
    assert "minimax" in cell
    assert set(cell["minimax"]) >= {"found", "gamma_estimate", "window", "reason"}


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
