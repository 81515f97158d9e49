"""One benchmark repetition, run in a fresh Python process by run.py.

    python3 bench/rep.py CONFIG OUT_DIR RESULT_JSON [--trace SPANS_NPZ]

Times the set-up (build_domain + compute_spectral_data + solve_lift), then
`bnsolver run CONFIG` and passes of `bnsolver certify` over every cell file
with records, all in-process through `cli.main`.  Writes the timings, the
peak RSS and the gated outputs to RESULT_JSON.  With --trace, every call is
traced (one set-up and one certify pass, so counts repeat exactly), the
spans are written to SPANS_NPZ and the per-layer metrics added.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

T_IMPORT = time.perf_counter()
import bnsolver.cli as cli  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from bnsolver import grid, lift  # noqa: E402

IMPORT_S = time.perf_counter() - T_IMPORT

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gate  # noqa: E402
import tracing  # noqa: E402

# Untraced repetitions repeat the short phases until there are MIN_SAMPLES
# samples that took the phase's minimum seconds in total.  The host's speed
# changes every few seconds, so a longer certify phase averages more of it;
# set-up only needs enough samples for a median.
MIN_SAMPLES = 2
MIN_SETUP_S = 0.5
MIN_CERTIFY_S = 1.0

_CERT_VERDICT = re.compile(r"^overall: (PASS|FAIL)$", re.M)


def _quiet_main(argv):
    """cli.main with its standard output captured; (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _setup(config):
    rc = cli.parse_config(config)
    t = time.perf_counter()
    domain = grid.build_domain(rc.domain_spec)
    grid.compute_spectral_data(domain)
    lift.solve_lift(rc.boundary, domain)
    return time.perf_counter() - t, None


def _certify_pass(cell_files):
    """One `bnsolver certify` per cell file; (seconds, {index: (exit, verdicts)})."""
    results = {}
    t = time.perf_counter()
    for index, fp in cell_files:
        code, text = _quiet_main(["certify", str(fp)])
        results[index] = (code, [v == "PASS" for v in _CERT_VERDICT.findall(text)])
    return time.perf_counter() - t, results


def _repeat(phase, traced, min_seconds):
    """(seconds, payload) samples of `phase()`: once when traced, else until
    there are MIN_SAMPLES of them and they took `min_seconds` in total."""
    samples = [phase()]
    while not traced and (len(samples) < MIN_SAMPLES
                          or sum(s for s, _ in samples) < min_seconds):
        samples.append(phase())
    return samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("out_dir")
    ap.add_argument("result")
    ap.add_argument("--trace", default=None, help="write spans here and trace every call")
    args = ap.parse_args(argv)
    traced = args.trace is not None

    tracer = tracing.Tracer() if traced else None
    if traced:
        tracer.install()
        tracer.begin_trace("setup")
    setup = _repeat(lambda: _setup(args.config), traced, MIN_SETUP_S)

    if traced:
        tracer.begin_trace("run")
    t = time.perf_counter()
    run_exit, _ = _quiet_main(["run", args.config, "--out", args.out_dir])
    run_s = time.perf_counter() - t
    run_trace = tracer.trace_id if traced else None

    out = Path(args.out_dir)
    cell_files = []
    for fp in sorted((out / "cells").glob("cell_*.json")):
        if "_field_" not in fp.name:
            with open(fp) as f:
                cell = json.load(f)
            if cell["records"]:
                cell_files.append((cell["index"], fp))
    if traced:
        tracer.begin_trace("certify")
    passes = _repeat(lambda: _certify_pass(cell_files), traced, MIN_CERTIFY_S)

    result = {
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "import_s": IMPORT_S,
        "setup_s": [s for s, _ in setup],
        "run_s": run_s,
        "certify_s": [s for s, _ in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "observation": gate.observe(out, run_exit, [r for _, r in passes]),
    }
    if traced:
        tracer.uninstall()
        spans = tracer.arrays()
        np.savez(args.trace, **spans)
        layers = tracing.layer_metrics(spans, tracer.attrs, run_trace, run_s)
        layers["cli.output.bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        layers["cli.import.s"] = IMPORT_S
        layers["solve.nplus.iterations"] = sum(
            r["iterations"] for c in result["observation"]["cells"]
            for r in c["records"] if r["class"] == "PLUS")
        result["layers"] = layers
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
