"""bnsolver benchmark: `bnsolver run` plus `bnsolver certify` on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Generates the workload config from
the seed, then runs repetitions, each in a fresh Python process
(bench/rep.py), one after another (a closed loop with one client), until the
next one would overrun S seconds.  Every repetition's outputs pass through
the correctness gate (bench/gate.py).  Prints a report, then as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (see ESTIMATOR);
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (bench/tracing.py) plus the tracing
overhead.  Run files go to .bench_work/ in the checkout; the per-run results
(environment, samples, metrics) are kept in .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

# Single-threaded everywhere: the cell pool and the BLAS/OpenMP pools.
PINS = {"BNSOLVER_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}

# Every invocation must end within this many seconds, repetitions included.
HARD_LIMIT_S = 170.0

# The statistic each end-to-end metric reports over the samples of one
# invocation.  On the 2-core VM the benchmark was tuned on, CPU speed
# alternates every few seconds between a fast state and one about 40% slower;
# with such a two-state mix the mean of a few long samples is steadier than
# their median (IQR/median of run_s over ten seeds on annulus-multiplicity:
# 0.08 against 0.13).  Set-up has many short samples per invocation and keeps
# the median.
ESTIMATOR = {"run_s": "mean", "setup_s": "median", "certify_s": "mean",
             "peak_rss_mb": "median"}

# The metrics the result line carries, with their units, are those listed in
# BENCHMARK.json; the report prints every metric measured.
SPEC_FILE = ROOT / "BENCHMARK.json"


def child_env():
    """Environment of a repetition: the thread pins and the checkout's sources."""
    env = dict(os.environ)
    env.update(PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _environment(loadavg, first_rep):
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        **first_rep["versions"],
        "thread_pins": PINS,
        "load_shape": "closed loop, 1 client, 1 process per repetition, phases sequential",
    }


def repetition(workdir, k, config, env, deadline, trace_file=None):
    out = workdir / f"rep{k}"
    result = workdir / f"rep{k}.json"
    cmd = [sys.executable, str(HERE / "rep.py"), str(config), str(out), str(result)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for a repetition")
    proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {k} exited with {proc.returncode}:\n{proc.stderr}")
    with open(result) as f:
        data = json.load(f)
    shutil.rmtree(out)
    return data


def _summary(values):
    values = sorted(values)
    return {"median": statistics.median(values), "mean": statistics.fmean(values),
            "n": len(values), "min": values[0], "max": values[-1]}


def _report_gate(reps, ref):
    """(attempted, failed, first problems) over all repetitions."""
    attempted = failed = 0
    problems = []
    first = reps[0]["observation"]
    for k, rep in enumerate(reps):
        ops = gate.operations(rep["observation"], ref=ref, first=first)
        a, f = gate.count(ops)
        attempted += a
        failed += f
        problems += [f"rep {k} {name}: {'; '.join(p)}" for name, p in sorted(ops.items()) if p]
    return attempted, failed, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bnsolver" / "cli.py").is_file():
        print(f"error: no bnsolver sources under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC_FILE) as f:
        spec = json.load(f)
    ref = None
    if args.seed == 0:
        with open(HERE / "reference" / f"{args.workload}.json") as f:
            ref = json.load(f)

    loadavg = list(os.getloadavg())
    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    env = child_env()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        config = workdir / "config.ini"
        config.write_text(make_config(args.workload, args.seed))
        trace_file = WORK / f"spans-{args.workload}.npz"
        plain, traced = [], []
        while True:
            t0 = time.monotonic()
            plain.append(repetition(workdir, len(plain) + len(traced), config, env, deadline))
            if args.trace:
                traced.append(repetition(workdir, len(plain) + len(traced), config, env,
                                          deadline, trace_file=trace_file))
            step = time.monotonic() - t0
            now = time.monotonic() - t_start
            if now + step > min(args.seconds, HARD_LIMIT_S - 10.0):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    environment = _environment(loadavg, plain[0])
    attempted, failed, problems = _report_gate(plain + traced, ref)
    samples = {
        "run_s": [r["run_s"] for r in plain],
        "setup_s": [s for r in plain for s in r["setup_s"]],
        "certify_s": [s for r in plain for s in r["certify_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    summaries = {name: _summary(v) for name, v in samples.items()}
    if args.trace:
        layer_names = traced[0]["layers"].keys()
        # median_low keeps every value one that was measured (counts stay whole).
        metrics = {name: statistics.median_low(r["layers"][name] for r in traced)
                   for name in layer_names}
        traced_run = statistics.median_low(r["run_s"] for r in traced)
        untraced_run = statistics.median_low(samples["run_s"])
        metrics["trace.overhead_s"] = traced_run - untraced_run
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced_run
    else:
        metrics = {name: s[ESTIMATOR[name]] for name, s in summaries.items()}
    listed = spec["per_layer" if args.trace else "end_to_end"]

    w = WORKLOADS[args.workload]
    print(f"bnsolver benchmark: workload {w.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"  why: {w.why}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"  repetitions: {len(plain)} untraced, {len(traced)} traced")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, s in summaries.items():
        print(f"  {name:12s} {ESTIMATOR[name]} {s[ESTIMATOR[name]]:.6g} {units[name]}"
              f"  n={s['n']}  median {s['median']:.6g}  mean {s['mean']:.6g}"
              f"  min {s['min']:.6g}  max {s['max']:.6g}")
    print(f"  fail_frac    {failed / attempted:.6g} ratio  ({failed} failed of {attempted} "
          "operations: record, nonexistence and re-certified certificates, mu* estimates)")
    for line in problems[:20]:
        print(f"  FAIL {line}")
    if args.trace:
        for name in sorted(metrics):
            print(f"  {name:45s} {metrics[name]:.6g} {layer_unit(name)}")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"workload": w.name, "why": w.why, "seed": args.seed,
                   "seconds": args.seconds, "environment": environment,
                   "samples": samples, "summaries": summaries, "metrics": metrics,
                   "attempted": attempted, "failed": failed, "problems": problems}, f, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


def layer_unit(name):
    """Unit of a per-layer metric, from its name's last component."""
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last.endswith("_us"):
        return "us"
    if last == "bytes":
        return "bytes"
    if last in ("calls", "iters", "unconverged", "failed", "iterations", "found",
                "checks_failed"):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
