"""Regenerate the gate's reference outputs from the current sources.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs one untraced repetition of each workload at seed 0 and stores its
observation (see gate.observe) in bench/reference/<workload>.json.  Only run
this when the outputs are meant to change; the gate compares every later
repetition at seed 0 against these files.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
from workloads import WORKLOADS, make_config


def main(names):
    env = run.child_env()
    run.WORK.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workdir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.WORK))
        try:
            config = workdir / "config.ini"
            config.write_text(make_config(name, 0))
            rep = run.repetition(workdir, 0, config, env, time.monotonic() + 600.0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        obs = rep["observation"]
        obs["certify"] = obs["certify"][:1]
        ops = run.gate.operations(obs)
        attempted, failed = run.gate.count(ops)
        if failed:
            raise SystemExit(f"{name}: {failed} of {attempted} operations failed; "
                             "not storing a failing reference")
        with open(run.HERE / "reference" / f"{name}.json", "w") as f:
            json.dump(obs, f, indent=1)
        print(f"{name}: {attempted} operations stored")


if __name__ == "__main__":
    main(sys.argv[1:])
