"""Span tracing for the benchmark's traced run.

The program carries no instrumentation of its own, so the traced run wraps
the public functions of every bnsolver module from here: each call becomes a
span (name, start, end, parent, trace id), kept in memory and written once
at the end.  A name is patched in every bnsolver module that imported it
(`solve.find_roots`, `cli.minimize_on_Nplus`, ... all point at one wrapper)
and restored by `Tracer.uninstall`.

Layers are the modules; a span is named `<module>.<function>`.  Self time is
a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("grid", "lift", "numutil", "functional", "nehari", "solve", "verify", "cli")

# Elementwise power helpers run inside every fibering kernel; a span around
# each call would cost more than the work it times.
SKIP = {"numutil.signed_pow", "numutil.abs_pow", "numutil.smoothstep"}

# Hot methods and constructors that carry layer work but are not module-level
# functions: (module, class, attribute) -> span name.
METHODS = {
    ("grid", "Domain", "h1_norm_sq"): "grid.h1_norm_sq",
    ("grid", "Domain", "apply_neg_laplacian"): "grid.apply_neg_laplacian",
    ("functional", "FiberingProfile", "__init__"): "functional.FiberingProfile",
    ("functional", "FiberingProfile", "T"): "functional.T",
    ("functional", "FiberingProfile", "dT"): "functional.dT",
    ("functional", "FiberingProfile", "d2T"): "functional.d2T",
    ("functional", "Params", "__init__"): "functional.Params",
}

# Spans whose self time is the fibering-map evaluation work.
FIBERING = ("functional.FiberingProfile", "functional.T", "functional.dT", "functional.d2T")


class Tracer:
    """Collects spans in memory; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.names = []  # span name per span
        self.start = []
        self.end = []
        self.parent = []
        self.trace = []
        self.failed = []
        self.attrs = {}  # span index -> {"label"|"iters"|"bytes"|...: value}
        self.stack = []
        self.trace_names = []
        self.trace_id = -1
        self._patches = []  # (owner, attribute, original, had_own_attribute)

    # -- spans ---------------------------------------------------------------

    def begin_trace(self, name):
        """Start a new trace id (one per CLI call or set-up)."""
        self.trace_names.append(name)
        self.trace_id = len(self.trace_names) - 1

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.trace.append(self.trace_id)
        self.end.append(float("nan"))
        self.failed.append(False)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i, ok):
        self.end[i] = time.perf_counter()
        self.stack.pop()
        if not ok:
            self.failed[i] = True

    def _wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._close(i, ok)
            if hook is not None:
                hook(tracer.attrs.setdefault(i, {}), args, kwargs, result)
            return result

        return traced

    def _count_iteration(self, _xk=None):
        if self.stack:
            a = self.attrs.setdefault(self.stack[-1], {})
            a["iters"] = a.get("iters", 0) + 1

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public function of the bnsolver modules, where it is
        defined and wherever it was imported, plus the METHODS table."""
        import bnsolver  # noqa: F401
        from bnsolver import numutil

        mods = {m: sys.modules[f"bnsolver.{m}"] for m in MODULES}
        importers = [mod for key, mod in sorted(sys.modules.items())
                     if key == "bnsolver" or key.startswith("bnsolver.")]
        for short, mod in mods.items():
            for attr, obj in sorted(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in SKIP):
                    continue
                wrapper = self._wrap(name, obj, HOOKS.get(name))
                for imp in importers:
                    for alias, val in list(vars(imp).items()):
                        if val is obj:
                            self._patch(imp, alias, wrapper)
        for (short, cls_name, attr), name in METHODS.items():
            cls = getattr(mods[short], cls_name)
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr], HOOKS.get(name)))

        # Count Krylov iterations through the solver callback; the iterate is
        # only observed, so the numerics are unchanged.
        def with_callback(solver):
            @functools.wraps(solver)
            def counted(*args, **kwargs):
                return solver(*args, callback=self._count_iteration, **kwargs)
            return counted

        self._patch(numutil, "_scipy_cg", with_callback(numutil._scipy_cg))
        self._patch(numutil, "_scipy_minres", with_callback(numutil._scipy_minres))

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ----------------------------------------------------------------

    def arrays(self):
        """The spans as parallel numpy arrays plus the name table."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        return {
            "name": np.array([index[n] for n in self.names], dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int64),
            "trace": np.array(self.trace, dtype=np.int32),
            "failed": np.array(self.failed, dtype=bool),
            "name_table": np.array(table),
            "trace_table": np.array(self.trace_names),
        }


# -- hooks: per-span attributes taken from arguments and results ---------------


def _solver_hook(attrs, args, kwargs, result):
    attrs["label"] = kwargs.get("label", "unlabelled").replace(" ", "_")
    attrs["unconverged"] = 0 if result[1] else 1
    attrs.setdefault("iters", 0)


# Certificate producers; their failed checks are summed into verify.checks_failed.
CERTIFIERS = ("verify.certify_solution", "verify.nonexistence_certificate",
              "verify.convexity_ball_check", "verify.threshold_report")


def _checks_failed(attrs, args, kwargs, certificate):
    attrs["checks_failed"] = len(certificate.failed())


HOOKS = {
    "numutil.solve_cg": _solver_hook,
    "numutil.solve_minres": _solver_hook,
    "grid.dump_field": lambda a, args, kw, r: a.update(bytes=os.path.getsize(args[1])),
    "grid.load_field": lambda a, args, kw, r: a.update(bytes=os.path.getsize(args[0])),
    "solve.multistart_Nminus": lambda a, args, kw, r: a.update(
        distinct=len(r), directions=len(args[1])),
    "solve.minimax_gamma": lambda a, args, kw, r: a.update(found=int(r.found)),
    "solve.estimate_mu_star": lambda a, args, kw, r: a.update(accepted=len(r[1])),
    **{name: _checks_failed for name in CERTIFIERS},
}


# -- analysis ------------------------------------------------------------------


def self_times(start, end, parent):
    """Duration of each span minus the union of its children's intervals
    (clipped to the span).  Parents must precede their children."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[int(p)].append(i)
    out = end - start
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        ivals = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in ivals:
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


def nearest_ancestor(names, parent, target):
    """For each span, the index of the closest enclosing span (itself
    included) named `target`, or -1."""
    anc = np.full(len(names), -1, dtype=np.int64)
    for i, (n, p) in enumerate(zip(names, parent)):
        if n == target:
            anc[i] = i
        elif p >= 0:
            anc[i] = anc[p]
    return anc


def layer_metrics(arrays, attrs, run_trace, run_s):
    """Per-layer metrics of one traced repetition.

    `arrays` is `Tracer.arrays()`, `attrs` the per-span attribute dict,
    `run_trace` the trace id of the `bnsolver run` call and `run_s` its wall
    time.  Counts and times cover every traced call of the repetition
    (set-up, run and certify); shares are of the run alone.
    """
    table = list(arrays["name_table"])
    names = [table[k] for k in arrays["name"]]
    start, end, parent = arrays["start"], arrays["end"], arrays["parent"]
    dur = end - start
    selfs = self_times(start, end, parent)
    in_run = arrays["trace"] == run_trace
    by_name = defaultdict(list)
    for i, n in enumerate(names):
        by_name[n].append(i)

    def idx(name):
        return np.array(by_name.get(name, []), dtype=np.int64)

    def calls(name):
        return len(by_name.get(name, []))

    def total(name, values=dur):
        ii = idx(name)
        return float(values[ii].sum()) if ii.size else 0.0

    def attr_sum(name, key):
        return sum(attrs.get(i, {}).get(key, 0) for i in by_name.get(name, []))

    m = {}
    for name in ("grid.build_domain", "grid.principal_eigenpair", "grid.estimate_sobolev_S",
                 "grid.dump_field", "grid.load_field", "lift.solve_lift",
                 "functional.energy", "functional.FiberingProfile", "functional.Params",
                 "nehari.classify", "solve.minimize_on_Nplus", "solve.minimize_on_Nminus",
                 "solve.ground_state", "solve.multistart_Nminus", "solve.minimax_gamma",
                 "solve.estimate_mu_star", "verify.certify_solution",
                 "verify.convexity_ball_check", "verify.nonexistence_certificate",
                 "verify.threshold_report", "grid.h1_norm_sq"):
        m[f"{name}.s"] = total(name)
    for name in ("grid.h1_norm_sq", "grid.apply_neg_laplacian", "functional.energy",
                 "functional.FiberingProfile", "functional.dT", "functional.d2T",
                 "functional.Params", "nehari.find_roots", "nehari.classify",
                 "solve.minimize_on_Nplus", "solve.minimize_on_Nminus", "solve.ground_state",
                 "solve.multistart_Nminus", "solve.minimax_gamma", "solve.estimate_mu_star",
                 "verify.certify_solution", "verify.nonexistence_certificate"):
        m[f"{name}.calls"] = calls(name)
    m["grid.dump_field.bytes"] = attr_sum("grid.dump_field", "bytes")
    m["grid.load_field.bytes"] = attr_sum("grid.load_field", "bytes")

    for solver in ("numutil.solve_cg", "numutil.solve_minres"):
        m[f"{solver}.calls"] = calls(solver)
        m[f"{solver}.s"] = total(solver)
        m[f"{solver}.iters"] = attr_sum(solver, "iters")
        m[f"{solver}.unconverged"] = attr_sum(solver, "unconverged")
    for label in ("riesz_lift", "eigensolve", "lift", "sobolev_descent"):
        ii = [i for i in by_name.get("numutil.solve_cg", [])
              if attrs.get(i, {}).get("label") == label]
        m[f"numutil.solve_cg.{label}.calls"] = len(ii)
        m[f"numutil.solve_cg.{label}.s"] = float(dur[ii].sum()) if ii else 0.0
        m[f"numutil.solve_cg.{label}.iters"] = sum(attrs[i].get("iters", 0) for i in ii)

    m["functional.fibering.self_s"] = sum(total(n, selfs) for n in FIBERING)

    fr = idx("nehari.find_roots")
    m["nehari.find_roots.calls"] = int(fr.size)
    m["nehari.find_roots.s"] = total("nehari.find_roots")
    m["nehari.find_roots.self_s"] = total("nehari.find_roots", selfs)
    fr_us = dur[fr] * 1e6 if fr.size else np.zeros(1)
    m["nehari.find_roots.p50_us"] = float(np.percentile(fr_us, 50))
    m["nehari.find_roots.p99_us"] = float(np.percentile(fr_us, 99))
    anc = nearest_ancestor(names, parent, "nehari.find_roots")
    dT_inside = sum(1 for i in by_name.get("functional.dT", []) if anc[i] >= 0)
    m["nehari.find_roots.dT_per_call"] = dT_inside / fr.size if fr.size else 0.0

    for name in ("solve.minimize_on_Nplus", "solve.minimize_on_Nminus"):
        m[f"{name}.failed"] = int(arrays["failed"][idx(name)].sum())
    directions = attr_sum("solve.multistart_Nminus", "directions")
    m["solve.multistart.distinct_ratio"] = (
        attr_sum("solve.multistart_Nminus", "distinct") / directions if directions else 0.0)
    m["solve.minimax.found"] = attr_sum("solve.minimax_gamma", "found")
    anc_mu = nearest_ancestor(names, parent, "solve.estimate_mu_star")
    plus_attempts = sum(1 for i in by_name.get("solve.minimize_on_Nplus", []) if anc_mu[i] >= 0)
    accepted = attr_sum("solve.estimate_mu_star", "accepted")
    m["solve.mu_star.accept_ratio"] = accepted / plus_attempts if plus_attempts else 0.0
    m["verify.checks_failed"] = sum(attr_sum(n, "checks_failed") for n in CERTIFIERS)

    m["cli.run.self_s"] = total("cli.run", selfs)
    m["cli.certify.self_s"] = total("cli.certify_cmd", selfs)

    # Shares of the traced run: self time per layer, and inclusive time of
    # the three heaviest kernels.
    run_idx = np.flatnonzero(in_run)
    layer_self = defaultdict(float)
    for i in run_idx:
        layer_self[names[i].split(".", 1)[0]] += selfs[i]
    for layer in MODULES:
        m[f"layer.{layer}.self_share"] = layer_self[layer] / run_s
    for name in ("numutil.solve_cg", "nehari.find_roots", "solve.minimize_on_Nplus"):
        ii = [i for i in by_name.get(name, []) if in_run[i]]
        m[f"{name}.run_share"] = float(dur[ii].sum()) / run_s if ii else 0.0
    # Share of the blocking path inside spans of the layers below cli.
    m["trace.coverage"] = 1.0 - layer_self["cli"] / run_s
    return m
