"""Tracer: wrappers at heisenmech module boundaries, spans and self time.

The benchmark installs every wrapper from outside the program and removes
them afterwards; nothing under src/ knows about tracing. A wrapper opens a
frame on entry and closes it on exit. Closing adds the frame's duration to
its parent's child time, so self time is duration minus the time its child
frames cover. A call nested directly inside a frame of the same name is
folded into that frame (group functions calling group functions count once).

Coarse layers (commands, integrations, sweeps, config and report I/O) are
also kept as spans: name, start, end, parent span and job. Hot layers, called
per step or per sample, are only counted, which keeps the traced run close
to the untraced one; `trace.overhead` reports what the tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

LIBRARY = ("group", "orbit", "connection", "magnetic", "dynamics",
           "reduction", "fd")
MODULES = LIBRARY + ("checks", "config", "report", "cli")

# Layer names for functions that share one metric; others are "<module>.<name>".
_GROUPED = {
    ("orbit", "magnetic_lie_poisson"): "orbit.bracket",
    ("orbit", "bracket_function"): "orbit.bracket",
    ("orbit", "product_function"): "orbit.bracket",
    ("orbit", "check_jacobi"): "orbit.bracket",
    ("orbit", "orbit_hamiltonian_vector_field"): "orbit.hamiltonian_field",
    ("dynamics", "rch_vector_field"): "dynamics.vector_field",
    ("dynamics", "hamiltonian_vector_field"): "dynamics.vector_field",
    ("reduction", "reduced_rch_field"): "reduction.reduced_field",
    ("reduction", "check_commutation"): "reduction.commutation",
    ("reduction", "kaluza_klein_system"): "reduction.kk",
    ("reduction", "kk_alpha_form_check"): "reduction.kk",
    ("reduction", "kk_reduce_and_compare"): "reduction.kk",
    ("reduction", "check_mr1"): "reduction.mr",
    ("reduction", "check_mr2_equivariance"): "reduction.mr",
    ("reduction", "check_mr3_matching"): "reduction.mr",
    ("reduction", "check_reduced_matching"): "reduction.mr",
}
_WHOLE_MODULE = ("group", "connection", "fd")

# Layers (by name prefix) kept as spans; every other layer is counted only.
COARSE = ("job", "cli.", "checks.", "dynamics.integrate",
          "reduction.reduce_system", "reduction.integrate_reduced",
          "reduction.commutation", "reduction.kk", "reduction.mr",
          "config.parse", "report.to_json")


def layer_name(module: str, name: str) -> str:
    if module in _WHOLE_MODULE:
        return module
    return _GROUPED.get((module, name), f"{module}.{name}")


class Tracer:
    """Frame stack, per-layer totals, plain counters and recorded spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # frame: [name, start, child_s, span id, parent span id]; a frame that
        # is not kept as a span carries its nearest recorded ancestor's id.
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent, name, job, start, end)
        self.job: str | None = None
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    # -- frames -----------------------------------------------------------
    def open(self, name: str) -> list | None:
        stack = self.stack
        if stack and stack[-1][0] == name:
            return None
        parent_span = stack[-1][3] if stack else None
        span_id = (len(self.spans) + 1 if name.startswith(COARSE)
                   else parent_span)
        frame = [name, self.clock(), 0.0, span_id, parent_span]
        if span_id != parent_span:
            self.spans.append(None)  # reserve the id; filled on close
        stack.append(frame)
        return frame

    def close(self, frame: list | None) -> None:
        if frame is None:
            return
        end = self.clock()
        self.stack.pop()
        name, start, child, span_id, parent_span = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if span_id != parent_span:
            self.spans[span_id - 1] = (span_id, parent_span, name, self.job,
                                       start, end)

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    # -- wrappers ---------------------------------------------------------
    def wrap(self, fn, name: str):
        """fn with a frame around every call; one wrapper per function."""
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        self._wrappers[key] = wrapper
        return wrapper

    def _counting_fd(self, fn):
        """fd helper that also counts evaluations of the function it samples.

        fd helpers calling each other (one_form_curl -> jacobian) count once.
        """
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def with_counted_f(f, *args, **kwargs):
            if stack and stack[-1][0] == "fd":
                return fn(f, *args, **kwargs)

            def counted(*a, **k):
                counts["fd.f_evals"] += 1
                return f(*a, **k)

            return fn(counted, *args, **kwargs)

        return with_counted_f

    def _counting_step(self, fn, prefix: str, rhs_name: str):
        """Integrator step that counts steps and its vector-field calls."""
        counts, open_, close = self.counts, self.open, self.close
        steps_key, rhs_key = prefix + ".steps", prefix + ".step_rhs"

        @functools.wraps(fn)
        def step(rhs, *args, **kwargs):
            counts[steps_key] += 1

            def counted(y):
                counts[rhs_key] += 1
                frame = open_(rhs_name)
                try:
                    return rhs(y)
                finally:
                    close(frame)

            return fn(counted, *args, **kwargs)

        return step

    def _boundary(self, fn, name: str):
        if name != "fd":
            return self.wrap(fn, name)
        key = ("fd", id(fn))
        if key not in self._wrappers:
            self._wrappers[key] = self._counting_fd(self.wrap(fn, name))
        return self._wrappers[key]

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap heisenmech at its module boundaries (see the module docstring)."""
        mods = {m: importlib.import_module(f"heisenmech.{m}") for m in MODULES}
        by_id = {}
        for short in LIBRARY:
            module = mods[short]
            public = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")]
            for name in public:
                fn = vars(module).get(name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    by_id[id(fn)] = layer_name(short, name)
        # Imported bindings: every name a module imports from another
        # heisenmech module.
        for short, module in mods.items():
            for name, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ != module.__name__
                        and fn.__module__.startswith("heisenmech.")):
                    defined = fn.__module__.rsplit(".", 1)[1]
                    by_id.setdefault(id(fn), layer_name(defined, name))
        step_names = {"dynamics": "dynamics.vector_field",
                      "reduction": "reduction.reduced_field"}
        for short, module in mods.items():
            for name, fn in list(vars(module).items()):
                if name in ("_midpoint_step", "_rk4_step") and short in step_names:
                    self._patch(module, name, self._counting_step(
                        fn, short, step_names[short]))
                elif inspect.isfunction(fn) and id(fn) in by_id:
                    self._patch(module, name, self._boundary(fn, by_id[id(fn)]))
        checks = mods["checks"].CHECKS
        for name, fn in list(checks.items()):
            self._patch(checks, name, self.wrap(fn, f"checks.{name}"))
        self._patch(mods["cli"], "_write_csv",
                    self.wrap(mods["cli"]._write_csv, "cli.csv"))
        orbit_function = mods["orbit"].OrbitFunction
        self._patch(orbit_function, "grad",
                    self.wrap(orbit_function.grad, "orbit.function_grad"))
        report = mods["report"].InvariantReport
        self._patch(report, "to_json", self.wrap(report.to_json, "report.to_json"))
        config = mods["config"].ExperimentConfig
        from_path = config.__dict__["from_path"].__func__
        self._patch(config, "from_path",
                    classmethod(self.wrap(from_path, "config.parse")))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._wrappers.clear()

    # -- results ----------------------------------------------------------
    def per_job(self, jobs: int) -> dict[str, dict]:
        """Per-layer calls, total and self time averaged per job."""
        out = {}
        for name, (calls, total, self_s) in sorted(self.stats.items()):
            out[name] = {"calls": calls / jobs, "total_s": total / jobs,
                         "self_s": self_s / jobs,
                         "us_per_call": 1e6 * total / calls}
        return out

    def write(self, path: Path, extra: dict) -> None:
        payload = dict(extra)
        payload["counts"] = dict(self.counts)
        payload["stats"] = {name: {"calls": c, "total_s": t, "self_s": s}
                            for name, (c, t, s) in sorted(self.stats.items())}
        payload["spans"] = [dict(zip(("id", "parent", "name", "job", "start",
                                      "end"), span)) for span in self.spans]
        path.write_text(json.dumps(payload) + "\n")
