"""heisenmech benchmark: CLI workloads, end-to-end metrics, per-module trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 12 --trace 0

One process and one client drive `heisenmech.cli.main` in-process in a
closed loop over a pool of jobs generated from --seed (see workloads.py).
The loop runs whole passes over the pool until --seconds have elapsed.
A first job, untimed, warms the process up and is the reference for the
same-seed rerun check.

--trace 0 prints the end-to-end metrics of an untraced run. --trace 1 runs
the loop untraced for half of --seconds, then the same jobs traced, checks
that both wrote byte-identical outputs, and prints the per-module metrics,
averaged per job. Times are scaled to nominal host speed (probe.HostSpeed).
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. --workload all runs every workload both ways.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probe

probe.pin_threads()

import oracle  # noqa: E402  (numpy must load after the thread pins)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_LAUNCHES = 7

CHECK_NAMES = ("group_axioms", "representations", "bracket", "orbit_form",
               "connection", "dynamics", "momentum_shift", "noether_reduction",
               "kaluza_klein", "mr_identity")

END_TO_END = (("setup_s", "s"), ("job_s.p50", "s"),
              ("samples_per_s", "samples/s"), ("peak_rss_mb", "MB"))

# (layer, fields) read from the tracer's per-job statistics.
LAYER_FIELDS = (
    ("dynamics.integrate", ("calls", "self_s")),
    ("dynamics.vector_field", ("calls", "self_s", "us_per_call")),
    ("magnetic.momentum_map", ("calls", "self_s")),
    ("orbit.function_grad", ("calls", "self_s")),
    ("fd", ("calls", "self_s")),
    ("magnetic.level_lift", ("calls", "self_s")),
    ("magnetic.sample_level_point", ("calls",)),
    ("reduction.reduced_field", ("calls", "self_s", "us_per_call")),
    ("orbit.hamiltonian_field", ("calls", "self_s")),
    ("reduction.reduce_system", ("self_s",)),
    ("reduction.commutation", ("self_s",)),
    ("reduction.kk", ("self_s",)),
    ("reduction.mr", ("self_s",)),
    ("group", ("calls", "self_s")),
    ("connection", ("calls", "self_s")),
    ("orbit.bracket", ("calls", "self_s")),
)
# Whole-span time per job: metric name -> layer.
LAYER_TOTALS = {f"checks.{name}.s": f"checks.{name}" for name in CHECK_NAMES}
LAYER_TOTALS.update({"config.parse_s": "config.parse",
                     "report.to_json_s": "report.to_json",
                     "cli.csv_s": "cli.csv"})
FIELD_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{layer}.{f}", FIELD_UNITS[f]) for layer, fs in LAYER_FIELDS
             for f in fs]
    names += [("dynamics.steps", "count"), ("dynamics.rhs_per_step", "rhs/step"),
              ("reduction.rhs_per_step", "rhs/step"), ("fd.f_evals", "count")]
    names += [(name, "s") for name in LAYER_TOTALS]
    names.append(("trace.overhead", "ratio"))
    return names


# -- running ----------------------------------------------------------------
def closed_loop(jobs, seconds, out_root, main, host, tracer=None, count=None):
    """Run jobs in order, cycling the pool, until whole passes fill `seconds`.

    With count given, run exactly that many jobs instead.
    """
    results = []
    start = time.perf_counter()
    around = ((lambda call: tracer.span(f"cli.{call.argv[0]}")) if tracer
              else lambda call: contextlib.nullcontext())
    while (len(results) < count if count is not None else
           time.perf_counter() - start < seconds or len(results) % len(jobs)):
        job = jobs[len(results) % len(jobs)]
        if tracer is not None:
            tracer.job = f"{len(results)}:{job.name}"
        with tracer.span("job") if tracer else contextlib.nullcontext():
            results.append(oracle.run_job(job, out_root, main, host, around))
    return results


def timed(results):
    """Jobs whose timings count: the ones with the expected outcome (all
    jobs only when every one failed, so a result can still be printed)."""
    ok = [r for r in results if r.ok]
    return ok or results


def tail(seconds: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten jobs beyond it (20+ jobs)."""
    n = len(seconds)
    if n < 20:
        return None
    rank = n - 10
    return math.floor(100 * rank / n), sorted(seconds)[rank - 1]


def end_to_end(results, host, src) -> tuple[dict, list[str]]:
    """End-to-end metrics; times are scaled to nominal host speed."""
    ok = timed(results)
    scaled = [r.scaled for r in ok]
    setup_host = probe.HostSpeed()
    setup = probe.setup_seconds(src, SETUP_LAUNCHES, setup_host)
    values = {"setup_s": statistics.median(s for _, s in setup),
              "job_s.p50": statistics.median(scaled),
              "samples_per_s": statistics.median(r.samples / r.scaled
                                                 for r in ok),
              "peak_rss_mb": probe.peak_rss_mb()}
    notes = [f"jobs timed {len(ok)} of {len(results)} attempted; "
             f"setup launches {len(setup)}",
             f"host speed factor {host.factor()!r}; as measured: job_s.p50 "
             f"{statistics.median(r.seconds for r in ok)!r} s, setup_s "
             f"{statistics.median(m for m, _ in setup)!r} s",
             "job seconds (measured/scaled): " + " ".join(
                 f"{r.job}={r.seconds:.3f}/{r.scaled:.3f}" for r in results)]
    steps = sum(r.steps for r in ok)
    if steps:
        notes.append(f"steps_per_s = {steps / sum(scaled)!r} steps/s")
    spot = tail(scaled)
    if spot is None:
        notes.append(f"job_s.tail omitted: {len(ok)} jobs timed, fewer than 20")
    else:
        notes.append(f"job_s.tail = job_s.p{spot[0]} = {spot[1]!r} s "
                     f"({len(ok)} jobs)")
    return values, notes


def layer_metrics(tracer: Tracer, jobs: int, overhead: float,
                  factor: float) -> dict:
    """Per-job layer metrics; times are scaled by the traced run's host factor."""
    stats = tracer.per_job(jobs)
    counts = tracer.counts
    values = {}
    for layer, fields in LAYER_FIELDS:
        for f in fields:
            value = stats.get(layer, {}).get(f, 0.0)
            values[f"{layer}.{f}"] = value if f == "calls" else value * factor
    for metric, layer in LAYER_TOTALS.items():
        values[metric] = stats.get(layer, {}).get("total_s", 0.0) * factor
    values["dynamics.steps"] = counts["dynamics.steps"] / jobs
    values["dynamics.rhs_per_step"] = (counts["dynamics.step_rhs"]
                                       / max(1, counts["dynamics.steps"]))
    values["reduction.rhs_per_step"] = (counts["reduction.step_rhs"]
                                        / max(1, counts["reduction.steps"]))
    values["fd.f_evals"] = counts["fd.f_evals"] / jobs
    values["trace.overhead"] = overhead
    return values


def run_workload(args) -> dict:
    src = probe.source_dir(ROOT)
    from heisenmech import cli

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        jobs = workloads.generate(args.workload, args.seed,
                                  src / "heisenmech" / "configs", work)
        host = probe.HostSpeed()
        warm = oracle.run_job(jobs[0], work / "ref", cli.main, host)
        # A traced run spends half its time untraced, half traced.
        results = closed_loop(jobs, args.seconds / (1 + args.trace),
                              work / "out", cli.main, host)
        wrong = warm.wrong + [w for r in results for w in r.wrong]
        wrong += oracle.compare_outputs(jobs[0], work / "ref", work / "out",
                                        "same-seed rerun")
        notes = [f"pool {len(jobs)} jobs, {len(results)} timed jobs run"]
        if args.trace:
            tracer, traced_host = Tracer(), probe.HostSpeed()
            tracer.install()
            try:
                traced = closed_loop(jobs, 0, work / "traced", cli.main,
                                     traced_host, tracer, count=len(results))
            finally:
                tracer.uninstall()
            wrong += [w for r in traced for w in r.wrong]
            for job in jobs:
                wrong += oracle.compare_outputs(job, work / "out",
                                                work / "traced", "traced run")
            overhead = (statistics.median(r.scaled for r in timed(traced))
                        / statistics.median(r.scaled for r in timed(results))
                        - 1.0)
            metrics = layer_metrics(tracer, len(traced), overhead,
                                    traced_host.factor())
            units = dict(per_layer_names())
            trace_file = scratch / f"trace-{args.workload}-{args.seed}.json"
            tracer.write(trace_file, {"workload": args.workload,
                                      "seed": args.seed, "jobs": len(traced)})
            notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
        else:
            metrics, more = end_to_end(results, host, src)
            notes += more
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for r in results for f in r.failures]
    failed = sum(not r.ok for r in results)
    notes.append(f"fail_ratio = {failed / len(results)!r} "
                 f"({failed} of {len(results)} jobs)")
    return {"metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
            "notes": notes, "failures": failures, "wrong": wrong,
            "correct": not wrong, "attempted": len(results), "failed": failed}


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined, status = {}, 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode:
                status = done.returncode
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            combined.setdefault(workload, {})["trace" if trace else "e2e"] = result
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + json.dumps(probe.environment()))
    for line in result["notes"] + result["failures"] + result["wrong"]:
        print(f"  {line}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
