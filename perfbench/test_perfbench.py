"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402

probe.pin_threads()
SRC = probe.source_dir(HERE.parent)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BUNDLED = SRC / "heisenmech" / "configs"


@pytest.fixture
def work():
    """A scratch directory inside the checkout, like the benchmark's own."""
    root = HERE.parent / ".perfbench"
    root.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=root))
    yield path
    shutil.rmtree(path, ignore_errors=True)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.job = "0:synthetic"
    with tracer.span("job"):              # 0 .. 10
        clock.now = 1.0
        with tracer.span("dynamics.integrate"):   # 1 .. 7
            clock.now = 2.0
            with tracer.span("dynamics.vector_field"):  # 2 .. 4, counted only
                clock.now = 3.0
                with tracer.span("group"):        # 3 .. 3.5
                    clock.now = 3.5
                    with tracer.span("group"):    # folded into the outer one
                        clock.now = 3.5
                clock.now = 4.0
            clock.now = 5.0
            with tracer.span("dynamics.vector_field"):  # 5 .. 6
                clock.now = 6.0
            clock.now = 7.0
        clock.now = 10.0
    stats = tracer.per_job(1)
    assert stats["job"]["self_s"] == 4.0
    assert stats["dynamics.integrate"]["total_s"] == 6.0
    assert stats["dynamics.integrate"]["self_s"] == 3.0
    assert stats["dynamics.vector_field"]["calls"] == 2
    assert stats["dynamics.vector_field"]["self_s"] == 2.5
    assert stats["dynamics.vector_field"]["us_per_call"] == 1.5e6
    assert stats["group"]["calls"] == 1
    assert stats["group"]["self_s"] == 0.5
    # Only coarse layers are kept as spans, each with its parent and job.
    assert [(s[0], s[1], s[2], s[3], s[4], s[5]) for s in tracer.spans] == [
        (1, None, "job", "0:synthetic", 0.0, 10.0),
        (2, 1, "dynamics.integrate", "0:synthetic", 1.0, 7.0)]
    assert tracer.stack == []


def test_host_speed_scaling():
    assert probe.HostSpeed.scale(2.0, probe.REF_NOMINAL_S,
                                 probe.REF_NOMINAL_S) == 2.0
    # A host running the kernel at half speed halves the scaled time.
    slow = 2 * probe.REF_NOMINAL_S
    assert probe.HostSpeed.scale(2.0, slow, slow) == 1.0
    assert probe.HostSpeed.scale(3.0, slow, 2 * slow) == 1.0


def test_install_and_uninstall_restore_every_binding():
    import heisenmech.cli as cli
    import heisenmech.dynamics as dyn
    import heisenmech.reduction as red
    from heisenmech.checks import CHECKS
    from heisenmech.config import ExperimentConfig

    before = (cli.reduce_system, red.level_lift, dyn.momentum_map,
              red.orbit_hamiltonian_vector_field, dyn._midpoint_step,
              dict(CHECKS), ExperimentConfig.__dict__["from_path"])
    tracer = Tracer()
    tracer.install()
    try:
        assert red.level_lift is not before[1]
        assert dyn.momentum_map is not before[2]
    finally:
        tracer.uninstall()
    after = (cli.reduce_system, red.level_lift, dyn.momentum_map,
             red.orbit_hamiltonian_vector_field, dyn._midpoint_step,
             dict(CHECKS), ExperimentConfig.__dict__["from_path"])
    assert all(a is b for a, b in zip(before[:5], after[:5]))
    assert before[5] == after[5] and before[6] is after[6]


def _snapshot(workload, seed, work):
    work = work / f"{workload}-{seed}"
    jobs = workloads.generate(workload, seed, BUNDLED, work)
    files = {str(p.relative_to(work)): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    shape = [[dataclasses.replace(c, argv=tuple(
        a.replace(str(work), "") for a in c.argv)) for c in job.calls]
        for job in jobs]
    return files, shape


def test_generator_is_a_function_of_the_seed(work):
    for workload in workloads.WORKLOADS:
        first = _snapshot(workload, 11, work / "a")
        again = _snapshot(workload, 11, work / "b")
        other = _snapshot(workload, 12, work / "c")
        assert first == again
        assert first[0] != other[0]


def test_oracle_flags_a_wrong_expected_exit_code(work):
    from heisenmech import cli

    jobs = workloads.generate("certify", 3, BUNDLED, work)
    mr_identity = next(c for c in jobs[0].calls if c.out == "mr_identity")
    job = workloads.Job("mr", (mr_identity,))
    host = probe.HostSpeed()
    assert oracle.run_job(job, work / "out", cli.main, host).ok
    wrong = workloads.Job("mr", (dataclasses.replace(mr_identity, exit_code=1),))
    result = oracle.run_job(wrong, work / "out", cli.main, host)
    assert not result.ok and result.wrong == ["mr/mr_identity: exit 0, expected 1"]
    flipped = workloads.Job("mr", (dataclasses.replace(
        mr_identity, records=(("mr1.symplectic", False),)),))
    result = oracle.run_job(flipped, work / "out", cli.main, host)
    assert result.wrong == ["mr/mr_identity: mr1.symplectic PASS"]


def test_traced_and_untraced_runs_write_identical_outputs(work):
    from heisenmech import cli

    job = workloads.generate("flow", 5, BUNDLED, work)[0]
    host = probe.HostSpeed()
    plain = oracle.run_job(job, work / "plain", cli.main, host)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.closed_loop([job], 0, work / "traced", cli.main, host,
                                 tracer, count=1)[0]
    finally:
        tracer.uninstall()
    assert plain.ok and traced.ok
    assert oracle.compare_outputs(job, work / "plain",
                                  work / "traced", "traced") == []
    assert tracer.counts["dynamics.steps"] == 15000
    assert tracer.stats["cli.csv"][0] == 3


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        run.per_layer_names())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
