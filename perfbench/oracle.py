"""Job runner and outcome oracle.

A job runs its CLI invocations in-process through `heisenmech.cli.main`;
its time is the sum of the invocations' times. The oracle then compares each invocation with the outcome
the generator recorded for it. An exit code of 3 where 0 was expected is a
numerical failure the program reported itself (a failed job); any other
mismatch, a missing or malformed output, or a same-input rerun that is not
byte-identical is a wrong result and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from probe import HostSpeed
from workloads import Call, Job

NUMERICAL_FAILURE = 3


@dataclass
class JobResult:
    job: str
    seconds: float  # measured wall time of the job's calls
    scaled: float  # the same at nominal host speed (see probe.HostSpeed)
    exits: list[int]
    samples: int = 0
    steps: int = 0
    failures: list[str] = field(default_factory=list)  # numerical failures
    wrong: list[str] = field(default_factory=list)  # wrong results

    @property
    def ok(self) -> bool:
        return not self.failures and not self.wrong


def call_out(call: Call, out_root: Path, job: Job) -> Path:
    return out_root / job.name / call.out


def run_job(job: Job, out_root: Path, main: Callable[[list[str]], int],
            host: HostSpeed,
            around: Callable[[Call], contextlib.AbstractContextManager]
            = lambda call: contextlib.nullcontext()) -> JobResult:
    """Run every invocation of the job; its time is the sum of theirs.

    Output directories are emptied first (untimed), so nothing a previous
    job wrote can be read back as this job's output. The host-speed kernel
    runs between invocations, outside the timed intervals. The program's
    console output is captured; the oracle reads the files it writes.
    """
    for call in job.calls:
        shutil.rmtree(call_out(call, out_root, job), ignore_errors=True)
    argvs = [list(call.argv) + ["--out", str(call_out(call, out_root, job))]
             for call in job.calls]
    exits = []
    seconds = scaled = 0.0
    sink = io.StringIO()
    before = host.sample()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for call, argv in zip(job.calls, argvs):
            start = time.perf_counter()
            with around(call):
                exits.append(main(argv))
            took = time.perf_counter() - start
            after = host.sample()
            seconds += took
            scaled += host.scale(took, before, after)
            before = after
    result = JobResult(job.name, seconds, scaled, exits)
    judge(job, out_root, result)
    return result


def _csv_rows(path: Path) -> int:
    with open(path) as handle:
        return sum(1 for _ in handle) - 1


def judge(job: Job, out_root: Path, result: JobResult) -> None:
    """Fill in samples, steps, failures and wrong results of a finished job."""
    for call, code in zip(job.calls, result.exits):
        where = f"{job.name}/{call.out}"
        if code != call.exit_code:
            if code == NUMERICAL_FAILURE and call.exit_code == 0:
                result.failures.append(f"{where}: exit 3 (numerical failure)")
            else:
                result.wrong.append(f"{where}: exit {code}, expected "
                                    f"{call.exit_code}")
            continue
        if code not in (0, 1):
            continue
        out = call_out(call, out_root, job)
        try:
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError) as exc:
            result.wrong.append(f"{where}: unreadable report ({exc})")
            continue
        checks = report.get("checks", [])
        expected = dict(call.records)
        statuses = {record["name"]: record["passed"] for record in checks}
        if not checks or (code == 0) != report.get("passed"):
            result.wrong.append(f"{where}: report status disagrees with exit")
        for name, passed in statuses.items():
            if passed != expected.get(name, True):
                result.wrong.append(f"{where}: {name} "
                                    f"{'PASS' if passed else 'FAIL'}")
        for name in expected.keys() - statuses.keys():
            result.wrong.append(f"{where}: record {name} missing")
        result.samples += sum(int(record["samples"]) for record in checks)
        if call.trajectory is not None:
            rows = _csv_rows(out / call.trajectory)
            if rows < 2:
                result.wrong.append(f"{where}: trajectory has {rows} rows")
            result.steps += rows - 1


def output_files(job: Job, out_root: Path) -> dict[str, bytes]:
    """Every file the job wrote, keyed by its path below the job directory."""
    root = out_root / job.name
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def compare_outputs(job: Job, root_a: Path, root_b: Path,
                    what: str) -> list[str]:
    """Differences between two runs of one job, as wrong-result messages."""
    a, b = output_files(job, root_a), output_files(job, root_b)
    if a.keys() != b.keys():
        return [f"{job.name}: {what} wrote different files"]
    return [f"{job.name}/{name}: {what} not byte-identical"
            for name in a if a[name] != b[name]]
