"""Output ledger: digests of CLI outputs that a refactor must keep bit for bit.

Each ledger entry is one in-process `heisenmech` call: its argv, its exit
code, a SHA-256 of its stdout and of its stderr, and the name and SHA-256 of
each file it wrote. Every path under the run's scratch directory reads
`<tmp>`, so the `--out` path that stdout prints does not enter a digest. The
calls are `check --all` at seeds 42 and 20260814 and every call of the
benchmark's `algebra` pool at seeds 1 and 11, generated by
`perfbench/workloads.py` (read, never changed).

Digests of floating-point output depend on the numpy build and the machine,
so the ledger records both; under another numpy version or platform the
test fails and names both. A change that moves an output on purpose
rewrites the ledger in the same commit, from the root of a checkout:

    PYTHONPATH=src python tests/test_output_ledger.py

and lists each moved entry in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

import heisenmech
from heisenmech.cli import main

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).resolve().parent / "output_ledger.json"
CONFIGS = Path(heisenmech.__file__).parent / "configs"


def environment() -> dict:
    return {"numpy": np.__version__,
            "platform": f"{sys.platform}-{platform.machine()}"}


def _workloads():
    """perfbench/workloads.py as a module of its own name, so that neither
    sys.path nor the benchmark's own `workloads` import is touched."""
    spec = importlib.util.spec_from_file_location(
        "_ledger_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _calls(tmp: Path) -> list[tuple[str, list[str], Path]]:
    """(name, argv without --out, output directory) of every ledger call."""
    check_cfg = tmp / "check.cfg"
    check_cfg.write_text("run.seed = 0\n")
    calls = [(f"check --all --seed {seed}",
              ["check", "--all", "--config", str(check_cfg), "--seed", str(seed)],
              tmp / f"check{seed}")
             for seed in (42, 20260814)]
    workloads = _workloads()
    for seed in (1, 11):
        work = tmp / f"algebra{seed}"
        for job in workloads.generate("algebra", seed, CONFIGS, work):
            for call in job.calls:
                calls.append((f"algebra seed {seed} {job.name} {call.out}",
                              list(call.argv), work / "out" / job.name / call.out))
    return calls


def run_ledger(tmp: Path) -> dict:
    """The ledger of this tree: one entry per call, in call order."""
    entries = []
    for name, argv, out in _calls(tmp):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        files = {path.name: _digest(path.read_bytes())
                 for path in sorted(out.iterdir())} if out.is_dir() else {}
        entries.append({
            "call": name,
            "argv": [arg.replace(str(tmp), "<tmp>") for arg in argv],
            "exit": code,
            "stdout": _digest(stdout.getvalue().replace(str(tmp), "<tmp>")),
            "stderr": _digest(stderr.getvalue().replace(str(tmp), "<tmp>")),
            "files": files,
        })
    return {"environment": environment(), "calls": entries}


def _fields(entry: dict) -> dict:
    """An entry's argv, exit code, stream digests and file digests, flat."""
    fields = {key: entry[key] for key in ("argv", "exit", "stdout", "stderr")}
    fields.update((f"file {name}", digest)
                  for name, digest in entry["files"].items())
    return fields


def test_outputs_match_the_ledger(tmp_path):
    ledger = json.loads(LEDGER.read_text())
    assert ledger["environment"] == environment(), (
        f"the ledger was written under {ledger['environment']}, this run is "
        f"{environment()}: its digests do not apply here")
    got = run_ledger(tmp_path)["calls"]
    assert [e["call"] for e in got] == [e["call"] for e in ledger["calls"]]
    moved = [f"{want['call']}: {key}"
             for want, have in zip(ledger["calls"], got)
             for key in sorted(_fields(want).keys() | _fields(have).keys())
             if _fields(want).get(key) != _fields(have).get(key)]
    assert not moved, "outputs moved against the ledger:\n" + "\n".join(moved)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        LEDGER.write_text(json.dumps(run_ledger(Path(tmp)), indent=1) + "\n")
    print(f"wrote {LEDGER}")
