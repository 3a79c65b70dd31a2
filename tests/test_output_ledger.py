"""Output ledger: digests of CLI outputs that a refactor must keep bit for bit.

Each ledger entry is one in-process `heisenmech` call: its argv, its exit
code, a SHA-256 of its stdout and of its stderr, and the name and SHA-256 of
each file it wrote. Every path under the run's scratch directory reads
`<tmp>` and the bundled configs' directory `<configs>`, so neither the
`--out` path that stdout prints nor the checkout's place enters a digest. The
calls are the 11 bundled configs under their subcommands, `check --all` at
seeds 42 and 20260814, and every call of the benchmark's four pools at seeds
1 and 11, generated by `perfbench/workloads.py` (read, never changed).

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
# The subcommand that runs each bundled config.
BUNDLED = {"diverge": "simulate", "free_particle": "simulate",
           "heisenberg_particle": "simulate", "kk_compare": "kk-compare",
           "mr1_shear": "mr-check", "mr2_level_mismatch": "mr-check",
           "mr3_zero_control": "mr-check", "mr_identity": "mr-check",
           "mr_translation": "mr-check", "reduce": "reduce",
           "reduce_nu0": "reduce"}
POOLS = ("flow", "reduce", "certify", "algebra")


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


def _normal(text: str, tmp: Path) -> str:
    """text with the scratch directory read as `<tmp>` and the bundled
    configs' directory as `<configs>`."""
    return text.replace(str(tmp), "<tmp>").replace(str(CONFIGS), "<configs>")


def _calls(tmp: Path) -> list[tuple[str, list[str], Path]]:
    """(name, argv without --out, output directory) of every ledger call."""
    calls = [(f"{command} {name}.cfg",
              [command, "--config", str(CONFIGS / f"{name}.cfg")],
              tmp / "bundled" / name)
             for name, command in sorted(BUNDLED.items())]
    check_cfg = tmp / "check.cfg"
    check_cfg.write_text("run.seed = 0\n")
    calls += [(f"check --all --seed {seed}",
               ["check", "--all", "--config", str(check_cfg), "--seed", str(seed)],
               tmp / f"check{seed}")
              for seed in (42, 20260814)]
    workloads = _workloads()
    for pool in POOLS:
        for seed in (1, 11):
            work = tmp / f"{pool}{seed}"
            for job in workloads.generate(pool, seed, CONFIGS, work):
                calls += [(f"{pool} seed {seed} {job.name} {call.out}",
                           list(call.argv), work / "out" / job.name / call.out)
                          for call in job.calls]
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
            "argv": [_normal(arg, tmp) for arg in argv],
            "exit": code,
            "stdout": _digest(_normal(stdout.getvalue(), tmp)),
            "stderr": _digest(_normal(stderr.getvalue(), tmp)),
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
