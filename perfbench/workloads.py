"""Input generator: workload seed -> config files and expected outcomes.

Every workload is a pool of jobs. A job is a bundle of `heisenmech` CLI
invocations; each invocation carries the exit code and the per-record
PASS/FAIL statuses it must produce. The generator writes every config the
program reads into one work directory, so the program sees only generated
files (the bundled fixtures are copied there with their seed overridden).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("flow", "reduce", "certify", "algebra")

# Jobs per pool. A run always finishes the pass over the pool it is in, so
# per-run figures do not depend on where the deadline falls inside a pass.
POOL_SIZE = {"flow": 5, "reduce": 6, "certify": 1, "algebra": 4}

ALGEBRA_CHECKS = ("group_axioms", "representations", "bracket", "orbit_form",
                  "connection")

# Negative and positive fixtures of the certification pass, with the exit
# code and record statuses the bundled configs document.
MR_FIXTURES = (
    ("mr_identity", 0, {"mr1.symplectic": True}),
    ("mr1_shear", 1, {"mr1.symplectic": False}),
    ("mr2_level_mismatch", 1, {"mr2.level": False, "mr2.isotropy": True}),
    ("mr3_zero_control", 1, {"mr3.vertical": False, "mr3.horizontal": True}),
)


@dataclass(frozen=True)
class Call:
    """One `heisenmech` invocation and the outcome it must have.

    argv omits --out: the runner appends an output directory ending in out.
    records maps record names to their expected PASS (True) or FAIL (False)
    status; records the map does not name must PASS. An expected exit code
    of 2 or 3 means no report is written.
    """

    argv: tuple[str, ...]
    out: str
    exit_code: int
    records: tuple[tuple[str, bool], ...]
    trajectory: str | None = None


@dataclass(frozen=True)
class Job:
    name: str
    calls: tuple[Call, ...]


def _real(value: float) -> str:
    return repr(float(value))


def _write(path: Path, lines: list[str]) -> str:
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _with_seed(text: str, seed: int) -> str:
    """Bundled fixture text with its run.seed line replaced."""
    out, count = re.subn(r"(?m)^run\.seed\s*=.*$", f"run.seed = {seed}", text)
    if count != 1:
        raise ValueError("bundled fixture has no single run.seed line")
    return out


def _state(rng: np.random.Generator) -> list[str]:
    # Chart momentum of fixed moderate size in a random direction keeps the
    # midpoint fixed-point solve in one iteration regime across seeds.
    q = rng.uniform(-1.0, 1.0, 3)
    direction = rng.normal(size=3)
    p = rng.uniform(0.4, 0.8) * direction / np.linalg.norm(direction)
    return ([f"state.q{i + 1} = {_real(v)}" for i, v in enumerate(q)]
            + [f"state.p{i + 1} = {_real(v)}" for i, v in enumerate(p)])


def _flow_job(index: int, rng: np.random.Generator, cfg_dir: Path) -> Job:
    mass = _real(rng.uniform(0.8, 1.5))
    field = [f"field.a{i + 1} = {_real(v)}"
             for i, v in enumerate(rng.uniform(-1.0, 1.0, 3))]
    state = _state(rng)
    run = ["run.t_end = 5.0", "run.step = 0.001"]
    invariant = ["system.metric = invariant", f"system.mass = {mass}",
                 "field.kind = invariant", *field, *state, *run]
    specs = (
        ("invariant_midpoint", invariant + ["run.method = midpoint"], True),
        ("invariant_rk4", invariant + ["run.method = rk4"], True),
        ("euclidean_zero", ["system.metric = euclidean",
                            f"system.mass = {_real(rng.uniform(0.8, 1.5))}",
                            "field.kind = zero", *_state(rng), *run,
                            "run.method = midpoint"], False),
    )
    calls = []
    for tag, lines, invariant_metric in specs:
        cfg = _write(cfg_dir / f"flow{index}_{tag}.cfg", lines)
        records = [("simulate.energy_drift", True)]
        if invariant_metric:
            records.append(("simulate.momentum_drift", True))
        calls.append(Call(("simulate", "--config", cfg), tag, 0,
                          tuple(records), "trajectory.csv"))
    return Job(f"flow{index}", tuple(calls))


def _reduce_job(index: int, rng: np.random.Generator, bundled: Path,
                cfg_dir: Path, strata: tuple[float, float]) -> Job:
    # Field, metric and step come from the bundled reduce.cfg; the level,
    # the start-point seed and the force factor are generated. |nu| and the
    # force factor are drawn from their own stratum of [0.5, 2] and
    # [0.5, 1.5], so every pool covers both ranges evenly.
    base = [line for line in (bundled / "reduce.cfg").read_text().splitlines()
            if not line.startswith(("level.", "run.seed"))]
    mu = rng.uniform(-1.0, 1.0, 2)
    nu = (0.5 + 1.5 * strata[0]) * rng.choice((-1.0, 1.0))
    level = [f"level.mu1 = {_real(mu[0])}", f"level.mu2 = {_real(mu[1])}",
             f"level.nu = {_real(nu)}",
             f"run.seed = {int(rng.integers(0, 2 ** 31))}"]
    forced = ["force.kind = body_scaling",
              f"force.factor = {_real(0.5 + strata[1])}"]
    calls = []
    for tag, extra in (("free", []), ("forced", forced)):
        cfg = _write(cfg_dir / f"reduce{index}_{tag}.cfg", base + level + extra)
        calls.append(Call(("reduce", "--config", cfg), tag, 0,
                          (("reduce.energy_drift", True),
                           ("reduction.commutation", True)), "reduced.csv"))
    return Job(f"reduce{index}", tuple(calls))


def _strata(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """Latin-hypercube points in [0, 1)^dims: one per stratum per axis."""
    cells = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (cells + rng.uniform(size=(n, dims))) / n


def _certify_job(index: int, rng: np.random.Generator, bundled: Path,
                 cfg_dir: Path) -> Job:
    def copy(name: str) -> str:
        seed = int(rng.integers(0, 2 ** 31))
        path = cfg_dir / f"certify{index}_{name}.cfg"
        path.write_text(_with_seed((bundled / f"{name}.cfg").read_text(), seed))
        return str(path)

    # check --all needs a config only for its seed and output names.
    check_cfg = _write(cfg_dir / f"certify{index}_check.cfg", ["run.seed = 0"])
    calls = [Call(("check", "--all", "--config", check_cfg, "--seed",
                   str(int(rng.integers(0, 2 ** 31)))), "check", 0, ())]
    for name, code, records in MR_FIXTURES:
        calls.append(Call(("mr-check", "--config", copy(name)), name, code,
                          tuple(records.items())))
    calls.append(Call(("kk-compare", "--config", copy("kk_compare")),
                      "kk_compare", 0, ()))
    calls.append(Call(("reduce", "--config", copy("reduce_nu0")),
                      "reduce_nu0", 3, ()))
    return Job(f"certify{index}", tuple(calls))


def _algebra_job(index: int, rng: np.random.Generator, cfg_dir: Path) -> Job:
    cfg = _write(cfg_dir / f"algebra{index}.cfg",
                 [f"check.names = {', '.join(ALGEBRA_CHECKS)}",
                  "check.samples = 1000",
                  f"run.seed = {int(rng.integers(0, 2 ** 31))}"])
    return Job(f"algebra{index}", (Call(("check", "--config", cfg), "check", 0, ()),))


def generate(workload: str, seed: int, bundled: Path,
             work_dir: Path) -> list[Job]:
    """Write the workload's configs under work_dir and return its job pool.

    The same seed always yields the same files and the same jobs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cfg_dir = work_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    n = POOL_SIZE[workload]
    strata = _strata(rng, n, 2)
    jobs = []
    for index in range(n):
        if workload == "flow":
            jobs.append(_flow_job(index, rng, cfg_dir))
        elif workload == "reduce":
            jobs.append(_reduce_job(index, rng, bundled, cfg_dir,
                                    tuple(strata[index])))
        elif workload == "certify":
            jobs.append(_certify_job(index, rng, bundled, cfg_dir))
        else:
            jobs.append(_algebra_job(index, rng, cfg_dir))
    return jobs
