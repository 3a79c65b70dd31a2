"""Command-line front end: simulate, reduce, check, kk-compare, mr-check.

Every subcommand reads a flat dotted-key config file, runs deterministically
from a seed, and writes a JSON invariant report (plus a trajectory CSV where
there is a flow to record). Exit codes: 0 when every reported check passed,
1 when at least one failed, 2 for config or usage problems, 3 for numerical
failures such as non-convergent steps, singular forms, or invariance and
level-set violations.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import magnetic as mag
from .checks import CHECKS, run_named_checks
from .config import ExperimentConfig
from .errors import (
    ConfigError,
    ControlSubsetMissing,
    IrregularLevel,
    MissingPotential,
    NonConvergence,
    NotInvariant,
    NotOnLevelSet,
    SingularForm,
)
from .group import CoAlgebraElement, GroupElement
from .reduction import (
    CheckRecord,
    DiffeoSpec,
    check_commutation,
    check_mr1,
    check_mr2_equivariance,
    check_mr3_matching,
    integrate_reduced,
    kaluza_klein_system,
    kk_alpha_form_check,
    kk_reduce_and_compare,
    reduce_system,
)
from .report import InvariantReport

__all__ = ["main"]

_NUMERICAL_ERRORS = (NonConvergence, SingularForm, NotInvariant,
                     IrregularLevel, NotOnLevelSet, MissingPotential,
                     ControlSubsetMissing, FloatingPointError,
                     np.linalg.LinAlgError)

_STATE_KEYS = ("state.q1", "state.q2", "state.q3",
               "state.p1", "state.p2", "state.p3")
# The default trajectory name of each subcommand that writes one.
_TRAJECTORY_NAMES = {"simulate": "trajectory.csv", "reduce": "reduced.csv"}


def build_field(cfg: ExperimentConfig, charge_factor: float,
                prefix: str = "field") -> mag.MagneticField:
    """Magnetic field from a config block: zero, constant, linear, invariant."""
    kinds = ("zero", "constant", "linear", "invariant")
    if prefix != "field":
        kinds = ("zero", "constant", "invariant")
    kind = cfg.string(prefix + ".kind", default="zero", choices=kinds)
    if kind == "zero":
        return mag.MagneticField.zero(charge_factor)
    if kind == "constant":
        b = np.zeros((3, 3))
        b[0, 1] = cfg.real(prefix + ".b12", default=0.0)
        b[0, 2] = cfg.real(prefix + ".b13", default=0.0)
        b[1, 2] = cfg.real(prefix + ".b23", default=0.0)
        b -= b.T
        return mag.MagneticField.constant(b, charge_factor)
    if kind == "linear":
        coeff = np.array([[cfg.real(f"{prefix}.m{i}{j}", default=0.0)
                           for j in (1, 2, 3)] for i in (1, 2, 3)])
        return mag.MagneticField.linear_potential(coeff, charge_factor)
    a = tuple(cfg.real(f"{prefix}.a{i}", default=0.0) for i in (1, 2, 3))
    return mag.MagneticField.invariant_potential(a, charge_factor)


def _body_scaling_map(factor: float, lam_factor: float) -> dyn.FiberMap:
    """Fiber map scaling the planar body momentum; equivariant by design.

    In the chart it reads
    (p1, p2) -> factor * (p1, p2) + (1 - factor)/2 * p3 * (q2, -q1), with p3
    unchanged and lam scaled by lam_factor; apply evaluates it as
    factor * rho + p3/2 * (q2, -q1), rho the planar body momentum. The map is
    bilinear in (q, p), which gives the analytic tangent, and linear in
    (p, lam) at fixed q, so it is declared affine; apply and tangent take
    stacks of states on the last axis.
    """

    def apply(s):
        out = np.asarray(s, dtype=float).copy()
        q, p3 = out[..., :3], out[..., 5]
        offset = 0.5 * p3[..., None] * np.stack([q[..., 1], -q[..., 0]], axis=-1)
        out[..., 3:5] = (factor * mag.chart_to_body_array(q, out[..., 3:6])[..., :2]
                         + offset)
        out[..., 6 + (out.shape[-1] - 6) // 2:] *= lam_factor
        return out

    def tangent(s, v):
        s = np.asarray(s, dtype=float)
        q, p = s[..., :3], s[..., 3:6]
        out = np.asarray(v, dtype=float).copy()
        c = 0.5 * (1.0 - factor)
        out[..., 3] = factor * out[..., 3] + c * (out[..., 5] * q[..., 1]
                                                  + p[..., 2] * out[..., 1])
        out[..., 4] = factor * out[..., 4] - c * (out[..., 5] * q[..., 0]
                                                  + p[..., 2] * out[..., 0])
        out[..., 6 + (out.shape[-1] - 6) // 2:] *= lam_factor
        return out

    return dyn.FiberMap(apply=apply, tangent=tangent, affine=True)


def _constant_push_map(delta: np.ndarray) -> dyn.FiberMap:
    """Fiber translation p -> p + delta, declared affine."""
    delta = np.asarray(delta, dtype=float)

    def apply(s):
        out = np.asarray(s, dtype=float).copy()
        out[..., 3:6] += delta
        return out

    return dyn.FiberMap(apply=apply, tangent=lambda s, v: np.array(v, dtype=float),
                        affine=True)


def build_force(cfg: ExperimentConfig,
                prefix: str = "force") -> dyn.FiberMap | None:
    kind = cfg.string(prefix + ".kind", default="none",
                      choices=("none", "body_scaling"))
    if kind == "none":
        return None
    return _body_scaling_map(cfg.real(prefix + ".factor", default=1.0),
                             cfg.real(prefix + ".lambda_factor", default=1.0))


def build_control(cfg: ExperimentConfig,
                  k: int) -> tuple[dyn.FiberMap | None, dyn.ControlSubset | None]:
    kind = cfg.string("control.kind", default="none",
                      choices=("none", "constant_push"))
    control = None
    if kind == "constant_push":
        if k != 0:
            raise ConfigError(
                f"{cfg.where('control.kind')}: field 'control.kind' supports "
                "system.k = 0 only")
        delta = [cfg.real(f"control.p{i}", default=0.0) for i in (1, 2, 3)]
        control = _constant_push_map(np.array(delta))
    subset_kind = cfg.string("control.subset", default="none",
                             choices=("none", "zero", "full"))
    subset = None
    if subset_kind == "zero":
        subset = dyn.ControlSubset(np.zeros(3 + k), np.zeros((0, 3 + k)))
    elif subset_kind == "full":
        subset = dyn.ControlSubset(np.zeros(3 + k), np.eye(3 + k))
    return control, subset


def build_system(cfg: ExperimentConfig) -> dyn.RCHSystem:
    """Controlled system from the system/field/force/control config blocks."""
    m = cfg.real("system.mass", default=1.0, positive=True)
    e = cfg.real("system.charge", default=1.0)
    c = cfg.real("system.light_speed", default=1.0, positive=True)
    k = cfg.integer("system.k", default=0, minimum=0)
    metric = cfg.string("system.metric", default="euclidean",
                        choices=("euclidean", "invariant"))
    field = build_field(cfg, e / c)
    if metric == "euclidean":
        hamiltonian = dyn.euclidean_kinetic_hamiltonian(m)
    else:
        hamiltonian = dyn.invariant_kinetic_hamiltonian(m)
    control, subset = build_control(cfg, k)
    return dyn.RCHSystem(field, hamiltonian, force=build_force(cfg),
                         control=control, control_subset=subset, k=k)


def build_state(cfg: ExperimentConfig) -> np.ndarray:
    return np.array([cfg.real(key, default=0.0) for key in _STATE_KEYS])


def build_level(cfg: ExperimentConfig,
                prefix: str = "level") -> CoAlgebraElement:
    return CoAlgebraElement((cfg.real(prefix + ".mu1"),
                             cfg.real(prefix + ".mu2")),
                            cfg.real(prefix + ".nu"))


def build_diffeo(cfg: ExperimentConfig) -> DiffeoSpec:
    kind = cfg.string("diffeo.kind", default="identity",
                      choices=("identity", "translation", "shear"))
    if kind == "identity":
        return DiffeoSpec.identity()
    if kind == "translation":
        h = GroupElement((cfg.real("diffeo.u1", default=0.0),
                          cfg.real("diffeo.u2", default=0.0)),
                         cfg.real("diffeo.alpha", default=0.0))
        return DiffeoSpec.group_translation(h)

    # A deliberately broken lift: identity base with a fiber shear. Useful as
    # a negative fixture because it fails the symplecticity check without
    # being rejected at construction time. Like every DiffeoSpec callable it
    # takes a state or a stack of them. The shear is linear, so its tangent
    # is the shear applied to the vector.
    def ident(q):
        return np.asarray(q, dtype=float).copy()

    def shear_lift(s):
        out = np.asarray(s, dtype=float).copy()
        out[..., 3] += out[..., 1]
        return out

    def shear_inverse(s):
        out = np.asarray(s, dtype=float).copy()
        out[..., 3] -= out[..., 1]
        return out

    return DiffeoSpec(ident, ident, shear_lift, shear_inverse,
                      lambda state, vector: shear_lift(vector),
                      verify_lift=False)


# The longest fixed-step run a config may ask for. A run stores every state,
# so t_end / step beyond this is refused as a config error (exit 2) rather
# than attempted; the bundled configs and benchmark runs take at most 5,000.
MAX_STEPS = 1_000_000


def _step_settings(cfg: ExperimentConfig, section: str) -> tuple[float, float]:
    """(t_end, step) of section, at most MAX_STEPS steps apart."""
    t_key, h_key = f"{section}.t_end", f"{section}.step"
    t_end = cfg.real(t_key, default=1.0, positive=True)
    h = cfg.real(h_key, default=1e-3, positive=True)
    steps = t_end / h
    if not steps < MAX_STEPS + 0.5:
        raise ConfigError(
            f"{cfg.where(h_key if cfg.has(h_key) else t_key)}: {t_key} / "
            f"{h_key} asks for {steps:.6g} steps, above the cap of "
            f"{MAX_STEPS:,}")
    return t_end, h


# The largest sample count a config may ask of a sweep. The stacked sweeps
# hold every sample's rows at once, up to about 650 bytes per sample at the
# peak (check bracket; 500 for check connection, 370 for a forced reduce
# commutation sweep), so a larger count is refused as a config error (exit 2)
# rather than attempted; the bundled configs ask for at most 1,000.
MAX_SAMPLES = 100_000


def _samples(cfg: ExperimentConfig, key: str, default: int | None = None) -> int:
    """The sample count at key: an integer from 1 to MAX_SAMPLES."""
    samples = cfg.integer(key, default=default, minimum=1)
    if samples > MAX_SAMPLES:
        raise ConfigError(f"{cfg.where(key)}: field {key!r} asks for "
                          f"{samples:,} samples, above the cap of "
                          f"{MAX_SAMPLES:,}")
    return samples


def _run_settings(cfg: ExperimentConfig) -> tuple[float, float, str]:
    return (*_step_settings(cfg, "run"),
            cfg.string("run.method", default="midpoint",
                       choices=("midpoint", "rk4")))


# Rows formatted per block of _write_csv. A block's cells all live at once as
# Python objects, so a larger block raises the peak memory of a run.
_CSV_ROWS = 128


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    """Write rows under header, each cell the shortest round-trip repr of its
    float, so float(cell) gives back its bits (every nan reads back as the
    default nan).

    repr is the cost, and trajectory columns repeat values (a conserved
    momentum, a constant column), so each column of a block of _CSV_ROWS rows
    formats each of its distinct bit patterns once. Patterns, not values:
    0.0 == -0.0 yet each has its own text, and nan != nan yet equal nans
    dedupe. A dict per column finds them: np.unique was faster, but mapping
    numpy's sort kernels raised a run's peak memory by about half a megabyte.
    """
    rows = np.asarray(rows, dtype=float)
    bits = rows.view(np.int64)
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_ROWS):
            stop = start + _CSV_ROWS
            columns = []
            for values, keys in zip(rows[start:stop].T.tolist(),
                                    bits[start:stop].T.tolist()):
                distinct = dict(zip(keys, values))
                if len(distinct) < len(keys):
                    texts = dict(zip(distinct, map(repr, distinct.values())))
                    columns.append(list(map(texts.__getitem__, keys)))
                else:
                    columns.append(list(map(repr, values)))
            handle.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _drift_record(name: str, values: np.ndarray) -> CheckRecord:
    """Worst deviation from the initial value, relative above unit scale,
    against 1e-8."""
    start = values[0]
    drift = float(np.max(np.abs(values - start)))
    scale = float(np.max(np.abs(np.atleast_1d(start))))
    return CheckRecord(name, int(values.shape[0]), drift / max(1.0, scale),
                       1e-8)


def _file_name(cfg: ExperimentConfig, key: str, default: str) -> str:
    name = cfg.string(key, default=default)
    separators = {os.sep, os.altsep} - {None}
    if name in ("", ".", "..") or separators & set(name):
        raise ConfigError(f"{cfg.where(key)}: field {key!r} must be a file "
                          f"name inside the output directory, got {name!r}")
    return name


def _output_names(cfg: ExperimentConfig, command: str) -> tuple[str, str | None]:
    """The report's file name and, for a subcommand that writes one, the
    trajectory's, read before anything runs. Each must be a plain file name
    in the output directory, and the two must differ."""
    report = _file_name(cfg, "output.report", "report.json")
    if command not in _TRAJECTORY_NAMES:
        return report, None
    trajectory = _file_name(cfg, "output.trajectory", _TRAJECTORY_NAMES[command])
    if trajectory == report:
        key = "output.trajectory" if cfg.has("output.trajectory") else "output.report"
        raise ConfigError(f"{cfg.where(key)}: fields 'output.trajectory' and "
                          f"'output.report' both name {report!r}")
    return report, trajectory


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, name: str,
                 seed: int) -> InvariantReport:
    if cfg.integer("system.k", default=0, minimum=0) != 0:
        raise ConfigError(
            f"{cfg.where('system.k')}: field 'system.k' must be 0 for simulate")
    sys_ = build_system(cfg)
    t_end, h, method = _run_settings(cfg)
    traj = dyn.integrate(sys_, build_state(cfg), t_end, h, method)
    rows = np.column_stack([traj.times, traj.states, traj.energies,
                            traj.momenta])
    _write_csv(out_dir / name,
               ["t", "q1", "q2", "q3", "p1", "p2", "p3", "H", "J1", "J2", "J3"],
               rows)
    records = [_drift_record("simulate.energy_drift", traj.energies)]
    # The momentum columns are diagnostics for any system; the conservation
    # record only makes sense when the metric is the invariant one, since the
    # chart kinetic energy is not symmetric under the group action.
    invariant = cfg.string("system.metric", default="euclidean") == "invariant"
    if invariant and np.all(np.isfinite(traj.momenta)):
        records.append(_drift_record("simulate.momentum_drift", traj.momenta))
    return InvariantReport(seed, records, {"trajectory": name})


def cmd_reduce(cfg: ExperimentConfig, out_dir: Path, name: str,
               seed: int) -> InvariantReport:
    sys_ = build_system(cfg)
    level = build_level(cfg)
    samples = _samples(cfg, "check.samples", 50)
    red = reduce_system(sys_, level)
    if any(cfg.has(key) for key in _STATE_KEYS):
        if sys_.k != 0:
            raise ConfigError(f"{cfg.where('system.k')}: explicit state.* "
                              "start needs system.k = 0")
        chart0 = mag.reduce_point(build_state(cfg), level, sys_.field)
    else:
        rng = np.random.default_rng(seed)
        sample = mag.sample_level_point(level, sys_.field, sys_.k, rng)
        chart0 = mag.reduce_point(sample, level, sys_.field)
    t_end, h, method = _run_settings(cfg)
    times, charts, energies = integrate_reduced(red, chart0, t_end, h, method)
    k = sys_.k
    header = (["t", "rho1", "rho2", "nu"]
              + [f"theta{i + 1}" for i in range(k)]
              + [f"lambda{i + 1}" for i in range(k)] + ["h"])
    rows = np.column_stack([times, charts[:, :2],
                            np.full(times.size, level.nu),
                            charts[:, 2:], energies])
    _write_csv(out_dir / name, header, rows)
    records = [_drift_record("reduce.energy_drift", energies),
               check_commutation(sys_, red, samples=samples, seed=seed)]
    return InvariantReport(seed, records, {"trajectory": name})


def cmd_check(cfg: ExperimentConfig, seed: int,
              run_all: bool) -> InvariantReport:
    names = list(CHECKS) if run_all else cfg.names("check.names")
    samples = (_samples(cfg, "check.samples")
               if cfg.has("check.samples") else None)
    return InvariantReport(seed, run_named_checks(names, seed, samples))


def cmd_kk_compare(cfg: ExperimentConfig, seed: int) -> InvariantReport:
    m = cfg.real("system.mass", default=1.0, positive=True)
    mu = cfg.real("kk.mu", default=1.0)
    kk = kaluza_klein_system(build_field(cfg, 1.0), m=m, mu=mu)
    samples = _samples(cfg, "check.samples", 20)
    t_end, h = _step_settings(cfg, "kk")
    records = [kk_alpha_form_check(kk, samples=samples, seed=seed)]
    records.extend(kk_reduce_and_compare(kk, build_state(cfg), t_end=t_end,
                                         h=h))
    return InvariantReport(seed, records)


def cmd_mr_check(cfg: ExperimentConfig, seed: int) -> InvariantReport:
    which = cfg.string("mr.check", choices=("mr1", "mr2", "mr3"))
    charge_factor = (cfg.real("system.charge", default=1.0)
                     / cfg.real("system.light_speed", default=1.0,
                                positive=True))
    field1 = build_field(cfg, charge_factor, "field")
    field2 = (build_field(cfg, charge_factor, "field2")
              if cfg.has("field2.kind") else field1)
    phi = build_diffeo(cfg)
    if which == "mr1":
        samples = _samples(cfg, "mr.samples", 100)
        return InvariantReport(seed, [check_mr1(phi, field1, field2,
                                                samples=samples, seed=seed)])
    if which == "mr2":
        level1 = build_level(cfg)
        level2 = (build_level(cfg, "level2")
                  if cfg.has("level2.nu") else level1)
        samples = _samples(cfg, "mr.samples", 50)
        return InvariantReport(seed, check_mr2_equivariance(
            phi, level1, level2, field1, field2, samples=samples, seed=seed))
    sys1 = build_system(cfg)
    if sys1.control_subset is None:
        raise ConfigError(f"{cfg.where('control.subset')}: mr3 needs field "
                          "'control.subset' set to 'zero' or 'full'")
    sys2 = dyn.RCHSystem(field2, sys1.hamiltonian,
                         force=build_force(cfg, "force2"), k=sys1.k)
    samples = _samples(cfg, "mr.samples", 40)
    return InvariantReport(seed, check_mr3_matching(sys1, sys2, phi,
                                                    samples=samples,
                                                    seed=seed))


def _seed_value(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {raw!r}")
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit "
                                         "integer")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="heisenmech",
        description="Heisenberg-group mechanics: flows, reduction, and "
                    "invariant checks")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": "integrate a controlled system and record the trajectory",
        "reduce": "drop an invariant system to its coadjoint orbit and flow it",
        "check": "run named invariant checks from the registry",
        "kk-compare": "compare the circle-bundle geodesic flow with the "
                      "magnetic flow",
        "mr-check": "evaluate one of the matching and equivalence conditions",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True,
                         help="path to a dotted-key config file")
        cmd.add_argument("--out", default=".",
                         help="output directory (created if missing)")
        cmd.add_argument("--seed", type=_seed_value, default=None,
                         help="override run.seed from the config")
        if name == "check":
            cmd.add_argument("--all", action="store_true",
                             help="run the full check registry")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = ExperimentConfig.from_path(args.config)
        seed = (args.seed if args.seed is not None
                else cfg.integer("run.seed", default=0, minimum=0))
        report_name, trajectory_name = _output_names(cfg, args.command)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"usage error: --out {args.out} is not a usable output "
                  f"directory: {exc.strerror}", file=sys.stderr)
            return 2
        if args.command == "simulate":
            report = cmd_simulate(cfg, out_dir, trajectory_name, seed)
        elif args.command == "reduce":
            report = cmd_reduce(cfg, out_dir, trajectory_name, seed)
        elif args.command == "check":
            report = cmd_check(cfg, seed, args.all)
        elif args.command == "kk-compare":
            report = cmd_kk_compare(cfg, seed)
        else:
            report = cmd_mr_check(cfg, seed)
        report_path = out_dir / report_name
        report_path.write_text(report.to_json())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"numerical failure: {exc} (step {exc.step_index})",
              file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    try:
        for record in report.checks:
            status = "PASS" if record.passed else "FAIL"
            print(f"{status} {record.name}: max residual "
                  f"{record.max_residual:.3e} (threshold {record.threshold:.1e},"
                  f" samples {record.samples})")
        print(f"report: {report_path}")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head -1` does). The report is
        # written, so the exit code stands; point stdout at devnull so the
        # flush at exit does not fail again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
