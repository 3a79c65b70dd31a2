"""End-to-end command-line tests over the bundled config fixtures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heisenmech
from heisenmech import cli, fd
from heisenmech.checks import CHECKS
from heisenmech.cli import _body_scaling_map, _constant_push_map, _write_csv, main
from heisenmech.magnetic import chart_to_body_array
from heisenmech.reduction import CheckRecord
from heisenmech.report import InvariantReport, load_schema

import jsonschema

CONFIGS = Path(heisenmech.__file__).parent / "configs"


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def load_report(directory):
    payload = json.loads((directory / "report.json").read_text())
    jsonschema.validate(payload, load_schema())
    return payload


def test_simulate_free_particle_straight_line(tmp_path):
    code = main(["simulate", "--config", str(CONFIGS / "free_particle.cfg"),
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "q1", "q2", "q3", "p1", "p2", "p3",
                      "H", "J1", "J2", "J3"]
    t = rows[:, 0]
    q0 = np.array([0.1, -0.4, 0.2])
    p0 = np.array([1.0, 2.0, -0.5])
    expected_q = q0 + np.outer(t, p0 / 2.0)
    assert np.max(np.abs(rows[:, 1:4] - expected_q)) <= 1e-12
    assert np.max(np.abs(rows[:, 4:7] - p0)) <= 1e-12
    report = load_report(tmp_path)
    assert report["passed"] is True
    assert report["artifacts"] == {"trajectory": "trajectory.csv"}


def test_simulate_invariant_particle_conserves_momentum(tmp_path):
    code = main(["simulate", "--config",
                 str(CONFIGS / "heisenberg_particle.cfg"),
                 "--out", str(tmp_path)])
    assert code == 0
    report = load_report(tmp_path)
    names = [record["name"] for record in report["checks"]]
    assert names == ["simulate.energy_drift", "simulate.momentum_drift"]
    assert report["passed"] is True
    _, rows = read_csv(tmp_path / "trajectory.csv")
    momenta = rows[:, 8:11]
    assert np.max(np.abs(momenta - momenta[0])) <= 1e-8


def test_check_reports_are_byte_identical(tmp_path):
    cfg = tmp_path / "checks.cfg"
    cfg.write_text("check.names = group_axioms, orbit_form\n")
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["check", "--config", str(cfg), "--out", str(out1),
                 "--seed", "123"]) == 0
    assert main(["check", "--config", str(cfg), "--out", str(out2),
                 "--seed", "123"]) == 0
    first = (out1 / "report.json").read_bytes()
    second = (out2 / "report.json").read_bytes()
    assert first == second
    names = [r["name"] for r in load_report(out1)["checks"]]
    assert "group.associativity" in names and "orbit.determinant" in names


def test_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "checks.cfg"
    cfg.write_text("run.seed = 7\ncheck.names = group_axioms\n")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path),
                 "--seed", "9"]) == 0
    assert load_report(tmp_path)["environment"]["seed"] == 9
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert load_report(tmp_path)["environment"]["seed"] == 7


def test_empty_check_list_passes(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# nothing configured\n")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = load_report(tmp_path)
    assert report["checks"] == [] and report["passed"] is True


def test_unknown_check_name_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("check.names = group_axioms, nonsense\n")
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("system.mass = 1.0\nfield.strength = 2.0\n")
    assert main(["check", "--config", str(unknown),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "field.strength" in err and "unknown.cfg:2" in err

    broken = tmp_path / "broken.cfg"
    broken.write_text("just some words\n")
    assert main(["check", "--config", str(broken), "--out", str(tmp_path)]) == 2
    assert "broken.cfg:1" in capsys.readouterr().err

    missing = tmp_path / "missing.cfg"
    assert main(["check", "--config", str(missing), "--out", str(tmp_path)]) == 2


def test_bad_value_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "negative.cfg"
    cfg.write_text("# a particle of negative mass\nsystem.metric = euclidean\n"
                   "system.mass = -1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3:" in err and "system.mass" in err


@pytest.mark.parametrize("literal", [
    "2" + "0" * 308,     # 2e308, just past the float range
    "1" + "0" * 400,
    "-1" + "0" * 4299,   # 4,300 digits, the longest int() reads by default
    "1" + "0" * 5000,    # past that limit, read as a float: inf
], ids=["2e308", "401_digits", "4300_digits", "5001_digits"])
def test_over_range_integer_literal_is_a_config_error(tmp_path, capsys, literal):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"system.metric = euclidean\nstate.p1 = {literal}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2:" in err and "'state.p1' must be finite" in err
    assert "Traceback" not in err


def test_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_reduce_bundled_config(tmp_path):
    code = main(["reduce", "--config", str(CONFIGS / "reduce.cfg"),
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "reduced.csv")
    assert header == ["t", "rho1", "rho2", "nu", "h"]
    assert np.all(rows[:, 3] == 1.0)
    assert np.max(np.abs(rows[:, 4] - rows[0, 4])) <= 1e-8
    report = load_report(tmp_path)
    names = [record["name"] for record in report["checks"]]
    assert names == ["reduce.energy_drift", "reduction.commutation"]
    assert report["passed"] is True


def test_reduce_irregular_level_exits_3(tmp_path, capsys):
    code = main(["reduce", "--config", str(CONFIGS / "reduce_nu0.cfg"),
                 "--out", str(tmp_path)])
    assert code == 3
    assert "point orbit" in capsys.readouterr().err


def test_reduce_off_level_state_exits_3(tmp_path, capsys):
    cfg = tmp_path / "off.cfg"
    cfg.write_text("\n".join([
        "system.metric = invariant",
        "field.kind = invariant",
        "field.a1 = 0.3", "field.a2 = -0.2", "field.a3 = 0.8",
        "level.mu1 = 0.4", "level.mu2 = -0.7", "level.nu = 1.0",
        "state.p1 = 5.0",
        "run.t_end = 0.5",
    ]) + "\n")
    assert main(["reduce", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "level" in capsys.readouterr().err


def test_reduce_level_that_stalled_finite_differences(tmp_path):
    # The finite-difference reduced gradient left the midpoint fixed point
    # stuck just above its tolerance at step 770 on this level and seed.
    base = [line for line in (CONFIGS / "reduce.cfg").read_text().splitlines()
            if not line.startswith(("level.", "run.seed"))]
    cfg = tmp_path / "stall.cfg"
    cfg.write_text("\n".join(base + [
        "level.mu1 = -0.20114947684238715",
        "level.mu2 = 0.8728841236840061",
        "level.nu = 1.3342396633008455",
        "run.seed = 4",
    ]) + "\n")
    assert main(["reduce", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert load_report(tmp_path)["passed"] is True


def test_reduce_tiny_nu_plane_leaf_exits_3_without_report(tmp_path, capsys):
    base = [line for line in (CONFIGS / "reduce.cfg").read_text().splitlines()
            if not line.startswith("level.nu")]
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("\n".join(base + ["level.nu = 1e-9"]) + "\n")
    assert main(["reduce", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "SingularForm" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_reduce_with_constant_push_control(tmp_path, capsys):
    cfg = tmp_path / "push.cfg"
    cfg.write_text((CONFIGS / "reduce.cfg").read_text() + "\n".join([
        "", "control.kind = constant_push", "control.p1 = 0.3",
        "control.p2 = -0.1", "control.subset = full"]) + "\n")
    # The push does work on the particle, so the energy record fails by design.
    assert main(["reduce", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    by_name = {r["name"]: r for r in load_report(tmp_path)["checks"]}
    assert by_name["reduction.commutation"]["passed"] is True
    assert by_name["reduce.energy_drift"]["passed"] is False


def test_constant_push_tangent_matches_finite_differences():
    push = _constant_push_map(np.array([0.3, -0.1, 0.7]))
    rng = np.random.default_rng(18)
    for _ in range(50):
        state, v = rng.uniform(-2, 2, 6), rng.normal(size=6)
        expected = fd.directional(push.apply, state, v)
        assert np.max(np.abs(push.push(state, v) - expected)) <= 1e-8


def test_report_rejects_negative_residual_and_empty_name():
    for fields in (("x", 1, -1e-3, 1.0), ("", 1, 0.0, 1.0)):
        with pytest.raises(ValueError):
            InvariantReport(0, [CheckRecord(*fields)]).to_json()


def test_nan_residual_exits_3_without_report(tmp_path, capsys, monkeypatch):
    def nan_bracket(seed, samples=10):
        return [CheckRecord("bracket.antisymmetry", samples, np.nan, 1e-12)]

    monkeypatch.setitem(CHECKS, "bracket", nan_bracket)
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("check.names = group_axioms, bracket\n")
    code = main(["check", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "FloatingPointError" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_cli_import_leaves_jsonschema_out():
    probe = ("import sys, heisenmech.cli; "
             "print('jsonschema' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_diverging_simulation_exits_3_without_report(tmp_path, capsys):
    code = main(["simulate", "--config", str(CONFIGS / "diverge.cfg"),
                 "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "step 25" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("method,message", [
    ("rk4", "FloatingPointError: integration produced a non-finite state "
            "at step 0"),
    ("midpoint", "implicit midpoint fixed point did not converge (step 0)")])
def test_overflowing_step_matrix_prints_only_the_failure(tmp_path, method,
                                                         message):
    # The Euclidean particle's rk4 step matrix overflows. Its midpoint step
    # is the Cayley map, which stays orthogonal, so the midpoint case takes
    # the invariant particle, whose fixed-point iteration cannot converge.
    metric = "invariant" if method == "midpoint" else "euclidean"
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text(f"system.mass = 1e-200\nsystem.metric = {metric}\n"
                   "state.p1 = 1.0\nstate.p2 = 2.0\nstate.p3 = -0.5\n"
                   "field.kind = constant\nfield.b12 = 1\n"
                   f"run.method = {method}\nrun.step = 0.001\n")
    result = subprocess.run(
        [sys.executable, "-m", "heisenmech.cli", "simulate", "--config",
         str(cfg), "--out", str(tmp_path)], capture_output=True, text=True)
    assert result.returncode == 3
    assert result.stderr == f"numerical failure: {message}\n"


@pytest.mark.parametrize("metric,code", [("euclidean", 0), ("invariant", 3)])
def test_strong_constant_field_midpoint_run(tmp_path, capsys, metric, code):
    # At b12 = 2000 and h = 1e-3 the fixed-point iteration does not
    # contract. The Euclidean particle steps by the Cayley map and passes;
    # the invariant particle (the negative control) still iterates and
    # exits 3 without a report.
    cfg = tmp_path / "strong.cfg"
    cfg.write_text(f"system.mass = 1.0\nsystem.metric = {metric}\n"
                   "state.p1 = 1.0\nstate.p2 = 2.0\nstate.p3 = -0.5\n"
                   "field.kind = constant\nfield.b12 = 2000\n"
                   "run.method = midpoint\nrun.step = 0.001\n")
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path)]) == code
    if code:
        assert "did not converge (step 0)" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
        return
    report = load_report(tmp_path)
    assert report["passed"] is True
    assert [r["name"] for r in report["checks"]] == ["simulate.energy_drift"]
    assert report["checks"][0]["passed"] is True


# Inputs that overflow inside a run, with the exit code and the last line of
# stderr each gives. The translation by 1e308 fails its construction check
# (a traceback, exit 1); a force map whose images overflow fails a sweep of
# reduce_system as a nan residual (exit 3), in the equivariance sweep at
# factor 1e308 and in the lift sweep when a potential of 1e308 puts the lifts
# near the float range.
OVERFLOWS = (
    ("mr-check", "mr_translation.cfg", ("diffeo.u1 = 2.0", "diffeo.u1 = 1e308"),
     "", 1, "ValueError: base_inverse does not invert base on samples"),
    ("reduce", "reduce.cfg", ("field.a1 = 0.3", "field.a1 = 0.3"),
     "force.kind = body_scaling\nforce.factor = 1e308\n", 3,
     "numerical failure: NotInvariant: force map is not equivariant under "
     "left translation"),
    ("reduce", "reduce.cfg", ("field.a1 = 0.3", "field.a1 = 1e308"),
     "force.kind = body_scaling\nforce.factor = 2.0\n", 3,
     "numerical failure: NotInvariant: reduced Hamiltonian value depends on "
     "the lift"),
)


@pytest.mark.parametrize("command, base, edit, extra, code, last", OVERFLOWS)
def test_overflowing_runs_keep_their_exit_code_and_failure(
        tmp_path, command, base, edit, extra, code, last):
    text = (CONFIGS / base).read_text()
    assert edit[0] in text
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text.replace(*edit) + extra)
    result = subprocess.run(
        [sys.executable, "-m", "heisenmech.cli", command, "--config",
         str(cfg), "--out", str(tmp_path)], capture_output=True, text=True)
    assert result.returncode == code
    assert result.stderr.splitlines()[-1] == last
    assert not (tmp_path / "report.json").exists()


def test_body_scaling_tangent_matches_finite_differences():
    rng = np.random.default_rng(16)
    force = _body_scaling_map(0.7, 0.8)

    def body_round_trip(s):
        q = s[:3]
        mu1, mu2, nu = chart_to_body_array(q, s[3:6])
        p = [0.7 * mu1 + 0.5 * nu * q[1], 0.7 * mu2 - 0.5 * nu * q[0], nu]
        out = np.concatenate([q, p, s[6:]])
        out[6 + (s.size - 6) // 2:] *= 0.8
        return out

    for k in (0, 1):
        for _ in range(50):
            state = rng.uniform(-2, 2, 6 + 2 * k)
            assert np.max(np.abs(force.apply(state)
                                 - body_round_trip(state))) <= 1e-12
            v = rng.normal(size=6 + 2 * k)
            expected = fd.directional(force.apply, state, v)
            assert np.max(np.abs(force.push(state, v) - expected)) <= 1e-8


def test_kk_compare_bundled_config(tmp_path):
    code = main(["kk-compare", "--config", str(CONFIGS / "kk_compare.cfg"),
                 "--out", str(tmp_path)])
    assert code == 0
    report = load_report(tmp_path)
    by_name = {r["name"]: r for r in report["checks"]}
    assert by_name["kk.lambda_drift"]["max_residual"] == 0.0
    assert by_name["kk.trajectory_match"]["passed"] is True


def test_kk_compare_invariant_field(tmp_path):
    # The bundled config's linear field makes every kernel product exact;
    # an invariant field with a generic a makes the float sums round.
    lines = [line for line in (CONFIGS / "kk_compare.cfg").read_text().splitlines()
             if not line.startswith("field.")]
    cfg = tmp_path / "kk_invariant.cfg"
    cfg.write_text("\n".join(lines + ["field.kind = invariant", "field.a1 = 0.3",
                                      "field.a2 = -0.2", "field.a3 = 0.8"]) + "\n")
    assert main(["kk-compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = load_report(tmp_path)
    assert [r["name"] for r in report["checks"]] == [
        "kk.alpha_form", "kk.trajectory_match", "kk.lambda_drift"]
    assert all(r["passed"] for r in report["checks"]) and report["passed"]


def test_one_process_runs_every_subcommand_and_survives_a_usage_error(
        tmp_path, capsys):
    # main builds its parser once per process; a reused parser must keep no
    # state from an earlier call, a failed one included.
    assert cli._build_parser() is cli._build_parser()
    checks = tmp_path / "checks.cfg"
    checks.write_text("check.names = group_axioms\n")
    runs = [(["check", "--config", str(checks), "--seed", "11"], 11),
            (["kk-compare", "--config", str(CONFIGS / "kk_compare.cfg")], 3),
            (["mr-check", "--config", str(CONFIGS / "mr_identity.cfg")], 5),
            (["simulate", "--config", str(CONFIGS / "free_particle.cfg"),
              "--seed", "12"], 12),
            (["check", "--config", str(checks)], 0)]
    for index, (argv, seed) in enumerate(runs):
        out = tmp_path / str(index)
        assert main(["frobnicate"]) == 2
        assert main(["check", "--seed", "-1", "--config", str(checks)]) == 2
        assert main(argv + ["--out", str(out)]) == 0
        assert load_report(out)["environment"]["seed"] == seed
    capsys.readouterr()


def test_mr_identity_fixture_passes(tmp_path):
    assert main(["mr-check", "--config", str(CONFIGS / "mr_identity.cfg"),
                 "--out", str(tmp_path)]) == 0
    report = load_report(tmp_path)
    assert report["checks"][0]["max_residual"] == 0.0


def test_mr_translation_fixture_passes(tmp_path):
    assert main(["mr-check", "--config", str(CONFIGS / "mr_translation.cfg"),
                 "--out", str(tmp_path)]) == 0
    record = load_report(tmp_path)["checks"][0]
    assert record["name"] == "mr1.symplectic"
    assert record["max_residual"] <= 1e-13


def test_large_translation_fixture_passes(tmp_path):
    # (45, 30) was refused at construction by an absolute bound on the lift
    # check, which ended mr-check in a traceback.
    cfg = tmp_path / "far.cfg"
    cfg.write_text((CONFIGS / "mr_translation.cfg").read_text()
                   .replace("diffeo.u1 = 2.0", "diffeo.u1 = 45")
                   .replace("diffeo.u2 = 1.0", "diffeo.u2 = 30"))
    assert main(["mr-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert load_report(tmp_path)["checks"][0]["name"] == "mr1.symplectic"


def test_far_translation_writes_a_report(tmp_path):
    # base_inverse's round trip at u1 = 1e9 is off by about 1e-7, which an
    # absolute 1e-8 refused at construction: a traceback out of mr-check.
    cfg = tmp_path / "far.cfg"
    cfg.write_text((CONFIGS / "mr_translation.cfg").read_text()
                   .replace("diffeo.u1 = 2.0", "diffeo.u1 = 1e9"))
    code = main(["mr-check", "--config", str(cfg), "--out", str(tmp_path)])
    record = load_report(tmp_path)["checks"][0]
    assert record["name"] == "mr1.symplectic"
    assert code == (0 if record["passed"] else 1)


@pytest.mark.parametrize("fixture,failing", [
    ("mr1_shear.cfg", "mr1.symplectic"),
    ("mr2_level_mismatch.cfg", "mr2.level"),
    ("mr3_zero_control.cfg", "mr3.vertical"),
])
def test_negative_mr_fixtures_exit_1(tmp_path, fixture, failing):
    code = main(["mr-check", "--config", str(CONFIGS / fixture),
                 "--out", str(tmp_path)])
    assert code == 1
    report = load_report(tmp_path)
    assert report["passed"] is False
    by_name = {r["name"]: r for r in report["checks"]}
    assert by_name[failing]["passed"] is False
    assert by_name[failing]["max_residual"] >= 1e-2


# The bound each MR checker writes into its records.
MR_BOUNDS = {"mr1.symplectic": 1e-5, "mr2.level": 1e-7, "mr2.isotropy": 1e-7,
             "mr3.vertical": 1e-6, "mr3.horizontal": 1e-8}


@pytest.mark.parametrize("fixture", ["mr_identity.cfg", "mr_translation.cfg",
                                     "mr1_shear.cfg", "mr2_level_mismatch.cfg",
                                     "mr3_zero_control.cfg"])
def test_mr_check_records_carry_the_checker_bounds(tmp_path, fixture):
    main(["mr-check", "--config", str(CONFIGS / fixture), "--out", str(tmp_path)])
    records = load_report(tmp_path)["checks"]
    assert records
    for record in records:
        assert record["threshold"] == MR_BOUNDS[record["name"]]


def test_check_all_holds_the_identity_records_to_rounding(tmp_path):
    cfg = tmp_path / "check.cfg"
    cfg.write_text("run.seed = 0\n")
    assert main(["check", "--all", "--config", str(cfg),
                 "--out", str(tmp_path), "--seed", "42"]) == 0
    records = [r for r in load_report(tmp_path)["checks"]
               if r["name"].startswith("mr")]
    assert [r["name"] for r in records] == list(MR_BOUNDS)
    assert all(r["threshold"] == 1e-10 and r["passed"] for r in records)


# mr3 with a force on the target system too: the check transports it through
# the inverse lift. The translation is an exact symmetry of the invariant
# particle and its body_scaling force, so equal forces match with the zero
# subset and unequal ones do not; the shear leaves a horizontal residual that
# no control subset absorbs.
TRANSLATION = ("diffeo.kind = translation", "diffeo.u1 = 2", "diffeo.u2 = 1",
               "diffeo.alpha = 0.5")


@pytest.mark.parametrize("lines, code, failing", [
    ((*TRANSLATION, "force2.factor = 0.7", "control.subset = zero"), 0, None),
    ((*TRANSLATION, "force2.factor = 0.4", "control.subset = zero"), 1,
     "mr3.vertical"),
    (("diffeo.kind = shear", "force2.factor = 0.7", "control.subset = full"), 1,
     "mr3.horizontal"),
], ids=["translation", "unequal_forces", "shear"])
def test_mr3_with_a_target_force(tmp_path, lines, code, failing):
    cfg = tmp_path / "force2.cfg"
    cfg.write_text("\n".join([
        "mr.check = mr3", "system.metric = invariant", "field.kind = invariant",
        "field.a1 = 0.3", "field.a2 = -0.2", "field.a3 = 0.8",
        "force.kind = body_scaling", "force.factor = 0.7",
        "force2.kind = body_scaling", "run.seed = 3", *lines]) + "\n")
    assert main(["mr-check", "--config", str(cfg), "--out", str(tmp_path)]) == code
    by_name = {r["name"]: r for r in load_report(tmp_path)["checks"]}
    assert list(by_name) == ["mr3.vertical", "mr3.horizontal"]
    for name, record in by_name.items():
        if name == failing:
            assert record["max_residual"] >= 1.0
        else:
            # measured at most 9.3e-16
            assert record["max_residual"] <= 1e-8


# The transported force declares its tangent: the lift's tangent after the
# force's push after the inverse of the lift's tangent at the preimage. On
# the exact forced translation mr3.vertical reads rounding, as it does
# without forces: measured 9.3e-16 and 4.4e-16. Unequal factors (1.255)
# and the shear (2.951) still fail it.
FORCED = ("force.kind = body_scaling", "force.factor = 0.7",
          "force2.kind = body_scaling")


@pytest.mark.parametrize("lines, code", [
    ((*TRANSLATION, *FORCED, "force2.factor = 0.7"), 0),
    (TRANSLATION, 0),
    ((*TRANSLATION, *FORCED, "force2.factor = 0.5"), 1),
    (("diffeo.kind = shear", *FORCED, "force2.factor = 0.7"), 1),
], ids=["forced", "unforced", "unequal_factors", "shear"])
def test_mr3_transports_the_target_force_by_declared_tangents(tmp_path, lines,
                                                              code):
    cfg = tmp_path / "transport.cfg"
    cfg.write_text("\n".join([
        "mr.check = mr3", "system.metric = invariant", "field.kind = invariant",
        "field.a1 = 0.3", "field.a2 = -0.2", "field.a3 = 0.8",
        "control.subset = zero", "run.seed = 3", *lines]) + "\n")
    assert main(["mr-check", "--config", str(cfg), "--out", str(tmp_path)]) == code
    vertical, = (r for r in load_report(tmp_path)["checks"]
                 if r["name"] == "mr3.vertical")
    if code == 0:
        assert vertical["max_residual"] <= 1e-14
    else:
        assert vertical["max_residual"] >= 1.0


def test_mr3_without_subset_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nosubset.cfg"
    cfg.write_text("mr.check = mr3\nfield.kind = zero\n")
    assert main(["mr-check", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "control.subset" in capsys.readouterr().err


def test_console_module_runs_as_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "heisenmech.cli", "mr-check",
         "--config", str(CONFIGS / "mr1_shear.cfg"), "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "FAIL mr1.symplectic" in result.stdout


def row_by_row_csv(header, rows):
    """The text of the row-by-row writer _write_csv replaced: one repr per
    cell, one write per row."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, row.tolist())) for row in rows]
    return "\n".join(lines) + "\n"


def csv_edge_cases():
    """Inputs whose cells a dedupe on float equality, or on one block,
    would get wrong, with the shapes and layouts the writer must accept."""
    rng = np.random.default_rng(20)
    block = cli._CSV_ROWS
    signed_zeros = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]])
    nans = np.array([[np.nan, np.copysign(np.nan, -1.0)],
                     [np.copysign(np.nan, -1.0), np.nan], [np.nan, -0.0]])
    n = 3 * block + 7
    columns = np.column_stack([
        np.arange(n) * 1e-3,                            # every value distinct
        np.full(n, 1.1),                                # constant
        rng.choice([0.1, -0.0, 0.0, 2.0 / 3.0], n),     # few values, all blocks
        np.repeat(rng.normal(size=4), block - 1)[:n],   # runs across boundaries
        np.repeat(rng.normal(size=4), block)[:n],       # a run per block
    ])
    wide = rng.normal(size=(block + 3, 8)).round(1)     # repeats, -0.0
    return {
        "signed zeros": signed_zeros,
        "nans": nans,
        "many blocks": columns,
        "one row": columns[:1],
        "one column": columns[:, 2:3],
        "column slice": wide[:, ::2],
        "fortran order": np.asfortranarray(columns),
    }


def test_csv_rows_match_per_value_float_repr(tmp_path):
    edge = [-0.0, 5e-324, 1e308, 0.1, 1.0, 1e16, np.nan, -np.inf, 1.0 / 3.0]
    rows = np.array([edge, edge[::-1]])
    _write_csv(tmp_path / "rows.csv", ["c%d" % i for i in range(len(edge))], rows)
    expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    text = (tmp_path / "rows.csv").read_text()
    assert text == ",".join("c%d" % i for i in range(len(edge))) + "\n" + expected
    assert text.splitlines()[1].startswith("-0.0,5e-324,1e+308,0.1,1.0,1e+16,nan,")
    cases = csv_edge_cases()
    for name, rows in cases.items():
        header = ["c%d" % i for i in range(rows.shape[1])]
        _write_csv(tmp_path / "rows.csv", header, rows)
        text = (tmp_path / "rows.csv").read_text()
        assert text == row_by_row_csv(header, rows), name
    # Bits, not values: 0.0 and -0.0 keep their own text.
    _write_csv(tmp_path / "rows.csv", ["a", "b"], cases["signed zeros"])
    assert (tmp_path / "rows.csv").read_text().splitlines()[1:] == [
        "0.0,1.0", "-0.0,1.0", "0.0,-0.0", "-0.0,0.0"]


@pytest.mark.parametrize("command, config, name", [
    ("simulate", "heisenberg_particle.cfg", "trajectory.csv"),
    ("reduce", "reduce.cfg", "reduced.csv"),
])
def test_trajectory_csv_is_the_row_by_row_bytes(tmp_path, monkeypatch, command,
                                               config, name):
    written = []

    def recording(path, header, rows):
        written.append((path, header, rows.copy()))
        return _write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", recording)
    assert main([command, "--config", str(CONFIGS / config),
                 "--out", str(tmp_path)]) == 0
    [(path, header, rows)] = written
    assert path == tmp_path / name
    assert len(rows) > cli._CSV_ROWS
    assert path.read_bytes() == row_by_row_csv(header, rows).encode()


@pytest.mark.parametrize("lines, where", [
    ("run.t_end = 1.0\nrun.step = 1e-300\n", "tiny.cfg:2"),
    ("run.step = 1e-300\n", "tiny.cfg:1"),
    ("run.t_end = 1e300\nrun.step = 1e-300\n", "tiny.cfg:2"),
    ("run.t_end = 2000.0\n", "tiny.cfg:1"),
])
def test_step_count_above_the_cap_exits_2(tmp_path, capsys, lines, where):
    # The lines come first, so the line numbers hold; the rest of each run
    # comes from its bundled config.
    cfg = tmp_path / "tiny.cfg"
    for command, base, section in (("simulate", "free_particle.cfg", "run"),
                                   ("reduce", "reduce.cfg", "run"),
                                   ("kk-compare", "kk_compare.cfg", "kk")):
        kept = [line for line in (CONFIGS / base).read_text().splitlines()
                if not line.startswith(f"{section}.t_end")
                and not line.startswith(f"{section}.step")]
        cfg.write_text(lines.replace("run.", f"{section}.") + "\n".join(kept))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert where in err and "steps, above the cap of 1,000,000" in err
        assert f"{section}.t_end / {section}.step" in err
        assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_step_count_at_the_cap_is_accepted():
    from heisenmech.cli import MAX_STEPS, _run_settings
    from heisenmech.config import ExperimentConfig
    cfg = ExperimentConfig({"run.t_end": float(MAX_STEPS), "run.step": 1.0})
    assert _run_settings(cfg) == (float(MAX_STEPS), 1.0, "midpoint")


def test_step_cap_exits_2_without_traceback_in_a_subprocess(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("run.t_end = 1.0\nrun.step = 1e-300\n")
    result = subprocess.run(
        [sys.executable, "-m", "heisenmech.cli", "simulate", "--config",
         str(cfg), "--out", str(tmp_path)], capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr.startswith("config error: ")
    assert "1e+300 steps" in result.stderr and "Traceback" not in result.stderr


SAMPLE_KEYS = (("reduce", "reduce.cfg", "check.samples"),
               ("check", None, "check.samples"),
               ("kk-compare", "kk_compare.cfg", "check.samples"),
               ("mr-check", "mr_identity.cfg", "mr.samples"),
               ("mr-check", "mr2_level_mismatch.cfg", "mr.samples"),
               ("mr-check", "mr3_zero_control.cfg", "mr.samples"))


def _sample_config(path, base, key, samples):
    """base (or a check of group_axioms) with key = samples on line 1."""
    if base is None:
        kept = ["check.names = group_axioms"]
    else:
        kept = [line for line in (CONFIGS / base).read_text().splitlines()
                if not line.startswith(key)]
    path.write_text(f"{key} = {samples}\n" + "\n".join(kept) + "\n")


@pytest.mark.parametrize("command, base, key", SAMPLE_KEYS)
def test_sample_count_above_the_cap_exits_2(tmp_path, capsys, command, base,
                                            key):
    # Rejected before the sweep draws anything: 100,001 samples never run.
    assert cli.MAX_SAMPLES == 100_000
    cfg = tmp_path / "many.cfg"
    _sample_config(cfg, base, key, 100_001)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:1: field {key!r} asks for "
                          "100,001 samples, above the cap of 100,000")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, base, key", SAMPLE_KEYS)
def test_sample_count_at_the_cap_is_accepted(tmp_path, monkeypatch, command,
                                             base, key):
    # The boundary, at a cap small enough to run.
    monkeypatch.setattr(cli, "MAX_SAMPLES", 3)
    cfg = tmp_path / "few.cfg"
    _sample_config(cfg, base, key, 3)
    # 1 for the negative mr fixtures, which fail by design
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) in (0, 1)
    assert 3 in {r["samples"] for r in load_report(tmp_path)["checks"]}
    _sample_config(cfg, base, key, 4)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        raise OSError("no file descriptor")


@pytest.mark.parametrize("names, code", [("group_axioms", 0), ("", 0)])
def test_closed_stdout_keeps_the_exit_code(tmp_path, monkeypatch, names, code):
    cfg = tmp_path / "check.cfg"
    cfg.write_text(f"check.names = {names}\n" if names else "")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == code
    assert (tmp_path / "report.json").exists()


def test_failing_run_keeps_exit_1_on_a_closed_stdout(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["mr-check", "--config", str(CONFIGS / "mr1_shear.cfg"),
                 "--out", str(tmp_path)]) == 1


def test_closed_pipe_leaves_no_traceback_in_a_subprocess(tmp_path):
    cfg = tmp_path / "check.cfg"
    cfg.write_text("check.names = group_axioms\n")
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the run prints
    try:
        result = subprocess.run(
            [sys.executable, "-m", "heisenmech.cli", "check", "--config",
             str(cfg), "--out", str(tmp_path)],
            stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert result.returncode == 0
    assert result.stderr == ""


def _output_config(path, base, lines):
    """base with lines first, so their line numbers hold."""
    path.write_text(lines + (CONFIGS / base).read_text())
    return str(path)


@pytest.mark.parametrize("command, base, key", [
    ("simulate", "free_particle.cfg", "output.trajectory"),
    ("reduce", "reduce.cfg", "output.trajectory"),
    ("simulate", "free_particle.cfg", "output.report"),
    ("check", "free_particle.cfg", "output.report"),
])
@pytest.mark.parametrize("name", ["", ".", "..", "sub/t.csv", "nodir/r.json"])
def test_an_output_name_that_is_no_plain_file_name_exits_2(
        tmp_path, capsys, command, base, key, name):
    cfg = _output_config(tmp_path / "out.cfg", base, f"{key} = {name}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert f"out.cfg:1: field {key!r}" in err
    # the names are read before anything runs or is written
    assert not out.exists()


@pytest.mark.parametrize("command, base, lines", [
    ("simulate", "free_particle.cfg", "output.trajectory = report.json\n"),
    ("reduce", "reduce.cfg", "output.report = reduced.csv\n"),
    ("simulate", "free_particle.cfg",
     "output.trajectory = same.out\noutput.report = same.out\n"),
], ids=["trajectory", "report", "both"])
def test_a_trajectory_and_report_of_one_name_exit_2(tmp_path, capsys, command,
                                                     base, lines):
    cfg = _output_config(tmp_path / "out.cfg", base, lines)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert ("out.cfg:1: fields 'output.trajectory' and 'output.report' both "
            "name" in err)
    assert not out.exists()


def test_output_names_name_the_written_files(tmp_path):
    cfg = _output_config(tmp_path / "out.cfg", "free_particle.cfg",
                         "output.trajectory = t.csv\noutput.report = r.json\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.cfg", "r.json",
                                                          "t.csv"]
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["artifacts"] == {"trajectory": "t.csv"}


@pytest.mark.parametrize("below", [False, True])
def test_an_out_that_is_not_a_directory_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "sub" if below else blocker
    assert main(["check", "--all", "--config", str(CONFIGS / "free_particle.cfg"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: --out {out} ") and "Traceback" not in err
    assert blocker.read_text() == "kept\n"
