"""Tooling: the exported names of every module resolve, deleted ones stay gone,
and the option budget holds."""

import ast
import dataclasses
import importlib
import inspect
import operator
from pathlib import Path

import pytest

import heisenmech

MODULES = ("group", "orbit", "connection", "magnetic", "dynamics", "reduction",
           "fd", "checks", "config", "report", "errors", "cli")

# Phase-point types and their conversions, replaced by flat chart states;
# vec2, replaced by flat (3,) group, algebra and dual arrays; and log,
# level_set_contains and _shifted_hamiltonian, which only tests called
# (modified_hamiltonian is the one builder of the shifted Hamiltonian);
# _sign, since the orbit layer has the minus convention only;
# parse_config_text, which nothing called; reduced_hamiltonian, since
# reduce_system reads the reduced value off its stored level lift; and
# _affine_generator, since the propagator reads its generator off the vector
# field (dynamics._affine_pair). The unchecked stacked twins of checked
# laws, since each checked function takes stacks, and the per-call-site
# decisions whether a callable takes a stack (_declared, _stacks), the
# projection helper and the lifted-state check that came with them.
# JacobiResult, since check_jacobi reads declared hessians only and returns
# its residual; momentum_map_array, since momentum_map is J0 composed with
# the fiber shift on the chart state.
DELETED = ("PhasePoint", "ExtendedPhasePoint", "MomentumValue", "body_to_chart",
           "chart_to_body", "extended_to_chart", "extended_from_chart",
           "left_translate_point", "extended_momentum_shift", "vec2",
           "OrbitPoint", "log", "level_set_contains", "_shifted_hamiltonian",
           "_sign", "parse_config_text", "reduced_hamiltonian",
           "_affine_generator", "_left_translate", "_omega_matrix",
           "_magnetic_form", "_momentum_map", "_project_chart",
           "_vertical_lift", "_declared", "_stacks", "_projections", "_lifted",
           "JacobiResult", "momentum_map_array")

# Parameters that only ever took their default, now constants in the body:
# among them the MR record bounds (check_mr_identity replaces the thresholds
# of its records) and the midpoint stop rule, which its drivers write as
# literals.
REMOVED_PARAMETERS = (
    *(("orbit", name, "sign") for name in (
        "magnetic_lie_poisson", "bracket_function", "check_jacobi",
        "_generator_scale", "orbit_symplectic_form", "orbit_form_matrix",
        "orbit_hamiltonian_vector_field", "orbit_form_on_chart_vectors")),
    ("orbit", "classify_orbit", "tol"),
    ("magnetic", "reduce_point", "tol"),
    ("magnetic", "level_lift", "alpha"),
    ("reduction", "reduce_system", "invariance_tol"),
    ("reduction", "reduce_system", "lift_tol"),
    ("reduction", "reduce_system", "seed"),
    ("reduction", "check_commutation", "threshold"),
    ("reduction", "kk_alpha_form_check", "threshold"),
    ("reduction", "kk_reduce_and_compare", "method"),
    ("reduction", "kk_reduce_and_compare", "match_threshold"),
    ("reduction", "kk_reduce_and_compare", "drift_threshold"),
    ("reduction", "_independent_rows", "tol"),
    ("fd", "gradient", "step"),
    ("fd", "one_form_curl", "step"),
    ("fd", "two_form_closedness", "step"),
    ("cli", "build_system", "field_prefix"),
    ("cli", "build_system", "force_prefix"),
    ("cli", "_drift_record", "threshold"),
    ("reduction", "check_mr1", "threshold"),
    ("reduction", "check_mr2_equivariance", "level_threshold"),
    ("reduction", "check_mr2_equivariance", "isotropy_threshold"),
    ("reduction", "check_mr3_matching", "vertical_threshold"),
    ("reduction", "check_mr3_matching", "horizontal_threshold"),
    ("dynamics", "_midpoint_step", "tol"),
    ("dynamics", "_midpoint_step", "cap"),
    ("dynamics", "ControlSubset.contains", "tol"),
)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"heisenmech.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    for attr in exported:
        assert hasattr(module, attr), f"heisenmech.{name}.{attr}"
    assert not set(DELETED) & set(exported)
    assert not [attr for attr in DELETED if hasattr(module, attr)]


def test_package_exports_resolve():
    assert len(heisenmech.__all__) == len(set(heisenmech.__all__))
    for attr in heisenmech.__all__:
        assert hasattr(heisenmech, attr), attr
    assert not set(DELETED) & set(heisenmech.__all__)
    assert not [attr for attr in DELETED if hasattr(heisenmech, attr)]


def test_deleted_members_stay_gone():
    assert not hasattr(heisenmech.DualFunction, "gradient_is_analytic")
    assert not hasattr(heisenmech.OrbitFunction, "gradient_is_analytic")
    assert not hasattr(heisenmech.InvariantReport, "extend")
    # A lift is declared; the transpose formula is only the construction
    # check's reference.
    assert not hasattr(heisenmech.DiffeoSpec, "_canonical_lift")
    # Derivatives are declared: neither type has a difference to fall back on.
    for cls, name in ((heisenmech.DualFunction, "gradient"),
                      (heisenmech.DiffeoSpec, "lift_tangent")):
        field, = (f for f in dataclasses.fields(cls) if f.name == name)
        assert field.default is dataclasses.MISSING, (cls, name)
    # Declarations are read as declared: a Hamiltonian's kind selects the
    # propagator, which reads its generator off the vector field, and the
    # checkers call a DiffeoSpec's lift, lift_inverse and lift_tangent.
    assert "form" not in {f.name for f in
                          dataclasses.fields(heisenmech.HamiltonianSpec)}
    for name in ("apply_lift", "apply_inverse_lift", "push_lift"):
        assert not hasattr(heisenmech.DiffeoSpec, name), name
    # The geodesic field upstairs is written once, as the float kernel of
    # the system's field and mass: no Hamiltonian is stored beside them.
    assert [f.name for f in dataclasses.fields(heisenmech.KKSystem)] == [
        "field", "m", "mu"]


def test_removed_parameters_stay_gone():
    assert len(REMOVED_PARAMETERS) == 34
    for module, function, parameter in REMOVED_PARAMETERS:
        fn = operator.attrgetter(function)(
            importlib.import_module(f"heisenmech.{module}"))
        assert parameter not in inspect.signature(fn).parameters, (
            f"heisenmech.{module}.{function}({parameter})")


def test_each_law_is_written_once():
    # A module that defines both f and _f writes one law twice: a checked
    # function and an unchecked twin. The one twin kept is
    # magnetic._momentum_shift: the shifted route of dynamics.integrate runs
    # it on iterates that may overflow, which the integrator reports as a
    # numerical failure rather than as a refused input.
    pairs = set()
    for path in sorted(Path(heisenmech.__file__).parent.glob("*.py")):
        names = {node.name for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef)}
        pairs |= {(path.stem, name) for name in names if "_" + name in names}
    assert pairs == {("magnetic", "momentum_shift")}
    # Only the declaring types map a user's one-point callables over rows;
    # the modules that call them pass stacks.
    for name in ("reduction", "checks"):
        assert not hasattr(importlib.import_module(f"heisenmech.{name}"),
                           "_map_rows")


# The option budget: ceilings on what a caller can set. A change that adds
# an option raises a ceiling here and says so in CHANGES.md.
# Defaulted parameters: len(args.defaults) plus the non-None kw_defaults of
# every FunctionDef and Lambda that ast.walk finds in src/heisenmech/*.py.
DEFAULTED_PARAMETERS = 58
# Dataclass fields: the annotated assignments in the body of every class
# decorated with dataclass (bare or called), and of those the ones that
# have a default.
DATACLASS_FIELDS = 65
DEFAULTED_FIELDS = 23


def _is_dataclass(decorator: ast.expr) -> bool:
    name = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(name, ast.Name) and name.id == "dataclass"


def test_option_budget():
    parameters = fields = defaulted_fields = 0
    for path in sorted(Path(heisenmech.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                parameters += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif (isinstance(node, ast.ClassDef)
                  and any(map(_is_dataclass, node.decorator_list))):
                declared = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                fields += len(declared)
                defaulted_fields += sum(s.value is not None for s in declared)
    assert parameters <= DEFAULTED_PARAMETERS
    assert fields <= DATACLASS_FIELDS
    assert defaulted_fields <= DEFAULTED_FIELDS
