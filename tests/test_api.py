"""Tooling: the exported names of every module resolve, and deleted ones stay gone."""

import importlib
import inspect

import pytest

import heisenmech

MODULES = ("group", "orbit", "connection", "magnetic", "dynamics", "reduction",
           "fd", "checks", "config", "report", "errors", "cli")

# Phase-point types and their conversions, replaced by flat chart states;
# vec2, replaced by flat (3,) group, algebra and dual arrays; and log,
# level_set_contains and _shifted_hamiltonian, which only tests called
# (modified_hamiltonian is the one builder of the shifted Hamiltonian);
# _sign, since the orbit layer has the minus convention only, and
# parse_config_text, which nothing called.
DELETED = ("PhasePoint", "ExtendedPhasePoint", "MomentumValue", "body_to_chart",
           "chart_to_body", "extended_to_chart", "extended_from_chart",
           "left_translate_point", "extended_momentum_shift", "vec2",
           "OrbitPoint", "log", "level_set_contains", "_shifted_hamiltonian",
           "_sign", "parse_config_text")

# Parameters that only ever took their default, now constants in the body.
REMOVED_PARAMETERS = (
    *(("orbit", name, "sign") for name in (
        "magnetic_lie_poisson", "bracket_function", "check_jacobi",
        "_generator_scale", "orbit_symplectic_form", "orbit_form_matrix",
        "orbit_hamiltonian_vector_field", "orbit_form_on_chart_vectors")),
    ("orbit", "classify_orbit", "tol"),
    ("magnetic", "reduce_point", "tol"),
    ("magnetic", "level_lift", "alpha"),
    ("magnetic", "reduced_hamiltonian", "invariance_tol"),
    ("magnetic", "reduced_hamiltonian", "seed"),
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


def test_removed_parameters_stay_gone():
    assert len(REMOVED_PARAMETERS) == 28
    for module, function, parameter in REMOVED_PARAMETERS:
        fn = getattr(importlib.import_module(f"heisenmech.{module}"), function)
        assert parameter not in inspect.signature(fn).parameters, (
            f"heisenmech.{module}.{function}({parameter})")
