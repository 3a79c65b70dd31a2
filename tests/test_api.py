"""Tooling: the exported names of every module resolve, and deleted ones stay gone."""

import importlib

import pytest

import heisenmech

MODULES = ("group", "orbit", "connection", "magnetic", "dynamics", "reduction",
           "fd", "checks", "config", "report", "errors", "cli")

# Phase-point types and their conversions, replaced by flat chart states;
# vec2, replaced by flat (3,) group, algebra and dual arrays; and log,
# level_set_contains and _shifted_hamiltonian, which only tests called
# (modified_hamiltonian is the one builder of the shifted Hamiltonian).
DELETED = ("PhasePoint", "ExtendedPhasePoint", "MomentumValue", "body_to_chart",
           "chart_to_body", "extended_to_chart", "extended_from_chart",
           "left_translate_point", "extended_momentum_shift", "vec2",
           "OrbitPoint", "log", "level_set_contains", "_shifted_hamiltonian")


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
