"""Geometric mechanics on the Heisenberg group.

Lie-group and coadjoint-orbit structure, magnetic cotangent-bundle geometry,
controlled Hamiltonian dynamics, and numerical checkers for reduction and
equivalence properties, with a deterministic command-line front end.
"""

__version__ = "0.1.0"

from .group import (
    AlgebraElement,
    CoAlgebraElement,
    GroupElement,
    adjoint,
    area_form,
    bracket,
    coad_star,
    coadjoint,
    exp,
    identity,
    inverse,
    log,
    multiply,
    pairing,
    to_matrix,
)
from .orbit import (
    DualFunction,
    MagneticCocycle,
    OrbitFunction,
    check_jacobi,
    classify_orbit,
    magnetic_lie_poisson,
    orbit_form_matrix,
    orbit_symplectic_form,
)
from .connection import (
    center_momentum_map,
    curvature,
    locked_inertia,
    mechanical_connection,
    nu_component,
    right_invariant_metric,
)
from .magnetic import (
    MagneticField,
    left_translate,
    magnetic_form,
    momentum_map,
    momentum_shift,
    reduce_point,
    sample_level_point,
)
from .dynamics import (
    ControlSubset,
    FiberMap,
    HamiltonianSpec,
    RCHSystem,
    Trajectory,
    euclidean_kinetic_hamiltonian,
    hamiltonian_vector_field,
    heisenberg_particle,
    integrate,
    invariant_kinetic_hamiltonian,
    modified_hamiltonian,
    quadratic_hamiltonian,
    rch_vector_field,
    vertical_lift,
)
from .reduction import (
    CheckRecord,
    DiffeoSpec,
    KKSystem,
    ReducedRCHSystem,
    check_commutation,
    check_mr1,
    check_mr2_equivariance,
    check_mr3_matching,
    integrate_reduced,
    kaluza_klein_system,
    kk_reduce_and_compare,
    reduce_system,
)
from .report import InvariantReport
from .checks import CHECKS, run_named_checks

__all__ = [
    "AlgebraElement", "CoAlgebraElement", "GroupElement", "adjoint",
    "area_form", "bracket", "coad_star", "coadjoint", "exp", "identity",
    "inverse", "log", "multiply", "pairing", "to_matrix",
    "DualFunction", "MagneticCocycle", "OrbitFunction",
    "check_jacobi", "classify_orbit", "magnetic_lie_poisson",
    "orbit_form_matrix", "orbit_symplectic_form",
    "center_momentum_map", "curvature", "locked_inertia",
    "mechanical_connection", "nu_component", "right_invariant_metric",
    "MagneticField", "left_translate", "magnetic_form", "momentum_map",
    "momentum_shift", "reduce_point", "sample_level_point",
    "ControlSubset", "FiberMap", "HamiltonianSpec", "RCHSystem", "Trajectory",
    "euclidean_kinetic_hamiltonian", "hamiltonian_vector_field",
    "heisenberg_particle", "integrate", "invariant_kinetic_hamiltonian",
    "modified_hamiltonian", "quadratic_hamiltonian", "rch_vector_field",
    "vertical_lift",
    "CheckRecord", "DiffeoSpec", "KKSystem", "ReducedRCHSystem",
    "check_commutation", "check_mr1", "check_mr2_equivariance",
    "check_mr3_matching", "integrate_reduced", "kaluza_klein_system",
    "kk_reduce_and_compare", "reduce_system",
    "InvariantReport", "CHECKS", "run_named_checks",
    "__version__",
]
