"""Exception and warning types shared across the package."""

from __future__ import annotations

import numpy as np


class NonConvergence(RuntimeError):
    """Fixed-point iteration of the implicit midpoint step failed to converge."""

    def __init__(self, message: str, step_index: int, residual: float):
        super().__init__(message)
        self.step_index = step_index
        self.residual = residual


class SingularForm(ValueError):
    """The assembled symplectic form matrix is singular.

    Carries the offending matrix so callers can report which block degenerated.
    """

    def __init__(self, message: str, matrix: np.ndarray):
        super().__init__(message)
        self.matrix = matrix


class MissingPotential(ValueError):
    """An operation needing a vector potential was given a field without one."""


class NotOnLevelSet(ValueError):
    """The supplied phase point does not lie on the requested momentum level."""


class NotInvariant(ValueError):
    """A Hamiltonian, force, or control failed its group-invariance sweep."""


class IrregularLevel(ValueError):
    """The momentum level is incompatible with the expected orbit type."""


class ControlSubsetMissing(ValueError):
    """A matching check that needs a control subset was given a system without one."""


class ConfigError(ValueError):
    """A config file is malformed or names an unknown field or check."""


class DegenerateForm(UserWarning):
    """The orbit form is trivially zero (point orbit with no magnetic term)."""


class NonSymplecticWarning(UserWarning):
    """Integration fell back to a non-symplectic scheme."""
