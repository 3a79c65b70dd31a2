"""Central finite differences, written once in `directional`: the Jacobian,
the gradient and the closedness residual are its columns. The checkers, the
two derivative fallbacks left (OrbitFunction.grad and FiberMap.push), a
declared exact tangent (DiffeoSpec.group_translation) and the tests use them."""

from __future__ import annotations

from typing import Callable

import numpy as np

GRADIENT_STEP = 1e-6
TANGENT_STEP = 1e-5


def directional(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                v: np.ndarray, step: float = TANGENT_STEP) -> np.ndarray:
    """Directional derivative of f at x along v by central differences."""
    x = np.asarray(x, dtype=float)
    s = step * np.asarray(v, dtype=float)
    return (np.asarray(f(x + s)) - np.asarray(f(x - s))) / (2.0 * step)


def jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             step: float = TANGENT_STEP) -> np.ndarray:
    """Central-difference Jacobian matrix of a map R^n -> R^m: column i is
    the directional derivative along e_i.

    x may be a stack (..., n) when f is: the result is (..., m, n).
    """
    n = np.shape(x)[-1]
    return np.stack([directional(f, x, e, step) for e in np.eye(n)], axis=-1)


def gradient(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function on R^n, step
    GRADIENT_STEP.

    x may be a stack (..., n) when f is: the last axis is differentiated.
    """
    return jacobian(f, x, GRADIENT_STEP)


def one_form_curl(A: Callable[[np.ndarray], np.ndarray],
                  q: np.ndarray) -> np.ndarray:
    """Exterior derivative of a one-form as the antisymmetric matrix dA(e_i, e_j).

    Returns the matrix with (i, j) entry d_i A_j - d_j A_i (step TANGENT_STEP).
    q may be a stack (..., n) when A is: the result is (..., n, n).
    """
    D = jacobian(A, q)  # D[..., m, i] = d_i A_m
    return np.swapaxes(D, -1, -2) - D


def two_form_closedness(B: Callable[[np.ndarray], np.ndarray],
                        q: np.ndarray) -> float:
    """Max cyclic-sum residual |d_i B_jk + d_j B_ki + d_k B_ij| at q, by
    central differences of step TANGENT_STEP.

    Zero (to FD accuracy) exactly when the two-form with coefficient matrix B(q)
    is closed near q.
    """
    D = jacobian(B, q)  # D[j, k, i] = d_i B_jk
    return float(np.max(np.abs(
        D.transpose(2, 0, 1) + D.transpose(1, 2, 0) + D)))
