"""Central finite-difference helpers shared by the checkers, the two
derivative fallbacks left (OrbitFunction.grad and FiberMap.push), and tests."""

from __future__ import annotations

from typing import Callable

import numpy as np

GRADIENT_STEP = 1e-6
TANGENT_STEP = 1e-5


def gradient(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function on R^n, step
    GRADIENT_STEP.

    x may be a stack (..., n) when f is: the last axis is differentiated.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[i] = GRADIENT_STEP
        out[..., i] = (f(x + e) - f(x - e)) / (2.0 * GRADIENT_STEP)
    return out


def jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             step: float = TANGENT_STEP) -> np.ndarray:
    """Central-difference Jacobian matrix of a map R^n -> R^m.

    x may be a stack (..., n) when f is: the result is (..., m, n).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[i] = step
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * step))
    return np.stack(cols, axis=-1)


def directional(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                v: np.ndarray, step: float = TANGENT_STEP) -> np.ndarray:
    """Directional derivative of f at x along v by central differences."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (np.asarray(f(x + step * v)) - np.asarray(f(x - step * v))) / (2.0 * step)


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
    n = np.asarray(q, dtype=float).size
    dB = np.empty((n, n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = TANGENT_STEP
        dB[i] = (np.asarray(B(q + e)) - np.asarray(B(q - e))) / (2.0 * TANGENT_STEP)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                worst = max(worst, abs(dB[i][j, k] + dB[j][k, i] + dB[k][i, j]))
    return worst
