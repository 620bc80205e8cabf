"""Scalar cyclic coordinate descent for one LASSO system: the reference
the production all-zone solver (``estimators.solve_lasso_batch``) is
compared against.

It works on the residual y - Z phi, one column at a time, with a Python
soft-threshold, so it shares no arithmetic with the exact Gram-matrix
homotopy of the production solver. Its stopping rule and sweep limit are
its own.
"""

import numpy as np

from stardemand.errors import DataError

TOLERANCE = 1e-8
MAX_SWEEPS = 10_000


class OracleConvergenceError(Exception):
    """The oracle hit its sweep limit; carries the last iterate."""

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


def soft_threshold(z: float, gamma: float) -> float:
    """sign(z) * max(|z| - gamma, 0)."""
    if gamma < 0:
        raise DataError("gamma must be >= 0")
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def lasso_objective(Z: np.ndarray, y: np.ndarray, phi: np.ndarray, lam: float) -> float:
    r = y - Z @ phi
    return 0.5 * float(r @ r) + lam * float(np.sum(np.abs(phi)))


def lasso_cd(Z: np.ndarray, y: np.ndarray, lam: float, tolerance: float = TOLERANCE,
             max_sweeps: int = MAX_SWEEPS, objective_trace: list | None = None) -> np.ndarray:
    """Cyclic coordinate descent on 0.5||y - Z phi||^2 + lam * ||phi||_1
    for one zone's n x m design ``Z`` and response ``y``, from phi = 0.

    It stops once no coefficient moved by ``tolerance`` relative to
    max(1, max |phi|) over a full sweep, and raises
    :class:`OracleConvergenceError` after ``max_sweeps`` sweeps.
    ``objective_trace``, when given, receives the objective before the
    first sweep and after each sweep.
    """
    if lam < 0:
        raise DataError("lambda must be >= 0")
    m = Z.shape[1]
    if lam > 0 and lam >= np.max(np.abs(Z.T @ y)):
        return np.zeros(m)
    col_sq = np.einsum("ij,ij->j", Z, Z)
    phi = np.zeros(m)
    r = y.copy()
    if objective_trace is not None:
        objective_trace.append(lasso_objective(Z, y, phi, lam))
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(m):
            cj = col_sq[j]
            if cj == 0.0:
                continue
            old = phi[j]
            new = soft_threshold(float(Z[:, j] @ r) + cj * old, lam) / cj
            if new != old:
                r += Z[:, j] * (old - new)
                phi[j] = new
                max_delta = max(max_delta, abs(new - old))
        if objective_trace is not None:
            objective_trace.append(lasso_objective(Z, y, phi, lam))
        if max_delta < tolerance * max(1.0, float(np.max(np.abs(phi)))):
            return phi
    raise OracleConvergenceError(
        f"coordinate descent did not converge in {max_sweeps} sweeps (lambda={lam})", phi)
