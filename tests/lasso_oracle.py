"""Scalar cyclic coordinate descent for one LASSO system: the reference
the production all-zone solver (``estimators.solve_lasso_batch``) is
compared against.

It works on the residual y - Z phi, one column at a time, with a Python
soft-threshold, so it shares no arithmetic with the Gram-matrix
covariance updates of the production solver.
"""

import numpy as np

from stardemand.errors import ConvergenceError, DataError
from stardemand.estimators import LassoConfig


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


def lasso_cd(Z: np.ndarray, y: np.ndarray, lam: float, config: LassoConfig = LassoConfig(),
             objective_trace: list | None = None) -> np.ndarray:
    """Cyclic coordinate descent on 0.5||y - Z phi||^2 + lam * ||phi||_1
    for one zone's n x m design ``Z`` and response ``y``, from phi = 0,
    with the production solver's stopping rule.

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
    for _ in range(config.max_sweeps):
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
        if max_delta < config.tolerance * max(1.0, float(np.max(np.abs(phi)))):
            return phi
    raise ConvergenceError(
        f"coordinate descent did not converge in {config.max_sweeps} sweeps "
        f"(lambda={lam})",
        last_iterate=phi,
    )
