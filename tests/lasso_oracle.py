"""Scalar references for one zone's LASSO system, which the production
all-zone solver (``estimators.fit_lasso_path``, whose k x m x L array
``solve_lasso_batch`` slices at one penalty) is compared against.

:func:`lasso_cd` is cyclic coordinate descent. It works on the residual
y - Z phi, one column at a time, with a Python soft-threshold, so it shares
no arithmetic with the exact Gram-matrix homotopy of the production solver.
Its stopping rule and sweep limit are its own.

:func:`zone_path` is the homotopy walked for one zone at a time, one
Python step per kink: the same events, floor and argmax order as the
production path, which walks all zones in lockstep.
"""

import numpy as np

from stardemand.errors import DataError, NumericalError

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


def zone_path(G: np.ndarray, c: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact LASSO path of one zone (G = Z'Z, c = Z'y) at the descending
    penalties ``lams``: (len(lams) x m coefficients, number of solves).

    Between kinks the active set A and its signs s are fixed,
    phi_A = u - lam * w with G_AA [u, w] = [c_A, s_A], and the correlations
    c - G phi are b + lam * a. A column joins when its correlation reaches
    +-lam and leaves when its coefficient reaches 0; zero-norm columns, and
    joins below 1e-12 * lambda_max, never happen.
    """
    m = c.size
    out = np.zeros((lams.size, m))
    lam = float(np.max(np.abs(c), initial=0.0))
    i = int(np.count_nonzero(lams >= lam))
    if i == lams.size:
        return out, 0
    floor, joinable = 1e-12 * lam, np.diagonal(G) > 0.0
    signs = np.zeros(m)
    j = int(np.argmax(np.abs(c)))
    signs[j] = np.sign(c[j])
    for step in range(1, 100 * m + 1):
        A = signs.nonzero()[0]
        s = signs[A]
        try:
            uw = np.linalg.solve(G[np.ix_(A, A)], np.column_stack([c[A], s]))
        except np.linalg.LinAlgError:
            uw = np.full((A.size, 2), np.nan)
        if not np.isfinite(uw).all():
            raise NumericalError(f"singular active-set Gram matrix at lambda={lam}")
        u, w = uw.T
        ba = G[:, A] @ uw
        F = (joinable & (signs == 0.0)).nonzero()[0]
        b, a, nf = c[F] - ba[F, 0], ba[F, 1], F.size
        # free columns reaching +lam, then -lam, then active ones reaching 0
        events = np.full(2 * nf + A.size, -np.inf)
        np.divide(b, 1.0 - a, out=events[:nf], where=a < 1.0)
        np.divide(-b, 1.0 + a, out=events[nf:2 * nf], where=a > -1.0)
        np.divide(u, w, out=events[2 * nf:], where=s * w < 0.0)
        joins = events[:2 * nf]
        joins[joins < floor] = -np.inf
        e = int(np.argmax(events))
        kind = int(e >= nf) + int(e >= 2 * nf)
        j = A[e - 2 * nf] if kind == 2 else F[e - kind * nf]
        lam = max(min(float(events[e]), lam), 0.0)
        n = int(np.count_nonzero(lams >= lam))
        phi = u - lams[i:n, None] * w
        out[i:n, A] = np.where(phi * s > 0.0, phi, 0.0)
        if n == lams.size:
            return out, step
        i, signs[j] = n, (1.0, -1.0, 0.0)[kind]
    raise NumericalError(f"LASSO path did not reach lambda={lams[-1]}")
