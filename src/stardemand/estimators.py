"""Model fitting: VAR by OLS, STAR by OLS, and L1-penalized STAR along
its exact piecewise-linear LASSO path, plus penalty tuning on a
validation window.

Conventions
-----------
Time ranges are half-open index ranges (start, end) over panel columns.
For a fit range and time-lag order p, usable regression rows are
t = start + p .. end - 1, so T_used = end - start - p.

One :class:`DesignMatrix` holds every zone's regression system: ``Z`` is
k x T_used x (eta * p) and ``Z[i]`` holds zone i's rows, with column
(j - 1) * eta + l equal to the l-th neighborhood average of the panel at
lag j:
row t, column (j-1)*eta + l  =  W(l)[i, :] . y(t - j).

:func:`fitted` (design rows times per-zone coefficients) is the one
prediction kernel: OLS residuals, the validation MSPE of the penalty
curve and the test predictions of ``forecast.predict_range`` all use it,
and both MSPEs come from :func:`mspe`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .panel import DemandPanel, ModelOrder, SplitSpec
from .weights import WeightStack


# -- design ------------------------------------------------------------

@dataclass(frozen=True)
class DesignMatrix:
    """All zones' regression systems: zone i regresses y[i] on Z[i]."""

    Z: np.ndarray          # k x T_used x (eta * p)
    y: np.ndarray          # k x T_used
    order: ModelOrder
    fit_range: tuple[int, int]


def lag_regressors(
    Y: np.ndarray,
    p: int,
    t_range: tuple[int, int],
    matrices: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Lagged regressors for the target bins t in [start, end).

    Returns a k x (end - start) x (eta * p) array whose entry
    [i, t - start, (j - 1) * eta + l] is W(l)[i, :] . y(t - j), so slice
    [i] is zone i's design rows. Without ``matrices`` the regressors are
    the raw lags y_i(t - j) (eta = 1). Bin t reads only bins t - p .. t - 1,
    so ``end`` may be one past the panel; needs start >= p.
    """
    start, end = t_range
    bases = [Y] if matrices is None else [W @ Y for W in matrices]
    return np.stack([b[:, start - j:end - j] for j in range(1, p + 1) for b in bases],
                    axis=-1)


def build_design(
    panel: DemandPanel,
    stack: WeightStack,
    order: ModelOrder,
    fit_range: tuple[int, int],
) -> DesignMatrix:
    """Build every zone's regression system over the given fit range."""
    start, end = fit_range
    p, eta = order.p, order.eta
    if not (0 <= start < end <= panel.T):
        raise DataError(f"bad fit range {fit_range}")
    if end - start <= p:
        raise DataError(f"fit range {fit_range} has no usable rows for p={p}")
    if eta > stack.eta_max:
        raise DataError(f"eta={eta} exceeds stack depth {stack.eta_max}")
    if stack.zone_ids != panel.zone_ids:
        raise DataError("weight stack zone order does not match panel")

    Y = panel.values
    return DesignMatrix(Z=lag_regressors(Y, p, (start + p, end), stack.matrices[:eta]),
                        y=Y[:, start + p:end].copy(), order=order, fit_range=(start, end))


def fitted(Z: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Design rows times per-zone coefficients: entry [i, t] is Z[i, t] . coefs[i]."""
    return np.matmul(Z, coefs[:, :, None])[:, :, 0]


def mspe(panel: DemandPanel, predicted: np.ndarray, t_range: tuple[int, int]) -> float:
    """Mean squared prediction error over zones and bins in the range."""
    start, end = t_range
    if end <= start:
        raise DataError(f"empty evaluation range {t_range}")
    actual = panel.values[:, start:end]
    predicted = np.asarray(predicted, dtype=float)
    if predicted.shape != actual.shape:
        raise DataError(
            f"prediction shape {predicted.shape} does not match actual {actual.shape}"
        )
    diff = actual - predicted
    return float(np.sum(diff * diff)) / (panel.k * (end - start))


# -- models ------------------------------------------------------------

@dataclass(frozen=True)
class StarModel:
    """Per-zone coefficient vectors of length eta * p plus noise scale."""

    order: ModelOrder
    coefficients: np.ndarray    # k x (eta * p)
    sigma2: float
    scheme: str
    fit_range: tuple[int, int]
    lambda_: float | None = None

    @property
    def k(self) -> int:
        return self.coefficients.shape[0]

    @property
    def n_parameters(self) -> int:
        return self.coefficients.size

    def __post_init__(self):
        k, m = self.coefficients.shape
        if m != self.order.eta * self.order.p:
            raise DataError(
                f"coefficient vectors of length {m}, expected eta*p = "
                f"{self.order.eta * self.order.p}"
            )


@dataclass(frozen=True)
class VarModel:
    """Intercept plus p full k x k lag matrices."""

    p: int
    intercept: np.ndarray       # k
    lag_matrices: tuple[np.ndarray, ...]   # p matrices, each k x k
    residual_cov: np.ndarray    # k x k
    fit_range: tuple[int, int]

    @property
    def k(self) -> int:
        return self.intercept.shape[0]

    @property
    def n_parameters(self) -> int:
        k = self.k
        return k * (k * self.p + 1)


@dataclass(frozen=True)
class LassoConfig:
    """Penalty grid of the LASSO path, and the span the test model is fit
    on at the tuned penalty: [0, t2) with ``refit_after_tuning``, else
    [0, t1). The fields are the keys of the ``lasso:`` config section."""

    n_lambdas: int = 50
    lambda_min_ratio: float = 1e-4
    include_zero: bool = True
    explicit_grid: tuple[float, ...] | None = None
    refit_after_tuning: bool = True

    def __post_init__(self):
        if self.n_lambdas < 1:
            raise ConfigError(f"n_lambdas must be >= 1, got {self.n_lambdas}")
        if not 0 < self.lambda_min_ratio < 1:
            raise ConfigError(
                f"lambda_min_ratio must lie in (0, 1), got {self.lambda_min_ratio}")
        if self.explicit_grid is not None:
            if not self.explicit_grid:
                raise ConfigError("grid must not be empty")
            if not all(g >= 0 for g in self.explicit_grid):
                raise ConfigError("grid values must be >= 0")

    def grid(self, lam_max: float) -> list[float]:
        """Descending penalty grid, optionally ending in an explicit 0."""
        if self.explicit_grid is not None:
            return sorted((float(g) for g in self.explicit_grid), reverse=True)
        if lam_max <= 0:
            return [0.0]
        vals = [float(v) for v in np.geomspace(lam_max, lam_max * self.lambda_min_ratio,
                                               self.n_lambdas)]
        if self.include_zero:
            vals.append(0.0)
        return vals


# -- OLS fits ----------------------------------------------------------

def _star_model(design: DesignMatrix, coefs: np.ndarray, n_free: int,
                scheme: str, lambda_: float | None = None) -> StarModel:
    """Package per-zone coefficients (row i for zone i); sigma2 pools the
    residuals of all zones over n_rows - n_free degrees of freedom."""
    resid = design.y - fitted(design.Z, coefs)
    rss = float(np.sum(resid * resid))
    n_rows = resid.size
    dof = n_rows - n_free
    sigma2 = rss / dof if dof > 0 else rss / max(n_rows, 1)
    return StarModel(order=design.order, coefficients=coefs, sigma2=sigma2,
                     scheme=scheme, fit_range=design.fit_range, lambda_=lambda_)


def fit_star_ols(design: DesignMatrix, scheme: str = "") -> StarModel:
    """Per-zone least squares; rank-deficient systems get the
    minimum-norm solution. sigma2 pools residuals across zones."""
    coefs = np.array([np.linalg.lstsq(Z, y, rcond=None)[0]
                      for Z, y in zip(design.Z, design.y)])
    return _star_model(design, coefs, coefs.size, scheme)


def fit_var_ols(panel: DemandPanel, p: int, fit_range: tuple[int, int]) -> VarModel:
    """Per-equation OLS with intercept on stacked lag regressors.

    When usable rows fall below k*p + 1 regressors, the minimum-norm
    solution is returned rather than failing.
    """
    start, end = fit_range
    if not (0 <= start < end <= panel.T):
        raise DataError(f"bad fit range {fit_range}")
    if end - start <= p:
        raise DataError(f"fit range {fit_range} has no usable rows for p={p}")
    Y = panel.values
    k = panel.k
    t_used = end - start - p
    X = np.empty((t_used, k * p + 1))
    X[:, 0] = 1.0
    # lag-major columns: 1 + (j - 1) * k + z holds y_z(t - j)
    lags = lag_regressors(Y, p, (start + p, end))          # k x t_used x p
    X[:, 1:] = lags.transpose(1, 2, 0).reshape(t_used, k * p)
    resp = Y[:, start + p:end].T    # t_used x k
    B = np.linalg.lstsq(X, resp, rcond=None)[0]    # (kp+1) x k
    resid = resp - X @ B
    dof = max(t_used - (k * p + 1), 1)
    cov = resid.T @ resid / dof
    lags = tuple(B[1 + (j - 1) * k:1 + j * k, :].T.copy() for j in range(1, p + 1))
    return VarModel(p=p, intercept=B[0].copy(), lag_matrices=lags,
                    residual_cov=cov, fit_range=(start, end))


# -- LASSO -------------------------------------------------------------

def _zy(design: DesignMatrix) -> np.ndarray:
    """Per-zone Z'y (k x m), the one expression behind :func:`lambda_max`
    and the path's starting penalty, so the two agree bit for bit."""
    return np.matmul(design.Z.transpose(0, 2, 1), design.y[..., None])[..., 0]


def lambda_max(design: DesignMatrix) -> float:
    """Smallest penalty with an all-zero solution in every zone: the
    largest ||Z_i' y_i||_inf over zones i."""
    return float(np.max(np.abs(_zy(design)), initial=0.0))


def _zone_path(G: np.ndarray, c: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Exact LASSO path of one zone (G = Z'Z, c = Z'y) at the descending
    penalties ``lams``; returns a len(lams) x m array.

    Covariance-form homotopy (Osborne, Presnell & Turlach 2000; the LASSO
    variant of LARS, Efron et al. 2004): between kinks the active set A and
    its signs s are fixed, phi_A = u - lam * w with G_AA [u, w] = [c_A, s_A],
    and the correlations c - G phi are b + lam * a. Going down from
    lambda_max, a column joins when its correlation reaches +-lam and leaves
    when its coefficient reaches 0. Zero-norm columns never join, nor does
    a column within 1e-12 * lambda_max of lam = 0, where a design with
    fewer rows than columns already interpolates.
    """
    m = c.size
    out = np.zeros((lams.size, m))
    lam = float(np.max(np.abs(c), initial=0.0))
    i = int(np.count_nonzero(lams >= lam))
    if i == lams.size:
        return out
    floor, joinable = 1e-12 * lam, np.diagonal(G) > 0.0
    signs = np.zeros(m)         # +-1 on the active set, 0 off it
    j = int(np.argmax(np.abs(c)))
    signs[j] = np.sign(c[j])
    # a path has finitely many kinks; the bound only stops zero-length
    # steps that rounding could make cycle
    for _ in range(100 * m):
        A = np.flatnonzero(signs)
        try:
            uw = np.linalg.solve(G[np.ix_(A, A)], np.column_stack([c[A], signs[A]]))
        except np.linalg.LinAlgError:
            uw = np.full((A.size, 2), np.nan)
        if not np.all(np.isfinite(uw)):
            raise NumericalError(f"singular active-set Gram matrix at lambda={lam}")
        ba = G[:, A] @ uw
        b, a = c - ba[:, 0], ba[:, 1]
        u, w = np.zeros(m), np.zeros(m)
        u[A], w[A] = uw.T
        free = joinable & (signs == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # +lam is reached where lam * (1 - a) = b and -lam where
            # lam * (1 + a) = -b, each only if the gap shrinks as lam falls
            events = np.array([np.where(free & (a < 1.0), b / (1.0 - a), -np.inf),
                               np.where(free & (a > -1.0), -b / (1.0 + a), -np.inf),
                               np.where(signs * w < 0.0, u / w, -np.inf)])
        events[:2][events[:2] < floor] = -np.inf
        kind, j = np.unravel_index(int(np.argmax(events)), events.shape)
        lam = max(min(float(events[kind, j]), lam), 0.0)
        n = int(np.count_nonzero(lams >= lam))
        phi = u[A] - lams[i:n, None] * w[A]
        # a coefficient at its leaving kink may sit a rounding error past zero
        out[i:n, A] = np.where(phi * signs[A] > 0.0, phi, 0.0)
        if n == lams.size:
            return out
        i, signs[j] = n, (1.0, -1.0, 0.0)[kind]
    raise NumericalError(f"LASSO path did not reach lambda={lams[-1]}")


def fit_lasso_path(design: DesignMatrix, grid: Sequence[float]) -> dict[float, np.ndarray]:
    """Exact LASSO solutions of 0.5||y_i - Z_i phi||^2 + lam * ||phi||_1
    for every zone i at every penalty of ``grid`` (see :func:`_zone_path`).

    Returns {lambda: k x (eta*p) coefficient matrix}, row i for zone i.
    Penalties at or above a zone's ||Z_i' y_i||_inf give its exact zero
    vector.
    """
    lams = np.array(sorted(map(float, grid), reverse=True))
    if np.any(lams < 0):
        raise DataError("lambda must be >= 0")
    gram = np.einsum("knm,knq->kmq", design.Z, design.Z)
    coefs = np.stack([_zone_path(G, c, lams) for G, c in zip(gram, _zy(design))], axis=1)
    return {float(lam): coefs[n] for n, lam in enumerate(lams)}


def solve_lasso_batch(design: DesignMatrix, lam: float) -> np.ndarray:
    """Every zone's LASSO solution at one penalty: the path walked down to
    ``lam``. Returns the k x m coefficient matrix, row i for zone i."""
    return fit_lasso_path(design, [lam])[float(lam)]


def fit_lasso_star(design: DesignMatrix, lam: float, scheme: str = "") -> StarModel:
    """Fit all zones at a single penalty and package as a StarModel."""
    coefs = solve_lasso_batch(design, lam)
    return _star_model(design, coefs, int(np.count_nonzero(coefs)), scheme, lam)


def tune_lambda(
    panel: DemandPanel,
    stack: WeightStack,
    order: ModelOrder,
    split: SplitSpec,
    config: LassoConfig = LassoConfig(),
) -> tuple[float, list[tuple[float, float]]]:
    """Select the penalty minimizing one-step validation MSPE.

    Coefficients are fit on bins [0, t1); one-step predictions over
    [t1, t2) use true rolling history without refitting, and each
    penalty is scored by :func:`mspe`. Ties break toward the largest
    penalty. Returns (lambda*, [(lambda, mspe), ...]) with the curve in
    descending lambda order.
    """
    if split.t1 <= order.p:
        raise DataError(f"t1={split.t1} leaves no training rows for p={order.p}")
    if split.t2 - split.t1 < 1:
        raise DataError("degenerate validation range")
    train = build_design(panel, stack, order, (0, split.t1))
    grid = config.grid(lambda_max(train))
    # validation rows t = t1 .. t2-1 share the Z-row formula with training
    val_Z = build_design(panel, stack, order, (split.t1 - order.p, split.t2)).Z
    path = fit_lasso_path(train, grid)
    val_range = (split.t1, split.t2)
    curve = [(lam, mspe(panel, fitted(val_Z, path[lam]), val_range)) for lam in grid]
    # descending grid: min keeps the first minimum, the largest lambda
    return min(curve, key=lambda c: c[1])[0], curve


# -- serialization ------------------------------------------------------

def model_to_dict(model) -> dict:
    if isinstance(model, StarModel):
        return {
            "kind": "star",
            "p": model.order.p,
            "eta": model.order.eta,
            "coefficients": model.coefficients.tolist(),
            "sigma2": model.sigma2,
            "scheme": model.scheme,
            "fit_range": list(model.fit_range),
            "lambda": model.lambda_,
        }
    if isinstance(model, VarModel):
        return {
            "kind": "var",
            "p": model.p,
            "intercept": model.intercept.tolist(),
            "lag_matrices": [m.tolist() for m in model.lag_matrices],
            "residual_cov": model.residual_cov.tolist(),
            "fit_range": list(model.fit_range),
        }
    raise DataError(f"unknown model type {type(model).__name__}")


def model_from_dict(doc: dict):
    kind = doc.get("kind")
    if kind == "star":
        return StarModel(
            order=ModelOrder(p=doc["p"], eta=doc["eta"]),
            coefficients=np.array(doc["coefficients"], dtype=float),
            sigma2=float(doc["sigma2"]),
            scheme=doc.get("scheme", ""),
            fit_range=tuple(doc["fit_range"]),
            lambda_=doc.get("lambda"),
        )
    if kind == "var":
        return VarModel(
            p=doc["p"],
            intercept=np.array(doc["intercept"], dtype=float),
            lag_matrices=tuple(np.array(m, dtype=float) for m in doc["lag_matrices"]),
            residual_cov=np.array(doc["residual_cov"], dtype=float),
            fit_range=tuple(doc["fit_range"]),
        )
    raise DataError(f"unknown model kind {kind!r}")


def write_model_json(model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def read_model_json(path):
    with open(path) as fh:
        try:
            return model_from_dict(json.load(fh))
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: invalid model file: {e}") from None
