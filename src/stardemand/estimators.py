"""Model fitting: VAR by OLS, STAR by OLS, and L1-penalized STAR along
its exact piecewise-linear LASSO path, plus penalty tuning on a validation
window. The path is walked for all zones in lockstep, each zone on an
inverse of its active Gram block that is updated as columns join and
leave, so a step solves nothing until an ill-conditioned join turns a zone
fresh: it solves its block at every later step. Every path returned is
certified against the LASSO's optimality conditions, and a zone that fails
is walked again afresh (the reference is ``tests/lasso_oracle.py``'s walk).

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

A design of order (p, eta) is a column subset of one of higher order, so
a scenario grid forms the Gram blocks G = Z'Z, c = Z'y, y'y of one design
per weight stack, a span of its rows at a time, and :class:`StarBlocks`
hands each cell its Gram as sub-blocks and its rows only where they are
asked for. The fits read only the Gram: OLS (VAR's too) by Cholesky,
LASSO by path. So do the scores: :func:`sse` reads each zone's residual
sum of squares as the quadratic form y'y - 2 c'phi + phi'G phi, for the
sigma2 of a STAR model, the validation and test MSPEs of a STAR scenario
and the whole validation curve of :func:`tune_lambda`. Predictions,
design rows times per-zone coefficients, are ``forecast.predict_range``'s.
Products of design blocks, the per-zone Gram matrices included, go
through ``matmul`` and so BLAS.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, NumericalError
from .panel import DemandPanel, ModelOrder, SplitSpec, is_count
from .weights import WeightStack


# -- design ------------------------------------------------------------

class Gram(NamedTuple):
    """Per-zone normal equations of a design, G = Z'Z and c = Z'y, and y'y."""

    G: np.ndarray          # k x m x m
    c: np.ndarray          # k x m
    yy: np.ndarray         # k


def _gram(Z: np.ndarray, y: np.ndarray) -> Gram:
    # G zone by zone from a contiguous copy of its rows, so BLAS forms the
    # Gram of a strided view as it does that of its copy, and no k x n x m
    # copy is made (such temporaries left glibc's heap holding ~6 MB more);
    # c column by column, so that the c of some of a design's columns is,
    # bit for bit, that of those columns alone
    c = np.stack([np.sum(Z[..., j] * y, axis=1) for j in range(Z.shape[2])], axis=-1)
    G = np.stack([(z := np.ascontiguousarray(Zi)).T @ z for Zi in Z])
    return Gram(G, c, np.sum(y * y, axis=1))


@dataclass(frozen=True)
class DesignMatrix:
    """All zones' regression systems: zone i regresses y[i] on Z[i].

    A cell's rows handed out by :class:`StarBlocks` carry their Gram in
    ``normal`` and no ``Z``: ``form`` builds Z the first time :meth:`own`
    is asked for rows.
    """

    Z: np.ndarray | None   # k x T_used x (eta * p), or None with ``form``
    y: np.ndarray          # k x T_used
    order: ModelOrder
    fit_range: tuple[int, int]
    normal: Gram | None = None
    form: Callable[[], np.ndarray] | None = None

    @cached_property
    def _formed(self) -> np.ndarray:
        return self.form()

    def own(self, zone=slice(None)) -> np.ndarray:
        """A zone's rows (every zone's by default)."""
        return (self._formed if self.Z is None else self.Z)[zone]

    def gram(self) -> Gram:
        """The Gram of the design's rows: ``normal`` if given."""
        return _gram(self.own(), self.y) if self.normal is None else self.normal


def _check_fit_range(fit_range: tuple[int, int], p: int, T: int) -> None:
    """A fit range must lie within the T bins and leave a usable row at lag p."""
    start, end = fit_range
    if not (0 <= start < end <= T):
        raise DataError(f"bad fit range {fit_range}")
    if end - start <= p:
        raise DataError(f"fit range {fit_range} has no usable rows for p={p}")


def check_stack(panel: DemandPanel, stack: WeightStack | None, eta: int) -> None:
    """A STAR model of space lag eta needs a stack at least eta deep, in the
    panel's zone order."""
    if stack is None:
        raise DataError("STAR model needs a weight stack")
    if eta > stack.eta_max:
        raise DataError(f"eta={eta} exceeds stack depth {stack.eta_max}")
    if stack.zone_ids != panel.zone_ids:
        pairs = list(zip_longest(stack.zone_ids, panel.zone_ids))
        i = next(i for i, (ours, theirs) in enumerate(pairs) if ours != theirs)
        raise DataError(f"weight stack zone order does not match panel: position {i} "
                        f"holds {pairs[i][0]!r} in the stack, {pairs[i][1]!r} in the panel")


def lag_regressors(
    Y: np.ndarray,
    p: int,
    t_range: tuple[int, int],
    matrices: Sequence[np.ndarray],
) -> np.ndarray:
    """Lagged regressors for the target bins t in [start, end).

    Returns a k x (end - start) x (eta * p) array whose entry
    [i, t - start, (j - 1) * eta + l] is W(l)[i, :] . y(t - j), so slice
    [i] is zone i's design rows. Bin t reads only bins t - p .. t - 1, so
    ``end`` may be one past the panel; needs start >= p.

    The array is a read-only view: row t is the window of p * eta values
    from bin t - 1 back in the eta averages of each bin, kept once. That
    one array is the only copy made: it is filled one average at a time,
    each from W(l) @ Y over the whole panel, so a value rounds the same
    whatever the range.
    """
    start, end = t_range
    eta = len(matrices)
    back = np.empty((len(Y), end - start + p - 1, eta))
    for l, W in enumerate(matrices):
        back[..., l] = (W @ Y)[:, start - p:end - 1][:, ::-1]
    windows = sliding_window_view(back.reshape(len(back), -1), p * eta, axis=1)
    return windows[:, ::eta][:, ::-1]


def build_design(
    panel: DemandPanel,
    stack: WeightStack,
    order: ModelOrder,
    fit_range: tuple[int, int],
) -> DesignMatrix:
    """Build every zone's regression system over the given fit range."""
    start, end = fit_range
    p = order.p
    _check_fit_range(fit_range, p, panel.T)
    check_stack(panel, stack, order.eta)
    Y = panel.values
    return DesignMatrix(Z=lag_regressors(Y, p, (start + p, end), stack.matrices[:order.eta]),
                        y=Y[:, start + p:end].copy(), order=order, fit_range=(start, end))


@dataclass(frozen=True)
class StarBlocks:
    """The Gram blocks shared by the STAR cells of order (p, eta) <= (P, E)
    on one split of ``panel``, from which a cell takes its Gram matrices.

    The blocks are those of the design of order (P, E) whose rows are the
    targets 1 .. t_end - 1, built by ``span`` (see :func:`star_blocks`); a
    cell of order p reads those at t >= p. ``grams`` maps a target range to
    the Gram of its rows: the fit ranges [p, t1) and [p, t2) of every p <= P,
    the latter as that of [p, t1) plus that of [t1, t2), which is what a
    cell's own design would give; and the validation and test spans
    [t1, t2) and [t2, t_end), which no p changes.

    The design itself is not kept: it would be most of a grid's memory. A
    cell's rows are built by ``span`` only where a fit or score asks for
    them (see :meth:`rows`).
    """

    panel: DemandPanel
    order: ModelOrder
    split: SplitSpec
    grams: dict[tuple[int, int], Gram]
    span: Callable[[ModelOrder, int, int], DesignMatrix]

    def rows(self, order: ModelOrder, t_range: tuple[int, int]) -> DesignMatrix:
        """Cell ``order``'s system for the targets [start, end): its Gram as
        ``normal`` where ``grams`` holds the range, ``y`` a view of the panel,
        and Z formed by ``span`` only if asked for."""
        (start, end), (P, E) = t_range, (self.order.p, self.order.eta)
        if order.p > P or order.eta > E:
            raise DataError(f"cell order (p={order.p}, eta={order.eta}) exceeds the shared "
                            f"design's (p={P}, eta={E})")
        if not order.p <= start <= end <= self.split.t_end:
            raise DataError(f"no shared rows for targets {t_range} at p={order.p}")
        # column (j - 1) * eta + l of the cell is (j - 1) * E + l of the design
        cols = (np.arange(order.p)[:, None] * E + np.arange(order.eta)).ravel()
        gram = self.grams.get((start, end))
        if gram is not None:
            gram = Gram(gram.G[:, cols[:, None], cols], gram.c[:, cols], gram.yy)
        return DesignMatrix(
            Z=None, y=self.panel.values[:, start:end], order=order,
            fit_range=(start - order.p, end), normal=gram,
            form=lambda: self.span(order, start, end).Z)


def star_blocks(panel: DemandPanel, order: ModelOrder, split: SplitSpec,
                span: Callable[[ModelOrder, int, int], DesignMatrix]) -> StarBlocks:
    """The :class:`StarBlocks` of ``split`` on ``panel`` for the cells up to
    ``order``. ``span(cell, a, b)`` builds the rows of the targets [a, b),
    a >= 1, of the design of order ``cell`` <= ``order``. It is called with
    ``order`` for [t1, t2), [t2, t_end), then [1, t1), and each span goes
    once its Grams are formed, so at most one span's rows are held."""
    P, (t1, t2, t_end) = order.p, (split.t1, split.t2, split.t_end)
    _check_fit_range((0, t1), P, t_end)
    grams = {}
    for a, b, starts in [(t1, t2, [t1]), (t2, t_end, [t2]), (1, t1, range(1, P + 1))]:
        rows = span(order, a, b)
        grams.update({(s, b): _gram(rows.Z[:, s - a:], rows.y[:, s - a:]) for s in starts})
        del rows        # before the next span is built
    for p in range(1, P + 1):
        grams[p, t2] = Gram(*map(np.add, grams[p, t1], grams[t1, t2]))
    return StarBlocks(panel, order, split, grams, span)


# The share of y'y that sse's rounding bound may reach before a zone's
# residual sum of squares is summed from its rows
SSE_GRAM_TOLERANCE = 1e-10


def sse(design: DesignMatrix, coefs: np.ndarray) -> np.ndarray:
    """Each zone's residual sum of squares ||y - Z phi||^2 on the design's
    rows, for k x m coefficients (returns k) or k x m x L, one column per
    penalty (returns k x L): the Gram form y'y - 2 c'phi + phi'G phi,
    clamped at 0 as rounding takes an interpolating fit's below. A zone
    whose rounding bound (n + m) eps s^2, s = ||y|| + sum_j |phi_j| ||z_j||
    over n rows, exceeds ``SSE_GRAM_TOLERANCE`` y'y (a near-collinear fit
    with large coefficients) is summed from its rows instead."""
    gram, n = design.gram(), design.y.shape[1]
    C = coefs if coefs.ndim == 3 else coefs[..., None]
    rss = gram.yy[:, None] + np.sum(C * (np.matmul(gram.G, C) - 2.0 * gram.c[..., None]), axis=1)
    norms = np.sqrt(np.diagonal(gram.G, axis1=1, axis2=2))[..., None]
    s = np.sqrt(gram.yy)[:, None] + np.sum(np.abs(C) * norms, axis=1)
    bound = (n + C.shape[1]) * np.finfo(float).eps * s * s
    loose = np.any(bound > SSE_GRAM_TOLERANCE * gram.yy[:, None], axis=1)
    if loose.any():
        resid = design.y[loose][..., None] - np.matmul(design.own(loose), C[loose])
        rss[loose] = np.sum(resid * resid, axis=1)
    return np.maximum(rss, 0.0).reshape(coefs.shape[:1] + coefs.shape[2:])


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


# The longest generated penalty grid, ten times glmnet's default of 100. A
# fit's path is a k x m x n_lambdas array: 5.2 MB at k = 27 and m = 24.
MAX_N_LAMBDAS = 1_000


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
        if not (is_count(self.n_lambdas, 1) and self.n_lambdas <= MAX_N_LAMBDAS):
            raise ConfigError(f"n_lambdas must lie in [1, {MAX_N_LAMBDAS}] and be an int, "
                              f"got {self.n_lambdas!r}")
        if not 0 < self.lambda_min_ratio < 1:
            raise ConfigError(
                f"lambda_min_ratio must lie in (0, 1), got {self.lambda_min_ratio}")
        if self.explicit_grid is not None:
            if not self.explicit_grid:
                raise ConfigError("grid must not be empty")
            if not all(0 <= g < np.inf for g in self.explicit_grid):
                raise ConfigError(f"grid values must be finite and >= 0, got {self.explicit_grid}")

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
    residual sums of squares of all zones (:func:`sse`) over n_rows - n_free
    degrees of freedom."""
    rss = float(np.sum(sse(design, coefs)))
    n_rows = design.y.size
    dof = n_rows - n_free
    sigma2 = rss / dof if dof > 0 else rss / max(n_rows, 1)
    return StarModel(order=design.order, coefficients=coefs, sigma2=sigma2,
                     scheme=scheme, fit_range=design.fit_range, lambda_=lambda_)


def _each_zone(solver, *arrays: np.ndarray) -> np.ndarray:
    """``solver`` over every zone in one batched call. If it fails, zone by
    zone instead, with NaN for the zones it fails on."""
    try:
        return solver(*arrays)
    except np.linalg.LinAlgError:
        out = np.full(arrays[-1].shape, np.nan)
        for z in range(len(out)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[z] = solver(*(a[z] for a in arrays))
        return out


def _solve_normal(G: np.ndarray, C: np.ndarray, n_rows: int, rows) -> np.ndarray:
    """Least squares of a batch of systems from their normal equations
    G[z] X[z] = C[z] (b x m x m and b x m x r), by one batched Cholesky
    factorization. A system with fewer rows than columns, or whose factor
    fails or has a pivot below 1e-7 of its largest (cond(G) > 1e14), gets
    the minimum-norm solution of its rows ``rows(z)`` = (A, B) by ``lstsq``
    instead."""
    L = _each_zone(np.linalg.cholesky, G)
    pivots = np.diagonal(L, axis1=1, axis2=2)
    ok = (n_rows >= G.shape[-1]) & (pivots.min(axis=1) > 1e-7 * pivots.max(axis=1))
    X = np.empty(C.shape)
    X[ok] = np.linalg.solve(L[ok].transpose(0, 2, 1), np.linalg.solve(L[ok], C[ok]))
    for z in np.flatnonzero(~ok):
        X[z] = np.linalg.lstsq(*rows(z), rcond=None)[0]
    return X


def fit_star_ols(design: DesignMatrix, scheme: str = "") -> StarModel:
    """Per-zone least squares by :func:`_solve_normal`, from the design's
    Gram; sigma2 pools residuals across zones."""
    gram, y = design.gram(), design.y
    coefs = _solve_normal(gram.G, gram.c[..., None], y.shape[1],
                          lambda z: (design.own(z), y[z][:, None]))[..., 0]
    return _star_model(design, coefs, coefs.size, scheme)


def fit_var_ols(panel: DemandPanel, p: int, fit_range: tuple[int, int]) -> VarModel:
    """Per-equation OLS with intercept on stacked lag regressors, all k
    equations from one set of normal equations by :func:`_solve_normal`.

    The regressors of row t are 1 and y(t - 1) .. y(t - p). Their normal
    equations X'X and X'R are formed from lagged views of the panel, each
    block the product of two k x T_used slices, and the residuals from the
    panel too, so the T_used x (k * p + 1) matrix X is built only if the
    system falls back to ``lstsq``. When usable rows fall below k*p + 1
    regressors, the minimum-norm solution is returned rather than failing.
    """
    start, end = fit_range
    _check_fit_range(fit_range, p, panel.T)
    Y, k = panel.values, panel.k
    t_used, m = end - start - p, k * p + 1
    lag = [Y[:, start + p - j:end - j] for j in range(p + 1)]   # y(t - j); lag[0] is R
    # lag-major columns: 1 + (j - 1) * k + z holds y_z(t - j)
    col = [slice(1 + (j - 1) * k, 1 + j * k) for j in range(p + 1)]
    XX, XR = np.empty((m, m)), np.empty((m, k))
    XX[0, 0], XR[0] = t_used, lag[0].sum(axis=1)
    for j in range(1, p + 1):
        XX[0, col[j]] = XX[col[j], 0] = lag[j].sum(axis=1)
        XR[col[j]] = lag[j] @ lag[0].T
        for i in range(j, p + 1):
            XX[col[j], col[i]] = lag[j] @ lag[i].T
            XX[col[i], col[j]] = XX[col[j], col[i]].T

    def rows(z):
        X = np.empty((t_used, m))
        X[:, 0] = 1.0
        for j in range(1, p + 1):
            X[:, col[j]] = lag[j].T
        return X, lag[0].T

    B = _solve_normal(XX[None], XR[None], t_used, rows)[0]
    lags = tuple(B[col[j], :].T.copy() for j in range(1, p + 1))
    resid = lag[0] - B[0][:, None]
    for j, A in enumerate(lags, start=1):
        resid -= A @ lag[j]
    cov = resid @ resid.T / max(t_used - m, 1)
    return VarModel(p=p, intercept=B[0].copy(), lag_matrices=lags,
                    residual_cov=cov, fit_range=(start, end))


# -- LASSO -------------------------------------------------------------

def lambda_max(gram: Gram) -> float:
    """Smallest penalty with an all-zero solution in every zone: the
    largest ||Z_i' y_i||_inf over zones i."""
    return float(np.max(np.abs(gram.c), initial=0.0))


# A returned path must meet the LASSO's optimality (KKT) conditions at every
# penalty to within this share of its zone's ||c||_inf. Paths solved to
# rounding meet them within about 1e-14; the paths that rounding breaks on
# duplicated columns miss by 1e-4 and more.
KKT_TOLERANCE = 1e-9
# A join whose Schur complement s = G_jj - g'A^-1 g is at most this share of
# G_jj (a variance inflation factor G_jj / s of 10 or more) turns its zone
# fresh for the rest of its walk: the updated inverse's rounding grows with
# the block's condition, and a duplicated column gives about 1e-15.
SCHUR_FLOOR = 0.1

# The sign a joining (kind 0, 1) or leaving (kind 2) column takes
_SIGNS = np.array([1.0, -1.0, 0.0])

# Why a zone's path failed, by the code _walk returns; 0 is none
_FAULTS = (None,
           "singular active-set Gram matrix in zone {z} at lambda={lam}",
           "LASSO path of zone {z} did not reach lambda={lam}",
           "LASSO path of zone {z} fails its KKT certificate at lambda={lam}")


def fit_lasso_path(gram: Gram, grid: Sequence[float]) -> np.ndarray:
    """Exact LASSO solutions of 0.5||y_i - Z_i phi||^2 + lam * ||phi||_1
    for every zone i at every penalty of ``grid``, as one contiguous
    k x (eta*p) x L array in descending penalty order: [i, :, n] is zone i's
    coefficient vector at the n-th largest penalty. Penalties at or above a
    zone's ||Z_i' y_i||_inf give its exact zero vector.

    Covariance-form homotopy (Osborne, Presnell & Turlach 2000; the LASSO
    variant of LARS, Efron et al. 2004) on each zone's G and c of ``gram``:
    between kinks the active set A and signs sigma are fixed,
    phi_A = u - lam * w with G_AA [u, w] = [c_A, sigma_A], and the correlations
    c - G phi are b + lam * a. Going down from lambda_max, a column joins
    when its correlation reaches +-lam and leaves when its coefficient
    reaches 0. Zero-norm columns never join, nor does a column within
    1e-12 * lambda_max of lam = 0, where a design with fewer rows than
    columns already interpolates. All zones walk in lockstep (:func:`_walk`):
    a step takes every zone to its own next kink, and a zone past the last
    penalty is frozen. Each zone keeps the inverse of its G_AA: a join
    borders it (with b = A^-1 g and s = G_jj - g'b) and a leave downdates
    it, so a step reads every zone's (u, w) from one batched ``matmul`` and
    solves nothing, until a join with s / G_jj <= ``SCHUR_FLOOR`` turns its
    zone fresh: it then solves its padded G_AA (the identity off the block)
    at every step. The grid penalties are filled in once the walk ends.

    Every path returned is certified from ``gram``: at every penalty each
    active column's correlation is within ``KKT_TOLERANCE`` * ||c||_inf of
    lam times its coefficient's sign, and each other column's of
    [-lam, lam]. A zone whose fresh solve is singular, that does not finish,
    or that fails the certificate is walked again, fresh from lambda_max; if
    that fails too, :class:`NumericalError` names the zone and the penalty.
    ``tests/lasso_oracle.py`` keeps the scalar walk of one zone.
    """
    lams = np.array(sorted(map(float, grid), reverse=True))
    if np.any(lams < 0):
        raise DataError("lambda must be >= 0")
    G, c = gram.G, gram.c
    out, fault, at = _walk(G, c, lams, np.zeros(len(c), dtype=bool))
    redo = np.flatnonzero(fault)
    if redo.size:
        out[redo], fault[redo], at[redo] = _walk(G[redo], c[redo], lams,
                                                 np.ones(redo.size, dtype=bool))
    if fault.any():
        z = int(np.flatnonzero(fault)[0])
        raise NumericalError(_FAULTS[fault[z]].format(z=z, lam=at[z]))
    return out


def _walk(G: np.ndarray, c: np.ndarray, lams: np.ndarray,
          fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lockstep walk of :func:`fit_lasso_path` for k zones at the
    descending penalties ``lams``, and its certificate. A ``fresh`` zone
    solves its padded G_AA at every step; any other keeps the inverse of
    G_AA, zero off the block, and reads (u, w) as inv @ [c_A, sigma_A] until
    a join with s / G_jj <= ``SCHUR_FLOOR`` turns it fresh for good.

    Returns the k x m x L path and, per zone, a fault code (an index of
    ``_FAULTS``, 0 for a certified path) and the penalty it names. A zone
    stops at a singular fresh solve (code 1); its state runs on unread.
    """
    (k, m), L = c.shape, lams.size
    zones, down = np.arange(k), -lams
    lam = top = np.max(np.abs(c), axis=1, initial=0.0)
    floor, joinable = 1e-12 * top, np.diagonal(G, axis1=1, axis2=2) > 0.0
    i = np.searchsorted(down, -lam, side="right")      # each zone's next grid index
    live, inv = i < L, np.zeros((k, m, m))
    rhs = np.zeros((k, m, 2))                  # [c_A, sigma_A], zero off the active set
    signs, act = rhs[..., 1], np.zeros((k, m), dtype=bool)    # signs: +-1 on A, 0 off it
    fault, at = np.zeros(k, dtype=np.intp), np.full(k, np.nan)
    j = np.argmax(np.abs(c), axis=1)           # each zone's first event: its largest |c| joins
    kind = np.where(c[zones, j] > 0.0, 0, 1)
    events, kept = np.empty((k, 3, m)), []
    # An update that overflows leaves non-finite values, which the
    # certificate rejects, so they need no warning. A path has finitely many
    # kinks; the bound only stops zero-length steps that rounding could make
    # cycle.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(100 * m):
            # the last event of each live zone: column j joins with sign +
            # (kind 0) or - (kind 1), or leaves (kind 2). A join borders the
            # inverse with [[A^-1 + b b'/s, -b/s], [-b'/s, 1/s]], the rank-one
            # update by v v'/s with v = [b; -1], where b = A^-1 g, g = G_Aj
            # and s = G_jj - g'b. A fresh zone's inverse is left as it is.
            col = G[zones, :, j]
            g, Gjj = col * act, col[zones, j]
            b = np.matmul(inv, g[..., None])[..., 0]
            s = Gjj - np.matmul(g[:, None, :], b[..., None])[:, 0, 0]
            join = live & (kind < 2)
            fresh = fresh | (join & ~(s > SCHUR_FLOOR * Gjj))
            b[zones, j] = -1.0
            inv += (b * np.where(join & ~fresh, 1.0 / s, 0.0)[:, None])[:, :, None] * b[:, None, :]
            # a leave drops row and column j: A^-1 - v v'/v_j with v = A^-1 e_j
            if np.any(leave := live & ~join & ~fresh):
                z, jz = zones[leave], j[leave]
                v = inv[z, :, jz]
                inv[z] -= (v / v[np.arange(z.size), jz, None])[:, :, None] * v[:, None, :]
                inv[z, jz, :] = inv[z, :, jz] = 0.0
            signs[zones, j] = _SIGNS[kind]     # a zone no longer live is not read again
            if not live.any():
                break
            act = signs != 0.0
            np.multiply(c, act, out=rhs[..., 0])
            uw = np.matmul(inv, rhs)
            if fresh.any():
                M = np.where(act[fresh, :, None] & act[fresh, None, :], G[fresh], np.eye(m))
                uw[fresh] = _each_zone(np.linalg.solve, M, rhs[fresh])
                bad = fresh & live & ~np.isfinite(uw).all(axis=(1, 2))
                fault[bad], at[bad], live = 1, lam[bad], live & ~bad
            (u, w), ba = uw.transpose(2, 0, 1), np.matmul(G, uw)
            # events in argmax order: free columns reaching +lam, where
            # lam * (1 - a) = b, then -lam, where lam * (1 + a) = -b, each only if
            # the gap shrinks as lam falls; then active coefficients reaching 0
            b, a, free = c - ba[..., 0], ba[..., 1], joinable & ~act
            events.fill(-np.inf)
            np.divide(b, 1.0 - a, out=events[:, 0], where=free & (a < 1.0))
            np.divide(-b, 1.0 + a, out=events[:, 1], where=free & (a > -1.0))
            events[:, :2][events[:, :2] < floor[:, None, None]] = -np.inf
            np.divide(u, w, out=events[:, 2], where=signs * w < 0.0)
            e = np.argmax(events.reshape(k, 3 * m), axis=1)
            (kind, j), nxt = np.divmod(e, m), events.reshape(k, 3 * m)[zones, e]
            lam = np.maximum(np.minimum(nxt, lam), 0.0)
            # the grid penalties each zone's step crossed, emitted once the walk ends
            n = np.searchsorted(down, -lam, side="right")
            if np.any(n > i):
                kept.append((uw, signs.astype(np.int8), i, n))
            i, live = n, live & (n < L)
        if live.any():
            fault[live], at[live] = 2, lams[-1]
        out = np.zeros((k, m, L))
        if kept:
            # row r of the steps' zones covers grid indices i[r] .. n[r] - 1;
            # each array is let go once read, for the memory peak
            uw, signs, i, n = map(np.concatenate, zip(*kept))
            kept.clear()
            r = np.repeat(np.arange(i.size), n - i)
            ls = i[r] + np.arange(r.size) - (np.cumsum(n - i) - (n - i))[r]
            uw = uw[r]
            phi = uw[..., 0] - lams[ls, None] * uw[..., 1]
            del uw
            # a coefficient at its leaving kink may sit a rounding error past
            # zero; a product, unlike np.where, keeps a NaN for the certificate,
            # and + 0.0 turns the -0.0 of a cleared negative into 0.0
            phi *= phi * signs[r] > 0.0
            out[r % k, :, ls] = phi + 0.0
        # the certificate of every zone that finished: |c - G phi - lam sign(phi)|,
        # less lam where phi = 0, within the tolerance (a NaN fails it)
        slope = np.sign(out)
        slope *= lams
        excess = np.matmul(G, out)
        excess -= c[..., None]
        excess += slope
        np.abs(excess, out=excess)
        excess += np.abs(slope, out=slope)
        fail = ~(excess.max(axis=1) - lams <= KKT_TOLERANCE * top[:, None]) & (fault == 0)[:, None]
        if fail.any():
            z, n = np.nonzero(fail)
            z, first = np.unique(z, return_index=True)
            fault[z], at[z] = 3, lams[n[first]]
    return out, fault, at


def solve_lasso_batch(gram: Gram, lam: float) -> np.ndarray:
    """Every zone's LASSO solution at one penalty: the path walked down to
    ``lam``. Returns the k x m coefficient matrix, row i for zone i."""
    return fit_lasso_path(gram, [lam])[..., 0]


def fit_lasso_star(design: DesignMatrix, lam: float, scheme: str = "") -> StarModel:
    """Fit all zones at a single penalty and package as a StarModel."""
    coefs = solve_lasso_batch(design.gram(), lam)
    return _star_model(design, coefs, int(np.count_nonzero(coefs)), scheme, lam)


def tune_lambda(
    blocks: StarBlocks,
    order: ModelOrder,
    config: LassoConfig = LassoConfig(),
) -> tuple[float, list[tuple[float, float]]]:
    """Select the penalty minimizing one-step validation MSPE.

    The path of cell ``order`` is fit on its design over [0, t1) of
    ``blocks.split``; its rows for [t1, t2) give the one-step validation
    predictions from true history. Each penalty is scored by the MSPE of
    those predictions, which :func:`sse` reads for the whole curve from the
    Gram of the validation rows: no row is multiplied. Ties break toward
    the largest penalty. Returns (lambda*, [(lambda, mspe), ...]) with the
    curve in descending lambda order.
    """
    split, gram = blocks.split, blocks.rows(order, (order.p, blocks.split.t1)).gram()
    grid = config.grid(lambda_max(gram))            # descending, as the path's columns
    val = blocks.rows(order, (split.t1, split.t2))
    scores = sse(val, fit_lasso_path(gram, grid)).sum(axis=0) / val.y.size
    curve = [(lam, float(score)) for lam, score in zip(grid, scores)]
    # descending grid: min keeps the first minimum, the largest lambda
    return min(curve, key=lambda c: c[1])[0], curve


# -- serialization ------------------------------------------------------

def model_to_dict(model) -> dict:
    """``model`` as lists and numbers: the schema of the ``model.json``
    that ``stardemand fit`` writes."""
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
