"""One-step-ahead prediction, MSPE evaluation and the scenario grid.

Test predictions are rolling one-step: the prediction at bin t always
conditions on the true observed history at bins < t, never on earlier
predictions.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError
from .panel import DemandPanel, ModelOrder, SplitSpec
from .weights import WeightStack
from .estimators import (
    LassoConfig, StarModel, VarModel,
    build_design, fit_lasso_star, fit_star_ols, fit_var_ols, fitted, lag_regressors, mspe,
    tune_lambda,
)

MODEL_VAR = "var"
MODEL_STAR = "star"
MODEL_LASSO_STAR = "lasso_star"


def predict_range(model, panel: DemandPanel, t_range: tuple[int, int],
                  stack: WeightStack | None = None) -> np.ndarray:
    """Rolling one-step predictions for t in [t_range.start, t_range.end).

    Column t - start is the prediction of bin t from the true history at
    bins < t; the range may end one past the panel (bin T).
    """
    start, end = t_range
    if end <= start:
        raise DataError(f"empty prediction range {t_range}")
    if isinstance(model, StarModel):
        if stack is None:
            raise DataError("STAR prediction needs the weight stack")
        if model.order.eta > stack.eta_max:
            raise DataError(f"eta={model.order.eta} exceeds stack depth {stack.eta_max}")
        if stack.zone_ids != panel.zone_ids:
            raise DataError("weight stack zone order does not match panel")
        p = model.order.p
    elif isinstance(model, VarModel):
        p = model.p
    else:
        raise DataError(f"unknown model type {type(model).__name__}")
    if start < p:
        raise DataError(f"insufficient history for prediction at t={start}")
    if end > panel.T + 1:
        raise DataError(f"prediction range {t_range} runs past bin T={panel.T}")
    Y = panel.values
    if isinstance(model, VarModel):
        out = np.repeat(model.intercept[:, None], end - start, axis=1)
        for j, A in enumerate(model.lag_matrices, start=1):
            out += A @ Y[:, start - j:end - j]
        return out
    return fitted(lag_regressors(Y, p, t_range, stack.matrices[:model.order.eta]),
                  model.coefficients)


@dataclass(frozen=True)
class EvalReport:
    """Per-scenario evaluation outcome."""

    model: str
    p: int
    eta: int | None
    scheme: str | None
    split: SplitSpec
    val_mspe: float | None
    test_mspe: float | None
    lambda_: float | None = None
    seconds: float = 0.0
    error: str | None = None

    def __post_init__(self):
        for v in (self.val_mspe, self.test_mspe):
            if v is not None and v < 0:
                raise DataError("MSPE cannot be negative")


def _report(model_kind: str, order: ModelOrder, stack: WeightStack | None,
            split: SplitSpec, **fields) -> EvalReport:
    is_var = model_kind == MODEL_VAR
    return EvalReport(model=model_kind, p=order.p, eta=None if is_var else order.eta,
                      scheme=None if is_var or stack is None else stack.scheme,
                      split=split, **fields)


def _check_scenario(model_kind: str, stack: WeightStack | None) -> None:
    if model_kind not in (MODEL_VAR, MODEL_STAR, MODEL_LASSO_STAR):
        raise DataError(f"unknown model kind {model_kind!r}")
    if model_kind != MODEL_VAR and stack is None:
        name = model_kind.upper().replace("_", "-")
        raise DataError(f"{name} scenario needs a weight stack")


def _fit_ols(panel: DemandPanel, stack: WeightStack | None, model_kind: str,
             order: ModelOrder, fit_end: int):
    if model_kind == MODEL_VAR:
        return fit_var_ols(panel, order.p, (0, fit_end))
    return fit_star_ols(build_design(panel, stack, order, (0, fit_end)), scheme=stack.scheme)


def fit_scenario_model(
    panel: DemandPanel,
    stack: WeightStack | None,
    model_kind: str,
    order: ModelOrder,
    split: SplitSpec,
    config: LassoConfig = LassoConfig(),
):
    """Fit the model that a scenario scores on its test span [t2, t_end).

    VAR and STAR are least-squares fits on [0, t2). LASSO-STAR tunes the
    penalty on the validation span (see :func:`tune_lambda`), then fits
    at lambda* on [0, t2), or on [0, t1) with ``config.refit_after_tuning``
    off. Returns (model, curve); curve is the [(lambda, validation MSPE),
    ...] list for LASSO-STAR and None otherwise.
    """
    _check_scenario(model_kind, stack)
    if model_kind != MODEL_LASSO_STAR:
        return _fit_ols(panel, stack, model_kind, order, split.t2), None
    lam, curve = tune_lambda(panel, stack, order, split, config)
    fit_end = split.t2 if config.refit_after_tuning else split.t1
    design = build_design(panel, stack, order, (0, fit_end))
    return fit_lasso_star(design, lam, scheme=stack.scheme), curve


def run_scenario(
    panel: DemandPanel,
    stack: WeightStack | None,
    model_kind: str,
    order: ModelOrder,
    split: SplitSpec,
    config: LassoConfig = LassoConfig(),
) -> EvalReport:
    """Fit, tune (penalized models), refit and evaluate one scenario.

    The test model comes from :func:`fit_scenario_model` and is scored on
    [t2, t_end). Validation MSPE is the best point of the penalty curve
    for LASSO-STAR; for VAR and STAR it comes from a fit on [0, t1)
    predicting [t1, t2).
    """
    t0 = time.perf_counter()
    _check_scenario(model_kind, stack)
    val_mspe = None
    if model_kind != MODEL_LASSO_STAR:
        val_range = (split.t1, split.t2)
        m_val = _fit_ols(panel, stack, model_kind, order, split.t1)
        val_mspe = mspe(panel, predict_range(m_val, panel, val_range, stack), val_range)
    model, curve = fit_scenario_model(panel, stack, model_kind, order, split, config)
    if curve is not None:
        val_mspe = min(m for _, m in curve)
    test_range = (split.t2, split.t_end)
    test = mspe(panel, predict_range(model, panel, test_range, stack), test_range)
    return _report(model_kind, order, stack, split, val_mspe=val_mspe, test_mspe=test,
                   lambda_=None if curve is None else model.lambda_,
                   seconds=time.perf_counter() - t0)


@dataclass(frozen=True)
class ScenarioGrid:
    """Cartesian scenario axes sharing one split."""

    p_values: tuple[int, ...]
    eta_values: tuple[int, ...]
    stacks: tuple[WeightStack, ...]
    model_kinds: tuple[str, ...] = (MODEL_STAR, MODEL_LASSO_STAR)
    include_var: bool = True
    split: SplitSpec = None
    config: LassoConfig = LassoConfig()

    def __post_init__(self):
        if not self.p_values or (not self.eta_values and self.model_kinds):
            raise DataError("grid axes must be non-empty")
        if self.split is None:
            raise DataError("grid needs a split")


def _scenario_cells(grid: ScenarioGrid):
    for kind in grid.model_kinds:
        for stack in grid.stacks:
            for eta in grid.eta_values:
                for p in grid.p_values:
                    yield (kind, stack, ModelOrder(p=p, eta=eta))
    if grid.include_var:
        for p in grid.p_values:
            yield (MODEL_VAR, None, ModelOrder(p=p, eta=1))


def run_grid(panel: DemandPanel, grid: ScenarioGrid) -> list[EvalReport]:
    """Run every scenario in the grid; failures land in-row as errors.

    Reports come back in a deterministic order (scheme, model, eta
    descending, p).
    """
    reports = []
    for kind, stack, order in _scenario_cells(grid):
        try:
            reports.append(run_scenario(panel, stack, kind, order, grid.split, grid.config))
        except (DataError, NumericalError) as e:
            reports.append(_report(kind, order, stack, grid.split, val_mspe=None,
                                   test_mspe=None, error=str(e)))

    model_rank = {MODEL_STAR: 0, MODEL_LASSO_STAR: 1, MODEL_VAR: 2}
    reports.sort(key=lambda r: (
        r.scheme or "~", -(r.eta or 0), model_rank.get(r.model, 9), r.p))
    return reports


# -- report output ------------------------------------------------------

CSV_COLUMNS = ["model", "p", "eta", "scheme", "val_mspe", "test_mspe", "lambda", "seconds"]


def _cell(v, fmt=None):
    if v is None:
        return ""
    if fmt:
        return fmt % v
    return str(v)


def reports_to_csv(reports: Sequence[EvalReport], path=None,
                   include_seconds: bool = True) -> str:
    """Write the report CSV; returns the CSV text.

    ``include_seconds=False`` drops the one wall-clock column so the
    output is byte-reproducible across runs with the same seed.
    """
    buf = io.StringIO()
    cols = CSV_COLUMNS if include_seconds else CSV_COLUMNS[:-1]
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols + ["error"])
    for r in reports:
        row = [
            r.model, r.p, _cell(r.eta), _cell(r.scheme),
            _cell(r.val_mspe, "%.10g"), _cell(r.test_mspe, "%.10g"),
            _cell(r.lambda_, "%.10g"),
        ]
        if include_seconds:
            row.append("%.3f" % r.seconds)
        row.append(r.error or "")
        w.writerow(row)
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def render_table(reports: Sequence[EvalReport]) -> str:
    """Aligned text table: rows eta descending then model, columns by p,
    one column block per weight scheme; VAR as a single trailing row."""
    ps = sorted({r.p for r in reports})
    schemes = sorted({r.scheme for r in reports if r.scheme is not None})
    etas = sorted({r.eta for r in reports if r.eta is not None}, reverse=True)
    kinds = [k for k in (MODEL_STAR, MODEL_LASSO_STAR)
             if any(r.model == k for r in reports)]
    by_key = {}
    for r in reports:
        by_key[(r.model, r.scheme, r.eta, r.p)] = r

    def fmt(r):
        if r is None:
            return "-"
        if r.error:
            return "ERR"
        return "%.4f" % r.test_mspe

    header = ["eta", "model"]
    for s in schemes:
        for p in ps:
            header.append(f"{s}:p={p}")
    rows = [header]
    for eta in etas:
        for kind in kinds:
            row = [str(eta), kind.upper().replace("_", "-")]
            for s in schemes:
                for p in ps:
                    row.append(fmt(by_key.get((kind, s, eta, p))))
            rows.append(row)
    var_reports = {r.p: r for r in reports if r.model == MODEL_VAR}
    if var_reports:
        row = ["-", "VAR"]
        for s in schemes or [None]:
            for p in ps:
                row.append(fmt(var_reports.get(p)))
        rows.append(row)

    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for i, r in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
