"""One-step-ahead prediction, MSPE evaluation and the scenario grid.

Test predictions are rolling one-step: the prediction at bin t always
conditions on the true observed history at bins < t, never on earlier
predictions. A STAR scenario reads its fits and its validation and test
scores from the Gram blocks of a :class:`StarBlocks`, its own or in the
grid the one of its stack, so it multiplies no design rows: a residual
sum of squares is the quadratic form of :func:`sse`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError
from .panel import DemandPanel, ModelOrder, SplitSpec, is_count
from .weights import WeightStack
from .estimators import (
    LassoConfig, StarBlocks, StarModel, VarModel, build_design, check_stack,
    fit_lasso_star, fit_star_ols, fit_var_ols, lag_regressors, mspe, sse, star_blocks,
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
        check_stack(panel, stack, model.order.eta)
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
    Z = lag_regressors(Y, p, t_range, stack.matrices[:model.order.eta])
    return np.matmul(Z, model.coefficients[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class EvalReport:
    """Per-scenario evaluation outcome. ``fit`` (the test model) and
    ``curve`` (the validation curve) are left out of its equality."""

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
    fit: VarModel | StarModel | None = field(default=None, compare=False, repr=False)
    curve: list[tuple[float | None, float]] | None = field(
        default=None, compare=False, repr=False)

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


def scenario_blocks(panel: DemandPanel, stack: WeightStack | None, order: ModelOrder,
                    split: SplitSpec) -> StarBlocks:
    """The blocks of ``split`` for the cells up to ``order``, from a design of
    ``order`` built one span of targets at a time (see :func:`star_blocks`).
    Every span, a cell's rows too, is built on the panel with P - 1 zero bins
    before bin 0: a cell of order p reads the targets t >= p, which read none."""
    lead = order.p - 1
    zeros = DemandPanel(panel.zone_ids, np.pad(panel.values, ((0, 0), (lead, 0))))
    return star_blocks(panel, order, split, lambda cell, a, b: build_design(
        zeros, stack, cell, (a - cell.p + lead, b + lead)))


def _mspe(model: VarModel | StarModel, panel: DemandPanel, blocks: StarBlocks | None,
          t_range: tuple[int, int]) -> float:
    """The MSPE of ``model`` on the targets [start, end): a VAR model's from
    :func:`predict_range`, a STAR model's from the Gram of its rows in
    ``blocks`` (:func:`sse`)."""
    if isinstance(model, VarModel):
        return mspe(panel, predict_range(model, panel, t_range), t_range)
    rows = blocks.rows(model.order, t_range)
    return float(np.sum(sse(rows, model.coefficients))) / rows.y.size


def run_scenario(
    panel: DemandPanel,
    stack: WeightStack | None,
    model_kind: str,
    order: ModelOrder,
    split: SplitSpec,
    config: LassoConfig = LassoConfig(),
    blocks: StarBlocks | None = None,
) -> EvalReport:
    """Fit and evaluate one scenario: its test model, fit on [0, t2) and
    scored on [t2, t_end), and its validation curve on [t1, t2).

    VAR and STAR are least-squares fits; their one-point curve
    [(None, validation MSPE)] scores a fit on [0, t1). LASSO-STAR tunes the
    penalty on the validation span (see :func:`tune_lambda`), then fits at
    lambda* on [0, t2), or on [0, t1) with ``config.refit_after_tuning``
    off; its curve is [(lambda, validation MSPE), ...]. The report's
    validation MSPE and lambda* (None for VAR and STAR) are the curve's
    first minimum, and it carries the test model as ``fit`` and the curve
    as ``curve``. A STAR or LASSO-STAR scenario takes every fit design and
    scored row from ``blocks`` of a design of its order or higher, built
    here over (0, t_end) if not given.
    """
    t0 = time.perf_counter()
    if model_kind == MODEL_VAR:
        def fit(end):
            return fit_var_ols(panel, order.p, (0, end))
    elif model_kind in (MODEL_STAR, MODEL_LASSO_STAR):
        if blocks is None:
            blocks = scenario_blocks(panel, stack, order, split)

        def fit(end):
            return fit_star_ols(blocks.rows(order, (order.p, end)), scheme=stack.scheme)
    else:
        raise DataError(f"unknown model kind {model_kind!r}")
    if model_kind == MODEL_LASSO_STAR:
        lam, curve = tune_lambda(blocks, order, config)
        fit_end = split.t2 if config.refit_after_tuning else split.t1
        model = fit_lasso_star(blocks.rows(order, (order.p, fit_end)), lam,
                               scheme=stack.scheme)
    else:
        curve = [(None, _mspe(fit(split.t1), panel, blocks, (split.t1, split.t2)))]
        model = fit(split.t2)
    lam, val_mspe = min(curve, key=lambda c: c[1])
    test = _mspe(model, panel, blocks, (split.t2, split.t_end))
    return _report(model_kind, order, stack, split, val_mspe=val_mspe, test_mspe=test,
                   lambda_=lam, seconds=time.perf_counter() - t0, fit=model, curve=curve)


@dataclass(frozen=True)
class ScenarioGrid:
    """Cartesian scenario axes sharing one split."""

    p_values: tuple[int, ...]
    eta_values: tuple[int, ...]
    stacks: tuple[WeightStack, ...]
    split: SplitSpec
    model_kinds: tuple[str, ...] = (MODEL_STAR, MODEL_LASSO_STAR)
    include_var: bool = True
    config: LassoConfig = LassoConfig()

    def __post_init__(self):
        if not self.p_values or (not self.eta_values and self.model_kinds):
            raise DataError("grid axes must be non-empty")
        for axis in ("p_values", "eta_values"):
            for v in getattr(self, axis):
                if not is_count(v, 1):
                    raise DataError(f"{axis} must each be an int >= 1, got {v!r}")
        schemes = [s.scheme for s in self.stacks]
        if len(set(schemes)) != len(schemes):
            # reports name a stack by its scheme alone
            raise DataError(f"grid stacks must have distinct schemes, got {schemes}")


def _run_cell(panel: DemandPanel, grid: ScenarioGrid, kind: str, stack: WeightStack | None,
              order: ModelOrder, blocks: StarBlocks | None) -> EvalReport:
    """One cell's report; a failure lands in it as its error."""
    try:
        return run_scenario(panel, stack, kind, order, grid.split, grid.config, blocks)
    except (DataError, NumericalError) as e:
        return _report(kind, order, stack, grid.split, val_mspe=None, test_mspe=None,
                       error=str(e))


def _stack_reports(panel: DemandPanel, grid: ScenarioGrid,
                   stack: WeightStack) -> list[EvalReport]:
    """The STAR and LASSO-STAR reports of one stack. Its cells share the
    blocks of one design, of the largest p and eta among the cells that fit
    (p < t1, eta within the stack); a cell that does not fit gets none, and
    so fails alone, saying why. The blocks go when this returns, so a grid
    holds one stack's blocks at a time."""
    ps = [p for p in grid.p_values if p < grid.split.t1]
    etas = [eta for eta in grid.eta_values if eta <= stack.eta_max]
    blocks = None
    if grid.model_kinds and ps and etas:
        with contextlib.suppress(DataError):
            blocks = scenario_blocks(panel, stack, ModelOrder(max(ps), max(etas)), grid.split)
    return [_run_cell(panel, grid, kind, stack, ModelOrder(p=p, eta=eta),
                      blocks if p in ps and eta in etas else None)
            for kind, eta, p in itertools.product(grid.model_kinds, grid.eta_values,
                                                  grid.p_values)]


def run_grid(panel: DemandPanel, grid: ScenarioGrid) -> list[EvalReport]:
    """Run every scenario in the grid; failures land in-row as errors.

    The cells run stack by stack (see :func:`_stack_reports`), then VAR,
    so a grid holds at most one stack's Gram blocks, and none during the
    VAR cells; no whole design is held (see :class:`StarBlocks`). Reports come back in a deterministic order
    (scheme, model, eta descending, p).
    """
    reports = [r for stack in grid.stacks for r in _stack_reports(panel, grid, stack)]
    if grid.include_var:
        reports += [_run_cell(panel, grid, MODEL_VAR, None, ModelOrder(p=p, eta=1), None)
                    for p in grid.p_values]

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


def reports_to_csv(reports: Sequence[EvalReport], include_seconds: bool = True) -> str:
    """The report CSV text.

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
    return buf.getvalue()


def render_table(reports: Sequence[EvalReport]) -> str:
    """Aligned text table: rows eta descending then model, columns by p,
    one column block per weight scheme (one unnamed block with none); VAR as
    a single trailing row."""
    ps = sorted({r.p for r in reports})
    schemes = sorted({r.scheme for r in reports if r.scheme is not None}) or [None]
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
            header.append(f"p={p}" if s is None else f"{s}:p={p}")
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
        for s in schemes:
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
