"""Acceptance gate: the eight release criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines as the criteria execute. Every criterion asserts its stated
tolerance and runtime budget; shared heavy runs are cached so the
determinism criterion can re-execute them fresh and compare bytes.
"""

import time
from pathlib import Path

import numpy as np

from stardemand.estimators import (
    DesignMatrix, LassoConfig, build_design, fit_star_ols,
    fit_var_ols, lambda_max, solve_lasso_batch,
)
from stardemand.forecast import (
    MODEL_LASSO_STAR, MODEL_STAR, MODEL_VAR,
    ScenarioGrid, mspe, predict_range, reports_to_csv,
    run_grid, run_scenario,
)
from stardemand.panel import ModelOrder, SplitSpec, make_panel
from stardemand.synth import gen_star_process, random_centroid_stack, random_sparse_star_spec

from conftest import random_panel
from lasso_oracle import soft_threshold
from synth_helpers import paired_adjacency_stack, recovery_star_spec


def _verdict(number, name, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


_CACHE = {}


def _cached(key, fn):
    if key not in _CACHE:
        _CACHE[key] = fn()
    return _CACHE[key]


# -- criterion 1: MSPE oracle -------------------------------------------

def _naive_mspe(actual, predicted):
    k, n = actual.shape
    acc = 0.0
    for i in range(k):
        for t in range(n):
            acc += (actual[i, t] - predicted[i, t]) ** 2
    return acc / (k * n)


def test_criterion_1_mspe_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 11))
        T = int(rng.integers(3, 51))
        panel = make_panel([f"z{i:02d}" for i in range(k)],
                           rng.normal(size=(k, T)), kind="real")
        lo = int(rng.integers(0, T - 1))
        hi = int(rng.integers(lo + 1, T + 1))
        pred = rng.normal(size=(k, hi - lo))
        worst = max(worst, abs(mspe(panel, pred, (lo, hi))
                               - _naive_mspe(panel.values[:, lo:hi], pred)))
    dt = time.perf_counter() - t0
    _verdict(1, "MSPE oracle", worst < 1e-12 and dt < 1.0,
             f"max abs diff {worst:.2e}, {dt:.2f}s")


# -- criterion 2: OLS oracle --------------------------------------------

def test_criterion_2_ols_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(50):
        k = int(rng.integers(2, 6))
        eta = int(rng.integers(1, min(3, k) + 1))
        p = int(rng.integers(1, 4))
        T = 200
        panel = random_panel(k, T, seed=1000 + trial)
        stack = random_centroid_stack(k, eta, seed=trial)
        order = ModelOrder(p=p, eta=eta)
        design = build_design(panel, stack, order, (0, T))
        model = fit_star_ols(design)
        for i, (Z, y) in enumerate(zip(design.Z, design.y)):
            phi = np.linalg.solve(Z.T @ Z, Z.T @ y)
            worst = max(worst, float(np.max(np.abs(model.coefficients[i] - phi))))

        var = fit_var_ols(panel, p, (0, T))
        Y = panel.values
        rows = [np.concatenate([[1.0]] + [Y[:, t - j] for j in range(1, p + 1)])
                for t in range(p, T)]
        X = np.array(rows)
        B = np.linalg.solve(X.T @ X, X.T @ Y[:, p:T].T)
        worst = max(worst, float(np.max(np.abs(var.intercept - B[0]))))
        for j in range(1, p + 1):
            A = B[1 + (j - 1) * k:1 + j * k].T
            worst = max(worst, float(np.max(np.abs(var.lag_matrices[j - 1] - A))))
    dt = time.perf_counter() - t0
    _verdict(2, "OLS normal-equations oracle", worst < 1e-8 and dt < 5.0,
             f"max abs diff {worst:.2e}, {dt:.2f}s")


# -- criterion 3: LASSO correctness -------------------------------------

def _kkt_violation(Z, y, phi, lam):
    g = Z.T @ (y - Z @ phi)
    worst = 0.0
    for j in range(len(phi)):
        if phi[j] == 0:
            worst = max(worst, abs(g[j]) - lam)
        else:
            worst = max(worst, abs(g[j] - lam * np.sign(phi[j])))
    return worst


def _design(Z, y):
    """A one-zone design."""
    n, m = Z.shape
    return DesignMatrix(Z=np.asarray(Z, dtype=float)[None],
                        y=np.asarray(y, dtype=float)[None],
                        order=ModelOrder(p=1, eta=m), fit_range=(0, n))


def _solve(d, lam):
    """The production solver on a one-zone design."""
    return solve_lasso_batch(d, lam)[0]


def test_criterion_3_lasso_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)

    # (a) zero penalty equals OLS
    worst_a = 0.0
    for _ in range(10):
        Z = rng.normal(size=(60, 5))
        y = rng.normal(size=60)
        d = _design(Z, y)
        ols = np.linalg.solve(Z.T @ Z, Z.T @ y)
        worst_a = max(worst_a, float(np.max(np.abs(_solve(d, 0.0) - ols))))

    # (b) penalty at or above lambda_max gives the exact zero vector
    ok_b = True
    for _ in range(10):
        Z = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        d = _design(Z, y)
        for lam in (lambda_max(d), 1.5 * lambda_max(d)):
            ok_b &= bool(np.all(_solve(d, lam) == 0.0))

    # (c) KKT stationarity certificate on 50 random instances
    worst_c = 0.0
    for trial in range(50):
        n = int(rng.integers(20, 60))
        m = int(rng.integers(1, 9))
        Z = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        d = _design(Z, y)
        lam = float(rng.uniform(0.05, 0.8)) * lambda_max(d)
        phi = _solve(d, lam)
        worst_c = max(worst_c, _kkt_violation(Z, y, phi, lam))

    # (d) orthonormal design: solution is soft-thresholded OLS
    worst_d = 0.0
    for _ in range(10):
        Q = np.linalg.qr(rng.normal(size=(40, 7)))[0]
        y = rng.normal(size=40)
        d = _design(Q, y)
        lam = float(rng.uniform(0.1, 1.0))
        want = np.array([soft_threshold(g, lam) for g in Q.T @ y])
        worst_d = max(worst_d, float(np.max(np.abs(_solve(d, lam) - want))))

    dt = time.perf_counter() - t0
    ok = worst_a < 1e-6 and ok_b and worst_c < 1e-6 and worst_d < 1e-8 and dt < 10.0
    _verdict(3, "LASSO correctness", ok,
             f"ols {worst_a:.2e}, zero@lmax {ok_b}, kkt {worst_c:.2e}, "
             f"ortho {worst_d:.2e}, {dt:.2f}s")


# -- criterion 4: coefficient recovery ----------------------------------

RECOVERY_ORDER = ModelOrder(p=2, eta=2)
RECOVERY_SPLIT = SplitSpec(t1=200, t2=400, t_end=500)


def _run_recovery():
    stack = paired_adjacency_stack(27)
    hits = 0
    reports = []
    for seed in range(20):
        spec = recovery_star_spec(27, stack, sigma=0.1, length=500, seed=seed)
        panel = gen_star_process(spec, stack)
        full = fit_star_ols(build_design(panel, stack, RECOVERY_ORDER, (0, 500)))
        rms = float(np.sqrt(np.mean((full.coefficients - spec.star_coefficients) ** 2)))
        rep = run_scenario(panel, stack, MODEL_STAR, RECOVERY_ORDER, RECOVERY_SPLIT)
        reports.append(rep)
        if rms < 0.05 and abs(rep.test_mspe - 0.01) <= 0.15 * 0.01:
            hits += 1
    return hits, reports_to_csv(reports, include_seconds=False)


def test_criterion_4_recovery():
    t0 = time.perf_counter()
    hits, _ = _cached("recovery", _run_recovery)
    dt = time.perf_counter() - t0
    _verdict(4, "synthetic truth recovery", hits >= 18 and dt < 60.0,
             f"{hits}/20 seeds, {dt:.1f}s")


# -- criterion 5: qualitative model ordering ----------------------------

ORDERING_LASSO = LassoConfig(n_lambdas=25, lambda_min_ratio=1e-2,
                             include_zero=False)


def _run_ordering():
    k, T = 27, 96
    stack = random_centroid_stack(k, 6, seed=0)
    split = SplitSpec(32, 64, 96)
    truth_order = ModelOrder(p=1, eta=2)
    deep_order = ModelOrder(p=4, eta=6)
    var_wins = pen_wins = 0
    reports = []
    for seed in range(50):
        spec = random_sparse_star_spec(k, truth_order, stack, sigma=1.0,
                                       length=T, seed=seed, density=0.4)
        panel = gen_star_process(spec, stack)
        var = run_scenario(panel, None, MODEL_VAR, ModelOrder(p=1, eta=1), split, ORDERING_LASSO)
        las = run_scenario(panel, stack, MODEL_LASSO_STAR, truth_order, split, ORDERING_LASSO)
        star = run_scenario(panel, stack, MODEL_STAR, deep_order, split, ORDERING_LASSO)
        las_deep = run_scenario(panel, stack, MODEL_LASSO_STAR, deep_order, split, ORDERING_LASSO)
        var_wins += var.test_mspe > las.test_mspe
        pen_wins += las_deep.test_mspe <= star.test_mspe
        reports += [var, las, star, las_deep]
    return var_wins, pen_wins, reports_to_csv(reports, include_seconds=False)


def test_criterion_5_qualitative_ordering():
    t0 = time.perf_counter()
    var_wins, pen_wins, _ = _cached("ordering", _run_ordering)
    dt = time.perf_counter() - t0
    ok = var_wins >= 45 and pen_wins >= 45 and dt < 300.0
    _verdict(5, "qualitative ordering", ok,
             f"VAR>LASSO-STAR {var_wins}/50, LASSO-STAR<=STAR {pen_wins}/50, {dt:.1f}s")


# -- criterion 6: desk-scale grid runtime -------------------------------

def _grid_panel():
    stack = random_centroid_stack(27, 6, seed=0)
    spec = random_sparse_star_spec(27, ModelOrder(p=1, eta=2), stack,
                                   sigma=1.0, length=96, seed=0, density=0.4)
    return gen_star_process(spec, stack), stack


def _run_grid_full():
    panel, stack = _grid_panel()
    grid = ScenarioGrid(p_values=(1, 2, 3, 4), eta_values=(1, 2, 3, 4, 5, 6),
                        stacks=(stack,), split=SplitSpec(32, 64, 96))
    reports = run_grid(panel, grid)
    return reports, reports_to_csv(reports, include_seconds=False)


def test_criterion_6_grid_runtime():
    t0 = time.perf_counter()
    reports, _ = _cached("grid", _run_grid_full)
    dt = time.perf_counter() - t0
    n_err = sum(r.error is not None for r in reports)
    ok = dt < 120.0 and len(reports) == 52 and n_err == 0
    _verdict(6, "48-combination grid under 120s", ok,
             f"{len(reports)} rows, {n_err} errors, {dt:.1f}s")


# -- criterion 7: published-number reproduction is documented, not gated

def test_criterion_7_reproduction_documented():
    root = Path(__file__).resolve().parent.parent
    readme = root / "configs" / "README.md"
    ok = readme.exists() and (root / "configs" / "grid_full_day.yaml").exists()
    if ok:
        text = readme.read_text()
        ok = "0.9028" in text and "geometry" in text.lower()
    _verdict(7, "reproduction config ships, numbers not gated", ok,
             "published MSPE values are documented reference points only")


# -- criterion 8: determinism -------------------------------------------

def test_criterion_8_determinism():
    first = {
        "recovery": _cached("recovery", _run_recovery)[-1],
        "ordering": _cached("ordering", _run_ordering)[-1],
        "grid": _cached("grid", _run_grid_full)[-1],
    }
    second = {
        "recovery": _run_recovery()[-1],
        "ordering": _run_ordering()[-1],
        "grid": _run_grid_full()[-1],
    }
    same = {name: first[name] == second[name] for name in first}
    _verdict(8, "byte-identical reports on re-run", all(same.values()),
             ", ".join(f"{n} {'ok' if v else 'DIFFERS'}" for n, v in same.items()))
