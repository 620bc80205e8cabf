import numpy as np
import pytest

from stardemand.errors import DataError
from stardemand.estimators import (
    LassoConfig, StarModel, VarModel, build_design, fit_star_ols, fit_var_ols,
)
from stardemand.forecast import (
    MODEL_LASSO_STAR, MODEL_STAR, MODEL_VAR,
    EvalReport, ScenarioGrid,
    mspe, predict_range, render_table, reports_to_csv,
    run_grid, run_scenario,
)
from stardemand.panel import ModelOrder, SplitSpec, make_panel
from stardemand.synth import random_centroid_stack, random_sparse_star_spec, gen_star_process
from stardemand.weights import WeightStack

from conftest import random_panel


def _star_model(coefs, order, fit_range=(0, 10)):
    return StarModel(order=order, coefficients=np.asarray(coefs, dtype=float),
                     sigma2=1.0, scheme="centroid", fit_range=fit_range)


def _id_stack(k, zone_ids=None):
    ids = tuple(zone_ids or (f"z{i:02d}" for i in range(k)))
    return WeightStack(matrices=(np.eye(k),), scheme="centroid", zone_ids=ids)


def _predict_bin(model, panel, t, stack=None):
    """The prediction of bin t alone, from a one-bin range."""
    return predict_range(model, panel, (t, t + 1), stack=stack)[:, 0]


def naive_star(model, panel, stack, t):
    p, eta = model.order.p, model.order.eta
    k = panel.k
    out = np.zeros(k)
    for i in range(k):
        for j in range(1, p + 1):
            for l in range(eta):
                wy = sum(stack.matrices[l][i, z] * panel.values[z, t - j] for z in range(k))
                out[i] += model.coefficients[i, (j - 1) * eta + l] * wy
    return out


def naive_var(model, panel, t):
    k = panel.k
    out = model.intercept.copy()
    for i in range(k):
        for j in range(1, model.p + 1):
            for z in range(k):
                out[i] += model.lag_matrices[j - 1][i, z] * panel.values[z, t - j]
    return out


def _var_model(k, p, seed):
    rng = np.random.default_rng(seed)
    return VarModel(p=p, intercept=rng.normal(size=k),
                    lag_matrices=tuple(rng.normal(size=(k, k)) for _ in range(p)),
                    residual_cov=np.eye(k), fit_range=(0, 10))


class TestPredictOneStep:
    def test_scalar_star(self):
        panel = make_panel(["z00"], [[0, 4, 0]], kind="real")
        model = _star_model([[0.5]], ModelOrder(p=1, eta=1))
        pred = _predict_bin(model, panel, 2, stack=_id_stack(1))
        assert pred[0] == 2.0

    def test_zero_coefficients(self):
        panel = random_panel(2, 10, seed=40)
        star = _star_model(np.zeros((2, 1)), ModelOrder(p=1, eta=1))
        assert np.all(_predict_bin(star, panel, 5, stack=_id_stack(2)) == 0)
        var = VarModel(p=1, intercept=np.array([3.0, -1.0]),
                       lag_matrices=(np.zeros((2, 2)),),
                       residual_cov=np.eye(2), fit_range=(0, 10))
        assert np.allclose(_predict_bin(var, panel, 5), [3.0, -1.0])

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(41)
        panel = random_panel(2, 5, seed=41)
        stack = random_centroid_stack(2, 2, seed=41)
        model = _star_model(rng.normal(size=(2, 4)), ModelOrder(p=2, eta=2))
        t = 3
        pred = _predict_bin(model, panel, t, stack=stack)
        assert np.max(np.abs(pred - naive_star(model, panel, stack, t))) < 1e-12

    def test_causality(self):
        # permuting values at indices >= t must not change the prediction
        panel = random_panel(3, 20, seed=42)
        stack = random_centroid_stack(3, 2, seed=42)
        model = _star_model(np.random.default_rng(42).normal(size=(3, 4)),
                            ModelOrder(p=2, eta=2))
        t = 10
        base = _predict_bin(model, panel, t, stack=stack)
        vals = panel.values.copy()
        vals[:, t:] = vals[:, t:][:, ::-1] + 99.0
        mutated = panel.with_values(vals)
        assert np.array_equal(_predict_bin(model, panel, t, stack=stack), base)
        assert np.array_equal(_predict_bin(model, mutated, t, stack=stack), base)

    def test_insufficient_history(self):
        panel = random_panel(1, 10, seed=43)
        model = _star_model([[0.5, 0.1]], ModelOrder(p=2, eta=1))
        with pytest.raises(DataError):
            _predict_bin(model, panel, 1, stack=_id_stack(1))
        with pytest.raises(DataError):
            predict_range(model, panel, (1, 5), stack=_id_stack(1))
        with pytest.raises(DataError):
            predict_range(model, panel, (5, 12), stack=_id_stack(1))


class TestPredictRange:
    def test_star_matches_naive_loop(self):
        rng = np.random.default_rng(60)
        panel = random_panel(5, 30, seed=60)
        stack = random_centroid_stack(5, 3, seed=60)
        for p, eta in [(1, 1), (2, 3), (4, 2)]:
            model = _star_model(rng.normal(size=(5, p * eta)), ModelOrder(p=p, eta=eta))
            pred = predict_range(model, panel, (p + 3, 30), stack=stack)
            want = np.column_stack([naive_star(model, panel, stack, t)
                                    for t in range(p + 3, 30)])
            assert np.max(np.abs(pred - want)) < 1e-12

    def test_var_matches_naive_loop(self):
        panel = random_panel(4, 30, seed=61)
        for p in (1, 3):
            model = _var_model(4, p, seed=61 + p)
            pred = predict_range(model, panel, (p, 30))
            want = np.column_stack([naive_var(model, panel, t) for t in range(p, 30)])
            assert np.max(np.abs(pred - want)) < 1e-12

    def test_bins_match_one_step(self):
        panel = random_panel(3, 25, seed=62)
        stack = random_centroid_stack(3, 2, seed=62)
        star = _star_model(np.random.default_rng(62).normal(size=(3, 4)),
                           ModelOrder(p=2, eta=2))
        var = _var_model(3, 2, seed=62)
        for model, st in ((star, stack), (var, None)):
            pred = predict_range(model, panel, (4, 25), stack=st)
            for t in range(4, 25):
                assert np.allclose(pred[:, t - 4], _predict_bin(model, panel, t, st),
                                   rtol=0, atol=1e-12)

    def test_bin_past_the_panel(self):
        # bin T is predictable: it needs only the history at bins < T
        panel = random_panel(3, 12, seed=63)
        stack = random_centroid_stack(3, 2, seed=63)
        star = _star_model(np.random.default_rng(63).normal(size=(3, 4)),
                           ModelOrder(p=2, eta=2))
        var = _var_model(3, 2, seed=63)
        T = panel.T
        got = predict_range(star, panel, (T - 3, T + 1), stack=stack)
        assert got.shape == (3, 4)
        assert np.max(np.abs(got[:, -1] - naive_star(star, panel, stack, T))) < 1e-12
        got = predict_range(var, panel, (T, T + 1))
        assert np.max(np.abs(got[:, 0] - naive_var(var, panel, T))) < 1e-12
        with pytest.raises(DataError):
            predict_range(var, panel, (T, T + 2))

    def test_star_needs_a_matching_stack(self):
        panel = random_panel(2, 10, seed=64)
        model = _star_model(np.zeros((2, 2)), ModelOrder(p=1, eta=2))
        stack = random_centroid_stack(2, 2, seed=64)
        for bad in (None, _id_stack(2)):
            with pytest.raises(DataError):
                predict_range(model, panel, (2, 5), stack=bad)
        shuffled = WeightStack(matrices=stack.matrices, scheme=stack.scheme,
                               zone_ids=stack.zone_ids[::-1])
        with pytest.raises(DataError):
            predict_range(model, panel, (2, 5), stack=shuffled)


class TestMspe:
    def test_perfect(self):
        panel = random_panel(3, 10, seed=44)
        assert mspe(panel, panel.values[:, 4:8], (4, 8)) == 0.0

    def test_off_by_one(self):
        panel = random_panel(4, 12, seed=45)
        assert mspe(panel, panel.values[:, 2:9] + 1.0, (2, 9)) == 1.0

    def test_shape_mismatch(self):
        panel = random_panel(2, 10, seed=47)
        with pytest.raises(DataError):
            mspe(panel, np.zeros((2, 3)), (0, 4))


def naive_mspe(actual, predicted):
    k, n = actual.shape
    acc = 0.0
    for i in range(k):
        for t in range(n):
            acc += (actual[i, t] - predicted[i, t]) ** 2
    return acc / (k * n)


def test_mspe_random_oracle():
    rng = np.random.default_rng(48)
    for _ in range(50):
        k = int(rng.integers(1, 8))
        T = int(rng.integers(5, 30))
        panel = make_panel([f"z{i:02d}" for i in range(k)],
                           rng.normal(size=(k, T)), kind="real")
        lo = int(rng.integers(0, T - 1))
        hi = int(rng.integers(lo + 1, T + 1))
        pred = rng.normal(size=(k, hi - lo))
        got = mspe(panel, pred, (lo, hi))
        want = naive_mspe(panel.values[:, lo:hi], pred)
        assert abs(got - want) < 1e-12


class TestRunScenario:
    def test_star_eta1_equals_independent_ar(self):
        panel = random_panel(3, 60, seed=49)
        stack = random_centroid_stack(3, 1, seed=49)
        split = SplitSpec(20, 40, 60)
        order = ModelOrder(p=2, eta=1)
        rep = run_scenario(panel, stack, MODEL_STAR, order, split)

        # oracle: k independent AR(2) OLS fits, no intercept
        preds = np.zeros((3, 20))
        for i in range(3):
            y = panel.values[i]
            X = np.column_stack([y[1:39], y[0:38]])
            phi = np.linalg.lstsq(X, y[2:40], rcond=None)[0]
            for t in range(40, 60):
                preds[i, t - 40] = phi[0] * y[t - 1] + phi[1] * y[t - 2]
        want = mspe(panel, preds, (40, 60))
        assert abs(rep.test_mspe - want) < 1e-10

    def test_var_rank_deficient_finite(self):
        panel = random_panel(27, 96, seed=50)
        split = SplitSpec(32, 64, 96)
        rep = run_scenario(panel, None, MODEL_VAR, ModelOrder(p=2, eta=1), split)
        assert np.isfinite(rep.test_mspe)

    def test_lasso_zero_grid_equals_star(self):
        panel = random_panel(4, 80, seed=51)
        stack = random_centroid_stack(4, 2, seed=51)
        split = SplitSpec(26, 53, 80)
        order = ModelOrder(p=1, eta=2)
        star = run_scenario(panel, stack, MODEL_STAR, order, split)
        cfg = LassoConfig(explicit_grid=(0.0,))
        lasso = run_scenario(panel, stack, MODEL_LASSO_STAR, order, split, cfg)
        assert abs(star.test_mspe - lasso.test_mspe) < 1e-6

    def test_unknown_kind(self):
        panel = random_panel(2, 30, seed=52)
        with pytest.raises(DataError):
            run_scenario(panel, None, "arima", ModelOrder(p=1, eta=1),
                         SplitSpec(10, 20, 30))


class TestRunGrid:
    def _grid(self, stacks, split, **kw):
        defaults = dict(p_values=(1, 2), eta_values=(1, 2), stacks=stacks,
                        split=split)
        defaults.update(kw)
        return ScenarioGrid(**defaults)

    def test_counts(self):
        panel = random_panel(3, 60, seed=53)
        s1 = random_centroid_stack(3, 2, seed=53)
        split = SplitSpec(20, 40, 60)
        reports = run_grid(panel, self._grid((s1,), split))
        # 2 models x 1 stack x 2 eta x 2 p + VAR per p
        assert len(reports) == 8 + 2
        assert sum(r.model == MODEL_VAR for r in reports) == 2

    def test_single_cell(self):
        panel = random_panel(2, 40, seed=54)
        s1 = random_centroid_stack(2, 1, seed=54)
        split = SplitSpec(12, 26, 40)
        reports = run_grid(panel, self._grid(
            (s1,), split, p_values=(1,), eta_values=(1,),
            model_kinds=(MODEL_STAR,), include_var=False))
        assert len(reports) == 1

    def test_failures_recorded_in_row(self):
        panel = random_panel(3, 60, seed=55)
        s1 = random_centroid_stack(3, 2, seed=55)
        split = SplitSpec(20, 40, 60)
        # eta=3 exceeds stack depth 2: those rows error, others succeed
        reports = run_grid(panel, self._grid((s1,), split, eta_values=(2, 3)))
        bad = [r for r in reports if r.error]
        good = [r for r in reports if not r.error]
        assert len(bad) == 4 and all(r.eta == 3 for r in bad)
        assert all(np.isfinite(r.test_mspe) for r in good)


class TestRendering:
    def _reports(self):
        panel = random_panel(3, 60, seed=57)
        s1 = random_centroid_stack(3, 2, seed=57)
        split = SplitSpec(20, 40, 60)
        grid = ScenarioGrid(p_values=(1, 2), eta_values=(1, 2), stacks=(s1,),
                            split=split)
        return run_grid(panel, grid)

    def test_csv_columns(self):
        text = reports_to_csv(self._reports())
        header = text.splitlines()[0]
        assert header == "model,p,eta,scheme,val_mspe,test_mspe,lambda,seconds,error"

    def test_table_four_decimals(self):
        table = render_table(self._reports())
        lines = table.splitlines()
        assert "centroid:p=1" in lines[0]
        assert any("VAR" in ln for ln in lines)
        # every MSPE cell is rendered to 4 decimal places
        import re
        cells = re.findall(r"\d+\.\d+", table)
        assert cells and all(len(c.split(".")[1]) == 4 for c in cells)

    def test_eta_rows_descending(self):
        table = render_table(self._reports())
        etas = [int(ln.split()[0]) for ln in table.splitlines()[2:]
                if ln.split() and ln.split()[0].isdigit()]
        assert etas == sorted(etas, reverse=True)


def test_qualitative_ordering_small():
    # smaller-scale version of the headline comparison: VAR overfits a
    # sparse spatio-temporal truth, the penalized model does not
    k, T = 12, 96
    order = ModelOrder(p=1, eta=2)
    stack = random_centroid_stack(k, 2, seed=1)
    split = SplitSpec(32, 64, 96)
    wins = 0
    for seed in range(10):
        spec = random_sparse_star_spec(k, order, stack, sigma=1.0, length=T,
                                       seed=seed, density=0.4)
        panel = gen_star_process(spec, stack)
        var = run_scenario(panel, None, MODEL_VAR, order, split)
        las = run_scenario(panel, stack, MODEL_LASSO_STAR, order, split,
                           LassoConfig(n_lambdas=25))
        if var.test_mspe > las.test_mspe:
            wins += 1
    assert wins >= 8
