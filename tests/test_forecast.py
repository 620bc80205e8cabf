import weakref

import numpy as np
import pytest

from stardemand import estimators, forecast
from stardemand.errors import DataError
from stardemand.estimators import (
    LassoConfig, StarModel, VarModel, build_design, fit_star_ols, fit_var_ols, lag_regressors,
)
from stardemand.forecast import (
    MODEL_LASSO_STAR, MODEL_STAR, MODEL_VAR,
    EvalReport, ScenarioGrid,
    mspe, predict_range, render_table, reports_to_csv,
    run_grid, run_scenario,
)
from stardemand.panel import ModelOrder, SplitSpec, make_panel
from stardemand.synth import (
    gen_star_process, random_centroid_stack, random_sparse_star_spec, synthetic_zone_ids,
)
from stardemand.weights import WeightStack, adjacency_rings, make_adjacency

from conftest import random_panel, traced_peak
from synth_helpers import paired_adjacency_stack


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
        mutated = make_panel(panel.zone_ids, vals, kind=panel.kind)
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

    @pytest.mark.parametrize("p,eta", [(1, 3), (2, 3), (4, 1)])
    def test_blocks_of_a_lower_order_rejected(self, p, eta):
        # the cell would read the wrong columns of the order (3, 2) design, or past them
        panel = random_panel(6, 90, seed=1)
        stack = random_centroid_stack(6, 3, seed=1)
        split = SplitSpec(30, 60, 90)
        blocks = forecast.scenario_blocks(panel, stack, ModelOrder(p=3, eta=2), split)
        with pytest.raises(DataError, match=rf"\(p={p}, eta={eta}\) exceeds .* \(p=3, eta=2\)"):
            run_scenario(panel, stack, MODEL_STAR, ModelOrder(p=p, eta=eta), split,
                         blocks=blocks)

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

    def test_one_design_per_stack(self, monkeypatch):
        # every STAR and LASSO-STAR cell of a stack reads the blocks of one
        # shared design, built in three spans of targets, each at the stack's
        # (P, E), and no lag_regressors call but those inside the builds, so
        # no cell builds rows of its own for its test span
        builds, lags, inside = [], [], []

        def counting_build(panel, stack, order, fit_range):
            builds.append((stack.scheme, order))
            inside.append(True)
            try:
                return build_design(panel, stack, order, fit_range)
            finally:
                inside.pop()

        def counting_lags(Y, p, t_range, matrices=None):
            lags.append(bool(inside))
            return lag_regressors(Y, p, t_range, matrices)

        for module in (estimators, forecast):
            monkeypatch.setattr(module, "build_design", counting_build)
            monkeypatch.setattr(module, "lag_regressors", counting_lags)
        panel = random_panel(6, 60, seed=56)
        stacks = (random_centroid_stack(6, 3, seed=56), paired_adjacency_stack(6, 2))
        reports = run_grid(panel, self._grid(stacks, SplitSpec(20, 40, 60), p_values=(1, 2, 3),
                                             eta_values=(1, 2), include_var=False))
        assert len(reports) == 24 and not any(r.error for r in reports)
        assert sorted(builds) == (3 * [("adjacency", ModelOrder(p=3, eta=2))]
                                  + 3 * [("centroid", ModelOrder(p=3, eta=2))])
        assert lags == 6 * [True]

    def test_cells_scored_from_gram_blocks(self, monkeypatch):
        # no STAR or LASSO-STAR cell multiplies or reads design rows: only
        # VAR cells call predict_range, none calls DesignMatrix.own, and per
        # stack P + 2 Gram builds, of [p, t1) for p = 1..P, [t1, t2) and [t2, t_end)
        predicted, own_calls, grams = [], [], []
        predict, gram, own = forecast.predict_range, estimators._gram, estimators.DesignMatrix.own

        def counting_predict(model, *args, **kwargs):
            predicted.append(type(model).__name__)
            return predict(model, *args, **kwargs)

        def counting_own(self, zone=slice(None)):
            own_calls.append(1)
            return own(self, zone)

        def counting_gram(Z, y):
            grams.append(Z.shape[1])
            return gram(Z, y)

        monkeypatch.setattr(forecast, "predict_range", counting_predict)
        monkeypatch.setattr(estimators.DesignMatrix, "own", counting_own)
        monkeypatch.setattr(estimators, "_gram", counting_gram)
        panel = random_panel(6, 60, seed=56)
        stacks = (random_centroid_stack(6, 3, seed=56), paired_adjacency_stack(6, 2))
        reports = run_grid(panel, self._grid(stacks, SplitSpec(20, 40, 60), p_values=(1, 2, 3),
                                             eta_values=(1, 2)))
        assert len(reports) == 27 and not any(r.error for r in reports)
        # a validation and a test prediction for each of the three VAR cells
        assert predicted == 6 * ["VarModel"] and own_calls == []
        # rows per Gram: the validation and test spans, then [p, 20) for p = 1, 2, 3
        assert grams == 2 * [20, 20, 19, 18, 17]

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


class TestGridMatchesCells:
    """run_grid shares one design per stack; each of its reports must equal
    that of the cell run alone through run_scenario, which builds its own."""

    @pytest.mark.parametrize("config", [
        LassoConfig(n_lambdas=20, refit_after_tuning=False),
        LassoConfig(explicit_grid=(0.0, 0.5, 2.0, 8.0)),
    ], ids=["refit_off", "explicit_grid"])
    def test_reports_equal_cell_by_cell(self, config):
        panel = random_panel(8, 90, seed=58)
        stacks = (random_centroid_stack(8, 3, seed=58), paired_adjacency_stack(8, 2))
        split = SplitSpec(36, 62, 90)
        # eta=3 exceeds the adjacency stack: those cells error in both runs
        grid = ScenarioGrid(p_values=(1, 2, 3), eta_values=(1, 2, 3), stacks=stacks,
                            split=split, config=config, include_var=False)
        reports = run_grid(panel, grid)
        assert len(reports) == 36 and sum(r.error is not None for r in reports) == 6
        by_scheme = {s.scheme: s for s in stacks}
        for r in reports:
            try:
                alone = run_scenario(panel, by_scheme[r.scheme], r.model,
                                     ModelOrder(p=r.p, eta=r.eta), split, config)
            except DataError as e:
                assert r.error == str(e) == "eta=3 exceeds stack depth 2"
                continue
            assert r.error is None and r.lambda_ == alone.lambda_
            np.testing.assert_allclose([r.val_mspe, r.test_mspe],
                                       [alone.val_mspe, alone.test_mspe], rtol=1e-12, atol=0)


class TestZonePermutation:
    """``bench/run.py --seed`` permutes the zones of the panel and stack files
    together and takes every answer to be unchanged. The LASSO walk indexes
    each zone's inverse by fancy indexing; a step that mixed zones, or a Gram
    sub-block read from the wrong zone, would show here."""

    @pytest.mark.parametrize("refit", [True, False], ids=["refit_on", "refit_off"])
    def test_every_cell_unchanged(self, refit):
        panel = random_panel(8, 90, seed=59)
        stacks = (random_centroid_stack(8, 3, seed=59), paired_adjacency_stack(8, 2))
        perm = np.random.default_rng(59).permutation(8)
        ids = [panel.zone_ids[i] for i in perm]
        moved = make_panel(ids, panel.values[perm], kind=panel.kind)
        moved_stacks = tuple(
            WeightStack(matrices=tuple(W[np.ix_(perm, perm)] for W in s.matrices),
                        scheme=s.scheme, zone_ids=tuple(ids)) for s in stacks)
        axes = dict(p_values=(1, 2, 3), eta_values=(1, 2), split=SplitSpec(36, 62, 90),
                    config=LassoConfig(n_lambdas=20, refit_after_tuning=refit))
        want = run_grid(panel, ScenarioGrid(stacks=stacks, **axes))
        got = run_grid(moved, ScenarioGrid(stacks=moved_stacks, **axes))
        assert len(got) == len(want) == 27 and all(r.error is None for r in want)
        assert sum(r.lambda_ is not None for r in want) == 12
        for g, w in zip(got, want):
            assert (g.model, g.p, g.eta, g.scheme, g.lambda_) == (w.model, w.p, w.eta, w.scheme,
                                                                  w.lambda_)
            np.testing.assert_allclose([g.val_mspe, g.test_mspe], [w.val_mspe, w.test_mspe],
                                       rtol=1e-12, atol=0)


def _cell_on_own_designs(panel, stack, kind, order, split, config):
    """(lambda*, val MSPE, test MSPE, test coefficients) of one cell fit and
    scored on designs that build_design makes for each of its ranges."""
    p, (t1, t2, t_end) = order.p, (split.t1, split.t2, split.t_end)

    def rows(a, b):         # the targets [a, b)
        return build_design(panel, stack, order, (a - p, b))

    def score(coefs, a, b):
        return float(np.sum(estimators.sse(rows(a, b), coefs))) / (panel.k * (b - a))

    if kind == MODEL_STAR:
        lam, val = None, score(fit_star_ols(rows(p, t1)).coefficients, t1, t2)
        model = fit_star_ols(rows(p, t2))
    else:
        head = rows(p, t1).gram()
        grid = config.grid(estimators.lambda_max(head))
        path = estimators.fit_lasso_path(head, grid)
        lam, val = min(((g, score(path[..., n], t1, t2)) for n, g in enumerate(grid)),
                       key=lambda c: c[1])
        model = estimators.fit_lasso_star(rows(p, t2 if config.refit_after_tuning else t1), lam)
    return lam, val, score(model.coefficients, t2, t_end), model.coefficients


class TestRowsFormedOnDemand:
    """A cell's rows are built from the panel only where a fit or a score
    reads them: the lstsq zones of _solve_normal and the loose zones of sse.
    Either way the cell's report matches the cell fit on its own designs."""

    def _run(self, monkeypatch, panel, grid):
        """run_grid's reports, and the branch that asked for each cell's rows
        (StarBlocks forms rows through estimators.build_design, while the
        stack's span builds go through forecast's)."""
        formed, branch, lstsq_calls = [], [], []

        def entered(name, fn):
            def wrapped(*args, **kwargs):
                branch.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    branch.pop()
            return wrapped

        def counting_build(panel, stack, order, fit_range):
            formed.append((order.p, order.eta, branch[-1] if branch else None))
            return build_design(panel, stack, order, fit_range)

        def counting_lstsq(*args, **kwargs):
            lstsq_calls.append(1)
            return lstsq(*args, **kwargs)

        lstsq = np.linalg.lstsq
        monkeypatch.setattr(estimators, "build_design", counting_build)
        monkeypatch.setattr(estimators, "_solve_normal",
                            entered("lstsq", estimators._solve_normal))
        for module in (estimators, forecast):
            monkeypatch.setattr(module, "sse", entered("sse", estimators.sse))
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        return run_grid(panel, grid), formed, len(lstsq_calls)

    def _assert_match_own_designs(self, panel, stack, grid, reports):
        assert reports and not any(r.error for r in reports)
        for r in reports:
            lam, val, test, coefs = _cell_on_own_designs(
                panel, stack, r.model, ModelOrder(p=r.p, eta=r.eta), grid.split, grid.config)
            assert r.lambda_ == lam
            np.testing.assert_allclose([r.val_mspe, r.test_mspe], [val, test],
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(r.fit.coefficients, coefs, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(coefs)))

    def test_lstsq_zones(self, monkeypatch):
        # z04 and z05 have no neighbours: their ring-1 columns are zero, so
        # in the eta = 2 cells their Cholesky pivots fail and each fit solves
        # them by lstsq from rows formed once for both; the eta = 1 cells
        # form none
        k = 6
        ids = synthetic_zone_ids(k)
        stack = adjacency_rings(make_adjacency(ids, zip(ids[:3], ids[1:4])), 2)
        panel = random_panel(k, 90, seed=60)
        grid = ScenarioGrid(p_values=(1, 2), eta_values=(1, 2), stacks=(stack,),
                            split=SplitSpec(30, 60, 90), model_kinds=(MODEL_STAR,),
                            include_var=False)
        reports, formed, lstsq_calls = self._run(monkeypatch, panel, grid)
        # two fits per eta = 2 cell, on [0, t1) and [0, t2)
        assert sorted(formed) == sorted(2 * [(r.p, 2, "lstsq") for r in reports if r.eta == 2])
        assert lstsq_calls == 2 * len(formed)
        self._assert_match_own_designs(panel, stack, grid, reports)

    def test_sse_row_zones(self, monkeypatch):
        # with no rounding allowance every zone of every score is summed from its rows
        monkeypatch.setattr(estimators, "SSE_GRAM_TOLERANCE", 0.0)
        panel = random_panel(5, 90, seed=61)
        stack = random_centroid_stack(5, 2, seed=61)
        grid = ScenarioGrid(p_values=(1, 2), eta_values=(1, 2), stacks=(stack,),
                            split=SplitSpec(30, 60, 90), include_var=False,
                            config=LassoConfig(n_lambdas=10))
        reports, formed, lstsq_calls = self._run(monkeypatch, panel, grid)
        # once per design a residual sum of squares is read from: a STAR cell's
        # two fits (sigma2) and two scores, a LASSO-STAR cell's validation
        # curve, test fit and test score
        per_cell = {MODEL_STAR: 4, MODEL_LASSO_STAR: 3}
        want = [(r.p, r.eta, "sse") for r in reports for _ in range(per_cell[r.model])]
        assert sorted(formed) == sorted(want) and lstsq_calls == 0
        self._assert_match_own_designs(panel, stack, grid, reports)


class TestGridMemory:
    """A grid holds no whole design: a stack's design is built a span of
    targets at a time, and its blocks are released after its stack's cells,
    before the next stack's are built and before the VAR cells run."""

    # In units of one stack's design, k x (t_end + P - 2) x E floats,
    # run_grid's peak reads 1.04 with one stack and VAR, and 1.46 with two
    # stacks, whose paired adjacency stack forms rows for lstsq. One more
    # design-sized array alive at the peak adds 1.0.
    RATIO = 2.2
    # one stack: the padded panel, one span's rows and a W(l) Y product;
    # holding the whole design read 1.90
    ONE_STACK_RATIO = 1.2

    @pytest.mark.parametrize("n_stacks,include_var", [(1, True), (2, False)],
                             ids=["one_stack_with_var", "two_stacks"])
    def test_peak_within_one_design(self, n_stacks, include_var):
        # a tall design of few columns outweighs its Gram and path arrays
        k, T, P, E = 40, 2000, 2, 3
        panel = random_panel(k, T, seed=59)
        stacks = (random_centroid_stack(k, E, seed=59), paired_adjacency_stack(k, E))
        grid = ScenarioGrid(p_values=(1, P), eta_values=(1, E), stacks=stacks[:n_stacks],
                            split=SplitSpec(700, 1400, T), include_var=include_var)
        reports, peak = traced_peak(lambda: run_grid(panel, grid))
        assert len(reports) == 8 * n_stacks + 2 * include_var
        assert not any(r.error for r in reports)
        assert peak <= self.RATIO * k * (T + P - 2) * E * 8

    def test_one_stack_holds_no_whole_design(self):
        k, T, P, E = 40, 2000, 2, 3
        panel = random_panel(k, T, seed=59)
        grid = ScenarioGrid(p_values=(1, P), eta_values=(1, E),
                            stacks=(random_centroid_stack(k, E, seed=59),),
                            split=SplitSpec(700, 1400, T))
        reports, peak = traced_peak(lambda: run_grid(panel, grid))
        assert len(reports) == 10 and not any(r.error for r in reports)
        assert peak <= self.ONE_STACK_RATIO * k * (T + P - 2) * E * 8

    def test_var_fit_holds_no_regressor_matrix(self):
        # the T_used x (k * p + 1) regressors take 2.6 MB here; the fit's
        # peak reads 0.64 of that, and 1.54 when it built them
        k, T, p = 40, 2000, 4
        panel = random_panel(k, T, seed=59)
        _, peak = traced_peak(lambda: fit_var_ols(panel, p, (0, T)))
        assert peak <= 0.8 * (T - p) * (k * p + 1) * 8

    def test_blocks_released_after_their_stack(self, monkeypatch):
        # no stack's blocks are alive when the next stack's are built or a VAR cell fits
        built, alive = [], []
        make_blocks, fit_var = forecast.scenario_blocks, forecast.fit_var_ols

        def tracked_blocks(*args):
            alive.append(sum(ref() is not None for ref in built))
            blocks = make_blocks(*args)
            built.append(weakref.ref(blocks))
            return blocks

        def tracked_var(*args):
            alive.append(sum(ref() is not None for ref in built))
            return fit_var(*args)

        monkeypatch.setattr(forecast, "scenario_blocks", tracked_blocks)
        monkeypatch.setattr(forecast, "fit_var_ols", tracked_var)
        panel = random_panel(6, 60, seed=56)
        stacks = (random_centroid_stack(6, 3, seed=56), paired_adjacency_stack(6, 2))
        reports = run_grid(panel, ScenarioGrid(p_values=(1, 2), eta_values=(1, 2), stacks=stacks,
                                               split=SplitSpec(20, 40, 60)))
        assert len(reports) == 18 and not any(r.error for r in reports)
        # two block builds, then a fit on [0, t1) and one on [0, t2) per VAR cell
        assert len(built) == 2 and alive == 6 * [0]


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

    def test_var_only_table_keeps_its_mspes(self):
        # with no scheme the header still has one column per p
        reports = [r for r in self._reports() if r.model == "var"]
        lines = render_table(reports).splitlines()
        assert lines[0].split() == ["eta", "model", "p=1", "p=2"]
        assert lines[2].split() == ["-", "VAR"] + ["%.4f" % r.test_mspe for r in reports]

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
