import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from stardemand import estimators
from stardemand.errors import ConfigError, DataError, NumericalError, write_json
from stardemand.estimators import (
    KKT_TOLERANCE, MAX_N_LAMBDAS, DesignMatrix, LassoConfig,
    build_design, fit_lasso_path, fit_lasso_star, fit_star_ols, fit_var_ols,
    lag_regressors, lambda_max, model_to_dict, mspe, solve_lasso_batch, sse, tune_lambda,
)
from stardemand.forecast import MODEL_LASSO_STAR, run_scenario, scenario_blocks
from stardemand.panel import ModelOrder, SplitSpec, make_panel
from stardemand.synth import random_centroid_stack, random_sparse_star_spec, gen_star_process
from stardemand.weights import WeightStack, adjacency_rings, make_adjacency

from conftest import random_panel, read_model
from lasso_oracle import (
    OracleConvergenceError, lasso_cd, lasso_objective, soft_threshold, zone_path,
)


def fitted(Z, coefs):
    """Design rows times per-zone coefficients: entry [i, t] is Z[i, t] . coefs[i]."""
    return np.einsum("itm,im->it", Z, coefs)


def naive_design(panel, stack, order, fit_range):
    """Entry-wise triple loop over the Z definition (independent oracle)."""
    start, end = fit_range
    p, eta = order.p, order.eta
    designs = []
    for i in range(panel.k):
        rows = []
        ys = []
        for t in range(start + p, end):
            row = [0.0] * (eta * p)
            for j in range(1, p + 1):
                for l in range(eta):
                    acc = 0.0
                    for z in range(panel.k):
                        acc += stack.matrices[l][i, z] * panel.values[z, t - j]
                    row[(j - 1) * eta + l] = acc
            rows.append(row)
            ys.append(panel.values[i, t])
        designs.append((np.array(rows), np.array(ys)))
    return designs


class TestBuildDesign:
    def test_direct_substitution(self):
        # k=2, eta=2, p=1; W1 row for zone 0 = [0, 1]; y(t-1) = (4, 6)
        panel = make_panel(["a", "b"], [[4, 1], [6, 2]], kind="real")
        w1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        stack = WeightStack(matrices=(np.eye(2), w1), scheme="centroid",
                            zone_ids=("a", "b"))
        design = build_design(panel, stack, ModelOrder(p=1, eta=2), (0, 2))
        assert np.allclose(design.Z[0, 0], [4.0, 6.0])
        assert design.y[0, 0] == 1.0

    def test_eta_one_own_lags(self):
        panel = random_panel(3, 20, seed=11)
        stack = random_centroid_stack(3, 1, seed=11)
        design = build_design(panel, stack, ModelOrder(p=2, eta=1), (0, 20))
        for i, Z in enumerate(design.Z):
            assert np.allclose(Z[:, 0], panel.values[i, 1:19])
            assert np.allclose(Z[:, 1], panel.values[i, 0:18])

    def test_matches_naive_loop(self):
        panel = random_panel(3, 15, seed=12)
        stack = random_centroid_stack(3, 3, seed=12)
        order = ModelOrder(p=2, eta=3)
        design = build_design(panel, stack, order, (2, 14))
        naive = naive_design(panel, stack, order, (2, 14))
        for Z_i, y_i, (Z, y) in zip(design.Z, design.y, naive, strict=True):
            assert np.allclose(Z_i, Z, atol=1e-12)
            assert np.allclose(y_i, y, atol=1e-12)

    def test_insufficient_rows(self):
        panel = random_panel(2, 10, seed=13)
        stack = random_centroid_stack(2, 1, seed=13)
        with pytest.raises(DataError):
            build_design(panel, stack, ModelOrder(p=3, eta=1), (0, 3))


def stacked_lag_regressors(Y, p, t_range, matrices):
    """The oracle of ``lag_regressors``, which fills its one array in place:
    every W @ Y first, then all of them stacked into a second copy."""
    start, end = t_range
    bases = [W @ Y for W in matrices]
    back = np.stack([b[:, start - p:end - 1][:, ::-1] for b in bases], axis=-1)
    windows = sliding_window_view(back.reshape(len(back), -1), p * len(bases), axis=1)
    return windows[:, ::len(bases)][:, ::-1]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_lag_regressors_match_stacked_oracle(p):
    panel = random_panel(7, 30, seed=14)
    stack = random_centroid_stack(7, 6, seed=14)
    Y = panel.values
    # the whole panel, a middle range, one bin, and a range ending one past the panel
    for t_range in [(p, 30), (p + 3, 21), (p + 5, p + 6), (12, 31)]:
        for matrices in [stack.matrices[:eta] for eta in range(1, 7)]:
            got = lag_regressors(Y, p, t_range, matrices)
            assert np.array_equal(got, stacked_lag_regressors(Y, p, t_range, matrices))


class TestStarOls:
    def test_noiseless_ar1(self):
        y = [0.8 ** t for t in range(20)]
        panel = make_panel(["a"], [y], kind="real")
        stack = WeightStack(matrices=(np.eye(1),), scheme="centroid", zone_ids=("a",))
        design = build_design(panel, stack, ModelOrder(p=1, eta=1), (0, 20))
        model = fit_star_ols(design)
        assert abs(model.coefficients[0, 0] - 0.8) < 1e-10

    def test_all_zero_panel_min_norm(self):
        panel = make_panel(["a", "b"], np.zeros((2, 10)), kind="real")
        stack = random_centroid_stack(2, 1, seed=14)
        stack = WeightStack(matrices=stack.matrices, scheme=stack.scheme,
                            zone_ids=("a", "b"))
        model = fit_star_ols(build_design(panel, stack, ModelOrder(p=1, eta=1), (0, 10)))
        assert np.all(model.coefficients == 0)

    def test_matches_normal_equations(self):
        panel = random_panel(3, 60, seed=15)
        stack = random_centroid_stack(3, 2, seed=15)
        order = ModelOrder(p=2, eta=2)
        design = build_design(panel, stack, order, (0, 60))
        model = fit_star_ols(design)
        for i, (Z, y) in enumerate(zip(design.Z, design.y)):
            expected = np.linalg.solve(Z.T @ Z, Z.T @ y)
            assert np.max(np.abs(model.coefficients[i] - expected)) < 1e-8

    @pytest.mark.parametrize("case", ["tall", "isolated_zone", "fewer_rows_than_columns",
                                      "near_collinear"])
    def test_normal_equations_match_lstsq(self, case, monkeypatch):
        """Zones solved through the Cholesky factor agree with lstsq within
        the normal equations' error bound, eps * cond(Z)^2 over the nonzero
        columns, and a zero column (an isolated zone of an adjacency stack)
        gets lstsq's coefficient 0 exactly; a zone with fewer rows than
        columns, or two nearly equal columns, gets lstsq's minimum-norm
        answer itself, and only those zones call lstsq."""
        if case == "fewer_rows_than_columns":
            design, fallback = _fewer_rows_design()[2], list(range(27))
        elif case == "isolated_zone":
            ids = [f"z{i:02d}" for i in range(8)]
            stack = adjacency_rings(make_adjacency(ids, zip(ids[:6], ids[1:7])), 3)
            design = build_design(random_panel(8, 80, seed=17), stack,
                                  ModelOrder(p=2, eta=3), (0, 80))
            assert not design.Z[7].any(axis=0)[[1, 2, 4, 5]].any()
            fallback = []
        else:
            design = build_design(random_panel(5, 90, seed=18), random_centroid_stack(5, 3, 18),
                                  ModelOrder(p=3, eta=3), (0, 90))
            fallback = []
            if case == "near_collinear":
                Z = design.Z.copy()
                noise = np.random.default_rng(19).normal(size=Z.shape[1])
                Z[0, :, 1] = Z[0, :, 0] + 1e-9 * noise     # cond(Z_0) about 1e9
                Z[1, :, 1] = Z[1, :, 0] + 1e-3 * noise     # cond(Z_1) about 1e3
                design = DesignMatrix(Z=Z, y=design.y, order=design.order,
                                      fit_range=design.fit_range)
                fallback = [0]
        lstsq, calls = np.linalg.lstsq, []

        def counting_lstsq(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        got = fit_star_ols(design).coefficients
        assert len(calls) == len(fallback)
        eps = np.finfo(float).eps
        for i, (Z, y) in enumerate(zip(design.Z, design.y)):
            want = lstsq(Z, y, rcond=None)[0]
            if i in fallback:
                assert np.array_equal(got[i], want), i
            else:
                cols = Z.any(axis=0)
                assert np.all(got[i][~cols] == 0.0), i
                bound = 16 * eps * np.linalg.cond(Z[:, cols]) ** 2 * np.max(np.abs(want))
                assert np.max(np.abs(got[i] - want)) <= bound, i

    def test_parameter_count(self):
        panel = random_panel(4, 50, seed=16)
        stack = random_centroid_stack(4, 3, seed=16)
        order = ModelOrder(p=2, eta=3)
        model = fit_star_ols(build_design(panel, stack, order, (0, 50)))
        assert model.coefficients.size == 4 * 3 * 2


class TestVarOls:
    def test_noiseless_ar1_with_intercept(self):
        y = [0.0]
        for _ in range(25):
            y.append(1.0 + 0.5 * y[-1])
        panel = make_panel(["a"], [y], kind="real")
        model = fit_var_ols(panel, 1, (0, len(y)))
        assert abs(model.intercept[0] - 1.0) < 1e-10
        assert abs(model.lag_matrices[0][0, 0] - 0.5) < 1e-10

    def test_matches_normal_equations(self):
        panel = random_panel(2, 8, seed=17)  # k=2, p=1: kp+2=4 < usable rows 7
        model = fit_var_ols(panel, 1, (0, 8))
        Y = panel.values
        X = np.column_stack([np.ones(7), Y[:, 0:7].T])
        resp = Y[:, 1:8].T
        B = np.linalg.solve(X.T @ X, X.T @ resp)
        assert np.max(np.abs(model.intercept - B[0])) < 1e-8
        assert np.max(np.abs(model.lag_matrices[0] - B[1:].T)) < 1e-8

    def test_min_norm_when_underdetermined(self):
        # 2 zones, 5 bins, p=2: 3 usable rows vs 5 regressors
        panel = random_panel(2, 5, seed=18)
        model = fit_var_ols(panel, 2, (0, 5))
        Y = panel.values
        X = np.column_stack([np.ones(3), Y[:, 1:4].T, Y[:, 0:3].T])
        resp = Y[:, 2:5].T
        expected = np.linalg.pinv(X) @ resp
        assert np.max(np.abs(model.intercept - expected[0])) < 1e-8
        assert np.max(np.abs(model.lag_matrices[0] - expected[1:3].T)) < 1e-8

    @pytest.mark.parametrize("T,calls", [(60, 0), (5, 1)])
    def test_lstsq_only_when_underdetermined(self, T, calls, monkeypatch):
        """k=2, p=2: a tall system is solved from the Cholesky factor of X'X
        and agrees with lstsq; with fewer rows than its 5 columns it takes
        lstsq's minimum-norm answer itself."""
        lstsq, got = np.linalg.lstsq, []

        def counting_lstsq(*args, **kwargs):
            got.append(1)
            return lstsq(*args, **kwargs)

        panel = random_panel(2, T, seed=20)
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        model = fit_var_ols(panel, 2, (0, T))
        assert len(got) == calls
        Y = panel.values
        X = np.column_stack([np.ones(T - 2), Y[:, 1:T - 1].T, Y[:, 0:T - 2].T])
        want = lstsq(X, Y[:, 2:].T, rcond=None)[0]
        coefs = np.vstack([model.intercept, model.lag_matrices[0].T, model.lag_matrices[1].T])
        assert np.max(np.abs(coefs - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("p", [1, 3])
    def test_matches_regressor_matrix(self, p):
        """The normal equations and residuals formed from lagged panel views
        give the coefficients and residual covariance of the explicit
        regressor matrix X, on a fit range that starts after bin 0."""
        panel = random_panel(4, 70, seed=21)
        start, end = 5, 66
        model = fit_var_ols(panel, p, (start, end))
        Y = panel.values
        X = np.column_stack([np.ones(end - start - p)]
                            + [Y[:, start + p - j:end - j].T for j in range(1, p + 1)])
        resp = Y[:, start + p:end].T
        B = np.linalg.lstsq(X, resp, rcond=None)[0]
        resid = resp - X @ B
        coefs = np.vstack([model.intercept] + [A.T for A in model.lag_matrices])
        np.testing.assert_allclose(coefs, B, rtol=0, atol=1e-12 * np.max(np.abs(B)))
        np.testing.assert_allclose(model.residual_cov, resid.T @ resid / (X.shape[0] - X.shape[1]),
                                   rtol=1e-12, atol=0)

    def test_parameter_count(self):
        panel = random_panel(3, 40, seed=19)
        model = fit_var_ols(panel, 2, (0, 40))
        n_parameters = model.intercept.size + sum(A.size for A in model.lag_matrices)
        assert n_parameters == 3 * (3 * 2 + 1)


class TestSoftThreshold:
    @pytest.mark.parametrize("z,g,expected", [
        (3.0, 1.0, 2.0),
        (-0.4, 0.5, 0.0),
        (0.0, 7.0, 0.0),
        (-3.0, 1.0, -2.0),
    ])
    def test_values(self, z, g, expected):
        assert soft_threshold(z, g) == expected

    def test_negative_gamma(self):
        with pytest.raises(DataError):
            soft_threshold(1.0, -0.1)


def _design(Z, y, p=1, eta=None):
    """A one-zone design."""
    Z = np.asarray(Z, dtype=float)
    if eta is None:
        eta = Z.shape[1]
    return DesignMatrix(Z=Z[None], y=np.asarray(y, dtype=float)[None],
                        order=ModelOrder(p=p, eta=eta), fit_range=(0, len(y)))


class TestLambdaMax:
    def test_single_column(self):
        Z, y = np.array([[1.0], [1.0]]), np.array([1.0, 1.0])
        assert lambda_max(_design(Z, y, eta=1).gram()) == 2.0
        # 1-D grid-search oracle: penalized objective minimized at phi=0
        # exactly when lam >= 2
        for lam, want_zero in [(1.9, False), (2.0, True), (2.5, True)]:
            grid = np.linspace(-2, 2, 40001)
            objs = [lasso_objective(Z, y, np.array([g]), lam) for g in grid]
            best = grid[int(np.argmin(objs))]
            assert (abs(best) < 1e-9) == want_zero

    def test_zero_response(self):
        d = _design([[1.0], [2.0]], [0.0, 0.0], eta=1)
        assert lambda_max(d.gram()) == 0.0

    def test_scales_with_response(self):
        rng = np.random.default_rng(20)
        Z = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        a = lambda_max(_design(Z, y, eta=3).gram())
        b = lambda_max(_design(Z, 3.5 * y, eta=3).gram())
        assert abs(b - 3.5 * a) < 1e-10


def _kkt_violation(Z, y, phi, lam):
    g = Z.T @ (y - Z @ phi)
    worst = 0.0
    for j in range(len(phi)):
        if phi[j] == 0:
            worst = max(worst, abs(g[j]) - lam)
        else:
            worst = max(worst, abs(g[j] - lam * np.sign(phi[j])))
    return worst


def _solve(d, lam):
    """The production solver on a one-zone design."""
    return solve_lasso_batch(d.gram(), lam)[0]


class TestLassoCd:
    def test_orthonormal_soft_threshold(self):
        # orthonormal columns: solution = soft-threshold of OLS coefs
        Z = np.array([[1.0, 0.0], [0.0, 1.0]])
        d = _design(Z, [3.0, 0.5], eta=2)
        phi = _solve(d, 1.0)
        assert np.allclose(phi, [2.0, 0.0], atol=1e-8)

    def test_lambda_zero_matches_ols(self):
        rng = np.random.default_rng(21)
        Z = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        d = _design(Z, y, eta=4)
        phi = _solve(d, 0.0)
        ols = np.linalg.solve(Z.T @ Z, Z.T @ y)
        assert np.max(np.abs(phi - ols)) < 1e-6

    def test_above_lambda_max_exact_zero(self):
        rng = np.random.default_rng(22)
        Z = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        d = _design(Z, y, eta=5)
        for lam in (lambda_max(d.gram()), lambda_max(d.gram()) * 1.0001):
            phi = _solve(d, lam)
            assert np.all(phi == 0.0)
            assert _kkt_violation(Z, y, phi, lam) <= 1e-10

    def test_kkt_certificate(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            Z = rng.normal(size=(25, 6))
            y = rng.normal(size=25)
            d = _design(Z, y, eta=6)
            lam = 0.3 * lambda_max(d.gram())
            phi = _solve(d, lam)
            assert _kkt_violation(Z, y, phi, lam) < 1e-6

    def test_objective_monotone(self):
        rng = np.random.default_rng(24)
        Z = rng.normal(size=(40, 8))
        y = rng.normal(size=40)
        d = _design(Z, y, eta=8)
        lam = 0.5 * lambda_max(d.gram())
        trace = []
        lasso_cd(Z, y, lam, objective_trace=trace)
        assert np.all(np.diff(trace) <= 1e-10)
        # the oracle iterate after s sweeps is the last iterate of a solve
        # capped at s sweeps; each sweep must not raise the objective
        objs = [lasso_objective(Z, y, np.zeros(8), lam)]
        for sweeps in range(1, len(trace)):
            try:
                phi = lasso_cd(Z, y, lam, max_sweeps=sweeps)
            except OracleConvergenceError as e:
                phi = e.last_iterate
            objs.append(lasso_objective(Z, y, phi, lam))
        assert np.all(np.diff(objs) <= 1e-10)
        assert np.allclose(objs, trace[:len(objs)], rtol=1e-9)
        # the exact path is at least as low as where the descent stopped
        assert lasso_objective(Z, y, _solve(d, lam), lam) <= trace[-1] + 1e-10

    def test_zero_norm_column_stays_zero(self):
        Z = np.array([[1.0, 0.0], [2.0, 0.0]])
        d = _design(Z, [1.0, 2.0], eta=2)
        phi = _solve(d, 0.1)
        assert phi[1] == 0.0

    def test_sweep_limit_raises_with_trace(self):
        rng = np.random.default_rng(25)
        Z = rng.normal(size=(30, 5))
        y = rng.normal(size=30)
        with pytest.raises(OracleConvergenceError) as exc:
            lasso_cd(Z, y, 0.01, tolerance=1e-300, max_sweeps=3)
        assert exc.value.last_iterate.shape == (5,)
        assert "did not converge in 3 sweeps" in str(exc.value)

    def test_batch_matches_single_design_solver(self):
        panel = random_panel(4, 50, seed=60)
        stack = random_centroid_stack(4, 2, seed=60)
        design = build_design(panel, stack, ModelOrder(p=2, eta=2), (0, 50))
        lam = 0.4 * lambda_max(design.gram())
        batch = solve_lasso_batch(design.gram(), lam)
        for i, (Z, y) in enumerate(zip(design.Z, design.y)):
            single = lasso_cd(Z, y, lam)
            assert np.max(np.abs(batch[i] - single)) < 1e-7

    def test_monotone_sparsity_orthonormal_path(self):
        q, _ = np.linalg.qr(np.random.default_rng(26).normal(size=(12, 6)))
        y = np.random.default_rng(27).normal(size=12)
        d = _design(q, y, eta=6)
        grid = LassoConfig().grid(lambda_max(d.gram()))
        path = fit_lasso_path(d.gram(), grid)
        active = [int(np.count_nonzero(path[..., n])) for n in range(len(grid))]  # descending lam
        assert all(a <= b for a, b in zip(active, active[1:]))


def _worst_kkt(design, path, grid):
    return max(_kkt_violation(Z, y, path[i, :, n], lam)
               for n, lam in enumerate(sorted(grid, reverse=True))
               for i, (Z, y) in enumerate(zip(design.Z, design.y)))


def _fewer_rows_design():
    """The acceptance grid panel at p=5, eta=6: 27 training rows, 30 columns."""
    stack = random_centroid_stack(27, 6, seed=0)
    spec = random_sparse_star_spec(27, ModelOrder(p=1, eta=2), stack, sigma=1.0,
                                   length=96, seed=0, density=0.4)
    panel = gen_star_process(spec, stack)
    design = build_design(panel, stack, ModelOrder(p=5, eta=6), (0, 32))
    assert design.Z.shape == (27, 27, 30)
    return panel, stack, design


class TestSse:
    """Each zone's residual sum of squares from the Gram, against the rows'."""

    @pytest.mark.parametrize("case", ["tall", "fewer_rows_than_columns", "near_collinear"])
    def test_matches_row_residuals(self, case):
        """Per zone, for the OLS fit and every penalty of a LASSO path (only
        lambda = 0 where the rows are fewer than the columns, so every fit
        interpolates and the quadratic form rounds below 0 in some zones),
        sse >= 0 and |sse - row RSS| <= 1e-10 * y'y, both for k x m x L
        coefficients and one k x m column at a time. In the near-collinear
        zone 0 the quadratic form alone misses by more, so sse reads that
        zone's rows; at cond(Z) about 1e9 no float64 sum holds 1e-10 y'y."""
        if case == "fewer_rows_than_columns":
            design, grid = _fewer_rows_design()[2], [0.0]
        else:
            design = build_design(random_panel(5, 90, seed=18), random_centroid_stack(5, 3, 18),
                                  ModelOrder(p=3, eta=3), (0, 90))
            if case == "near_collinear":
                Z = design.Z.copy()
                noise = np.random.default_rng(19).normal(size=Z.shape[1])
                Z[0, :, 1] = Z[0, :, 0] + 1e-5 * noise     # cond(Z_0) about 2e5
                Z[1, :, 1] = Z[1, :, 0] + 1e-3 * noise     # cond(Z_1) about 2e3
                design = DesignMatrix(Z=Z, y=design.y, order=design.order,
                                      fit_range=design.fit_range)
            grid = LassoConfig(n_lambdas=10).grid(lambda_max(design.gram()))
        gram = design.gram()
        coefs = np.concatenate([fit_star_ols(design).coefficients[..., None],
                                fit_lasso_path(gram, grid)], axis=-1)
        want = np.stack([np.sum(np.square(design.y - fitted(design.Z, coefs[..., n])), axis=1)
                         for n in range(coefs.shape[-1])], axis=-1)
        if case == "fewer_rows_than_columns":
            assert np.all(want <= 1e-20 * gram.yy[:, None])
        if case == "near_collinear":
            G, c, yy, phi = gram.G[0], gram.c[0], gram.yy[0], coefs[0, :, 0]
            assert abs(yy - 2.0 * c @ phi + phi @ G @ phi - want[0, 0]) > 1e-10 * yy
        got = sse(design, coefs)
        assert got.shape == want.shape == (len(design.y), len(grid) + 1)
        for n in range(coefs.shape[-1]):
            for rss in (got[:, n], sse(design, coefs[..., n])):
                assert np.all(rss >= 0.0), n
                assert np.all(np.abs(rss - want[:, n]) <= 1e-10 * gram.yy), n


class TestLassoPathCertificate:
    """KKT certificates of the production path itself, every zone and penalty."""

    def test_kkt_every_zone_and_lambda(self):
        panel = random_panel(6, 90, seed=61)
        stack = random_centroid_stack(6, 3, seed=61)
        design = build_design(panel, stack, ModelOrder(p=3, eta=3), (0, 90))
        grid = LassoConfig().grid(lambda_max(design.gram()))
        path = fit_lasso_path(design.gram(), grid)
        assert path.shape[-1] == 51
        assert _worst_kkt(design, path, grid) <= 1e-10

    def test_fewer_rows_than_columns(self):
        panel, stack, design = _fewer_rows_design()
        grid = LassoConfig().grid(lambda_max(design.gram()))
        path = fit_lasso_path(design.gram(), grid)
        assert _worst_kkt(design, path, grid) <= 1e-10
        report = run_scenario(panel, stack, MODEL_LASSO_STAR, design.order,
                              SplitSpec(32, 64, 96))
        assert report.error is None and report.test_mspe > 0

    def test_singular_active_set_certifies(self, monkeypatch):
        """Zone 1's columns 0 and 1 are identical. Every |Z'y| entry is 1, so
        once columns 0 and 2 are active (at lambda = 1), u = w and column 1's
        join event is exactly 1 whenever rounding leaves its correlation slope
        inside +-1; it then joins its twin and the active block is singular.
        Zones 0 and 2 have orthogonal columns, so each of their joins has
        s / G_jj = 1, while zone 1's column 2 joins at 0.907: with SCHUR_FLOOR
        at 0.95 zone 1 alone turns fresh at that join and takes the
        minimum-norm solve from there. Either way the path is certified, and
        the twins' coefficients sum to column 0's in the design without its
        twin. Whether the twin joins at all is set by the rounding of that
        slope, so the sum is asserted, not the split; the twin test below
        pins the split of a design where the twin joins."""
        rng = np.random.default_rng(65)
        Z, y = rng.normal(size=(3, 6, 3)), rng.normal(size=(3, 6))
        Z[[0, 2]] = np.kron(np.eye(3), [[1.0], [2.0]])
        a = [-3.0, 1.0, 4.0, -2.0, 4.0, -4.0]
        Z[1] = np.array([a, a, [1.0, -4.0, -2.0, 0.0, -3.0, -3.0]]).T
        y[1] = [1.0, -4.0, 3.0, 3.0, 2.0, 2.0]
        design = DesignMatrix(Z=Z, y=y, order=ModelOrder(p=1, eta=3), fit_range=(0, 7))
        once = fit_lasso_path(_design(Z[1][:, [0, 2]], y[1]).gram(), [0.5, 0.0])[0]
        for floor in (estimators.SCHUR_FLOOR, 0.95):
            monkeypatch.setattr(estimators, "SCHUR_FLOOR", floor)
            path = fit_lasso_path(design.gram(), [0.5, 0.0])
            assert _worst_kkt(design, path, [0.5, 0.0]) <= 1e-12
            np.testing.assert_allclose([path[1, 0] + path[1, 1], path[1, 2]], once,
                                       rtol=1e-12, atol=0)

    def test_twin_columns_split_equally(self):
        """Two copies of one column, the second let in at lambda_max since
        49 fl(1/49) < 1, share the one-column solution equally at
        lambda = 0.5 and at lambda = 0: the minimum-norm split, not one set
        by rounding."""
        z, y = [2.0, 3.0, 6.0], [0.5, 0.0, 0.0]
        twins = fit_lasso_path(_design(np.column_stack([z, z]), y).gram(), [0.5, 0.0])
        one = fit_lasso_path(_design(np.column_stack([z]), y).gram(), [0.5, 0.0])
        np.testing.assert_allclose(one[0, 0], [0.5 / 49, 1.0 / 49], rtol=1e-14)
        for twin in twins[0]:
            np.testing.assert_allclose(twin, one[0, 0] / 2, rtol=1e-12, atol=0)

    def test_non_finite_block_names_its_zone(self):
        """A zone whose Gram holds a NaN on its first joining column turns
        fresh at that join with a non-finite block: the error names the zone
        by its own index and the penalty it stopped at."""
        G = np.stack([np.eye(3)] * 3)
        c = np.array([[1.0, 0.5, 0.25]] * 3)
        G[1, 0, 0] = np.nan
        gram = estimators.Gram(G, c, np.ones(3))
        with pytest.raises(NumericalError, match=r"^LASSO path of zone 1 has a non-finite "
                                                 r"active-set Gram block at lambda=1\.0$"):
            fit_lasso_path(gram, [0.5, 0.0])


def _duplicated_designs():
    """300 20 x 5 designs whose column 4 copies one of columns 0-3, with a
    standard normal y: (Z, y) from ``np.random.default_rng(0)``."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        Z = rng.normal(size=(20, 5))
        Z[:, 4] = Z[:, rng.integers(0, 4)]
        yield Z, rng.normal(size=20)


def test_duplicated_columns_certify():
    """Each duplicated-column design returns a path within KKT_TOLERANCE *
    ||Z'y||_inf of the KKT conditions at every penalty, without a
    floating-point warning. Without the certificate some paths broke KKT by
    up to 0.59 of lambda_max; without the minimum-norm solve of a fresh
    zone's block, 33 of them raised NumericalError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for Z, y in _duplicated_designs():
            design = _design(Z, y, eta=5)
            grid = LassoConfig().grid(lambda_max(design.gram()))
            path = fit_lasso_path(design.gram(), grid)
            tolerance = KKT_TOLERANCE * np.max(np.abs(Z.T @ y))
            assert _worst_kkt(design, path, grid) <= tolerance


def _oracle_paths(design, lams):
    """Each zone's scalar walk, on the production path's own G and c:
    [(len(lams) x m coefficients, number of solves), ...]."""
    gram = design.gram()
    return gram.G, [zone_path(G_i, c_i, lams) for G_i, c_i in zip(gram.G, gram.c)]


def _assert_matches_oracle(design, grid):
    """Same zero pattern as the scalar walk at every (zone, lambda), and
    coefficients within 1e-13 times the zone's largest |coefficient|. Where
    the active block G_AA is so ill-conditioned that two LU solves of it
    may differ by more, the bound is eps * cond(G_AA) times it instead."""
    lams = np.array(sorted(grid, reverse=True))
    path = fit_lasso_path(design.gram(), grid)
    G, oracle = _oracle_paths(design, lams)
    eps = np.finfo(float).eps
    for i, (want, _) in enumerate(oracle):
        got = path[i].T
        assert np.array_equal(got == 0, want == 0), f"zone {i}"
        scale = np.max(np.abs(want), initial=0.0)
        for n, row in enumerate(want):
            A = np.flatnonzero(row)
            cond = np.linalg.cond(G[i][np.ix_(A, A)]) if A.size else 1.0
            err = np.max(np.abs(got[n] - row))
            assert err <= scale * max(1e-13, eps * cond), (i, lams[n], err, cond)


class TestLockstepPath:
    """The all-zone path against the scalar walk of each zone."""

    @pytest.mark.parametrize("case", ["tall", "fewer_rows_than_columns", "head", "rows"])
    def test_matches_scalar_oracle(self, case):
        if case == "fewer_rows_than_columns":
            design = _fewer_rows_design()[2]
        else:
            panel = random_panel(6, 120, seed=64)
            stack = random_centroid_stack(6, 3, seed=64)
            order = ModelOrder(p=2, eta=3)
            design = build_design(panel, stack, order, (0, 120))
            # a cell's fit design and rows, read from a shared design of higher order
            blocks = scenario_blocks(panel, stack, ModelOrder(p=3, eta=3), SplitSpec(60, 90, 120))
            if case == "head":
                design = blocks.rows(order, (order.p, 60))
            elif case == "rows":
                design = blocks.rows(order, (50, 120))
        _assert_matches_oracle(design, LassoConfig().grid(lambda_max(design.gram())))

    def test_zones_that_finish_at_different_steps(self):
        rng = np.random.default_rng(62)
        n = 40
        Z, y = rng.normal(size=(4, n, 6)), rng.normal(size=(4, n))
        y[0] = 0.0                  # lambda_max = 0: frozen from the start
        Z[1, :, 2] = 0.0            # a zero-norm column, which must never join
        Z[3] = np.linalg.qr(Z[3])[0]
        y[3] = 3.0 * Z[3, :, 0]     # orthonormal columns, y on one of them: one kink
        design = DesignMatrix(Z=Z, y=y, order=ModelOrder(p=2, eta=3), fit_range=(0, n + 2))
        grid = LassoConfig().grid(lambda_max(design.gram()))
        steps = [s for _, s in _oracle_paths(design, np.array(grid))[1]]
        assert steps[0] == 0 and steps[3] == 1 and steps[2] >= 6
        path = fit_lasso_path(design.gram(), grid)
        assert all(not coefs[0].any() and coefs[1, 2] == 0.0 for coefs in path.transpose(2, 0, 1))
        assert _worst_kkt(design, path, grid) <= 1e-10
        _assert_matches_oracle(design, grid)

    def test_one_batched_solve_per_step_of_the_longest_zone(self, monkeypatch):
        """A well-conditioned design walks on updated inverses alone: no solve.
        With every join's s / G_jj below SCHUR_FLOOR (raised to inf), every
        zone turns fresh at its first join and is not walked again: one walk,
        one batched eigendecomposition per step of the longest zone, each of
        all six zones, and the scalar walk's path."""
        panel = random_panel(6, 90, seed=63)
        stack = random_centroid_stack(6, 3, seed=63)
        design = build_design(panel, stack, ModelOrder(p=3, eta=3), (0, 90))
        grid = LassoConfig().grid(lambda_max(design.gram()))
        steps = [s for _, s in _oracle_paths(design, np.array(grid))[1]]
        eigh, shapes = np.linalg.eigh, []

        def counting_eigh(a):
            shapes.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        fit_lasso_path(design.gram(), grid)
        assert shapes == []
        monkeypatch.setattr(estimators, "SCHUR_FLOOR", np.inf)
        walk, walks = estimators._walk, []

        def counting_walk(*args):
            walks.append(len(args[1]))
            return walk(*args)

        monkeypatch.setattr(estimators, "_walk", counting_walk)
        fit_lasso_path(design.gram(), grid)
        assert walks == [6]
        assert len(shapes) == max(steps) < sum(steps)
        assert set(shapes) == {(6, 9, 9)}
        _assert_matches_oracle(design, grid)


@pytest.mark.parametrize("p,eta,part", [(2, 3, "head"), (2, 3, "rows"), (5, 6, "head")],
                         ids=["head", "rows", "head_fewer_rows_than_columns"])
def test_path_on_views_matches_contiguous_copies(p, eta, part):
    """The path of a design that is a strided view (``head`` or ``rows``)
    equals the path of the same rows copied to contiguous arrays."""
    panel = random_panel(6, 96, seed=41)
    stack = random_centroid_stack(6, 6, seed=41)
    design = build_design(panel, stack, ModelOrder(p=p, eta=eta), (0, 64))
    if part == "head":
        view = DesignMatrix(Z=design.Z[:, :32 - p], y=design.y[:, :32 - p],
                            order=design.order, fit_range=(0, 32))
    else:
        view = DesignMatrix(Z=design.Z[:, 40 - p:64 - p], y=design.y[:, 40 - p:64 - p],
                            order=design.order, fit_range=(40 - p, 64))
    if (p, eta) == (5, 6):
        assert view.Z.shape[1:] == (27, 30)
    assert not view.Z.flags.c_contiguous and not view.y.flags.c_contiguous
    copy = DesignMatrix(Z=view.Z.copy(), y=view.y.copy(), order=view.order,
                        fit_range=view.fit_range)
    grid = LassoConfig().grid(lambda_max(view.gram()))
    got, want = fit_lasso_path(view.gram(), grid), fit_lasso_path(copy.gram(), grid)
    for n in range(len(grid)):
        np.testing.assert_allclose(got[..., n], want[..., n], rtol=1e-12, atol=0)
        assert np.array_equal(got[..., n] == 0, want[..., n] == 0)


class TestLassoConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lambda_min_ratio": 0.0},
        {"lambda_min_ratio": 1.0},
        {"lambda_min_ratio": float("nan")},
        {"n_lambdas": 0},
        {"n_lambdas": -1},
        {"lambda_min_ratio": -0.5},
        {"lambda_min_ratio": float("inf")},
        {"explicit_grid": ()},
        {"explicit_grid": (1.0, -0.5)},
        {"explicit_grid": (float("nan"),)},
        # an infinite penalty ended in a failed KKT certificate at lambda=inf
        {"explicit_grid": (float("inf"),)},
        {"explicit_grid": (1.0, float("inf"))},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            LassoConfig(**kwargs)

    def test_smallest_legal_grid(self):
        assert LassoConfig(n_lambdas=1, include_zero=False).grid(2.0) == [2.0]

    def test_n_lambdas_above_limit_is_rejected_before_any_grid(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("np.geomspace called")

        monkeypatch.setattr(np, "geomspace", no_grid)
        for n in (10**9, MAX_N_LAMBDAS + 1):
            with pytest.raises(ConfigError, match=rf"n_lambdas must lie in \[1, {MAX_N_LAMBDAS}\]"):
                LassoConfig(n_lambdas=n)
        assert LassoConfig(n_lambdas=MAX_N_LAMBDAS).n_lambdas == MAX_N_LAMBDAS


class TestTuneLambda:
    def _setup(self, seed=28, T=60, k=3):
        panel = random_panel(k, T, seed=seed)
        stack = random_centroid_stack(k, 2, seed=seed)
        return panel, stack

    def test_argmin_on_explicit_grid(self):
        panel, stack = self._setup()
        split = SplitSpec(10, 40, 60)
        order = ModelOrder(p=1, eta=2)
        # force the curve: descending grid {10, 1, 0.1} gets MSPEs {0.7, 0.3, 0.5}
        cfg = LassoConfig(explicit_grid=(0.1, 1.0, 10.0))
        lam, curve = tune_lambda(scenario_blocks(panel, stack, order, split), order, cfg)
        by_lam = dict(curve)
        expected = min(by_lam, key=lambda l: (by_lam[l], -l))
        assert lam == expected

    def test_tie_breaks_to_largest(self):
        # duplicate grid points give identical MSPE; the larger must win
        panel, stack = self._setup(seed=29)
        split = SplitSpec(10, 40, 60)
        order = ModelOrder(p=1, eta=2)
        big = 1e9  # above lambda_max: identical all-zero fits
        cfg = LassoConfig(explicit_grid=(big, 2 * big))
        lam, curve = tune_lambda(scenario_blocks(panel, stack, order, split), order, cfg)
        assert lam == 2 * big
        assert curve[0][1] == curve[1][1]

    @pytest.mark.parametrize("case", ["tall", "fewer_rows_than_columns", "tied_grid"])
    def test_curve_matches_reference_definition(self, case):
        """Every point of the batched curve is mspe(fitted(...)) of that
        penalty's path coefficients on the validation rows, and lambda* is
        the first minimum of that reference curve."""
        k, p, eta, split, cfg = {
            "tall": (5, 2, 3, SplitSpec(40, 80, 120), LassoConfig()),
            "fewer_rows_than_columns": (6, 5, 6, SplitSpec(32, 64, 96), LassoConfig()),
            "tied_grid": (5, 1, 2, SplitSpec(40, 80, 120),
                          LassoConfig(explicit_grid=(2e9, 1e9, 0.5, 0.5, 0.05, 0.05, 0.0))),
        }[case]
        panel = random_panel(k, split.t_end, seed=31)
        stack = random_centroid_stack(k, eta, seed=31)
        order = ModelOrder(p=p, eta=eta)
        lam, curve = tune_lambda(scenario_blocks(panel, stack, order, split), order, cfg)
        design = build_design(panel, stack, order, (0, split.t2))
        train = DesignMatrix(Z=design.Z[:, :split.t1 - p], y=design.y[:, :split.t1 - p],
                             order=order, fit_range=(0, split.t1))
        if case == "fewer_rows_than_columns":
            assert train.Z.shape[1:] == (27, 30)
        grid = cfg.grid(lambda_max(train.gram()))
        path = fit_lasso_path(train.gram(), grid)
        val = (split.t1, split.t2)
        val_rows = design.Z[:, split.t1 - p:]
        ref = [(g, mspe(panel, fitted(val_rows, path[..., n]), val)) for n, g in enumerate(grid)]
        assert [g for g, _ in curve] == grid
        np.testing.assert_allclose([v for _, v in curve], [v for _, v in ref],
                                   rtol=1e-12, atol=0)
        assert lam == min(ref, key=lambda c: c[1])[0]

    def test_sparse_truth_prefers_penalty(self):
        # Monte Carlo: with a sparse ground truth, the selected penalty
        # should exceed the smallest grid value (0) in >= 90% of runs
        k, T = 8, 96
        order = ModelOrder(p=2, eta=2)
        stack = random_centroid_stack(k, 2, seed=0)
        wins = 0
        n_rep = 50
        for seed in range(n_rep):
            spec = random_sparse_star_spec(k, order, stack, sigma=1.0, length=T,
                                           seed=seed, density=0.3)
            panel = gen_star_process(spec, stack)
            split = SplitSpec(32, 64, 96)
            lam, _ = tune_lambda(scenario_blocks(panel, stack, order, split), order,
                                 LassoConfig(n_lambdas=30))
            if lam > 0:
                wins += 1
        assert wins >= 45


class TestSerialization:
    """``model_to_dict`` survives JSON exactly: a model written by
    ``write_json``, as ``stardemand fit`` writes ``model.json``, and read
    back by ``conftest.read_model`` is the model."""

    def test_star_round_trip(self, tmp_path):
        panel = random_panel(3, 40, seed=30)
        stack = random_centroid_stack(3, 2, seed=30)
        model = fit_star_ols(build_design(panel, stack, ModelOrder(p=2, eta=2), (0, 40)),
                             scheme=stack.scheme)
        write_json(tmp_path / "model.json", model_to_dict(model))
        back = read_model(tmp_path / "model.json")
        assert (back.order, back.sigma2, back.scheme, back.fit_range, back.lambda_) == \
            (model.order, model.sigma2, model.scheme, model.fit_range, model.lambda_)
        assert np.array_equal(back.coefficients, model.coefficients)

    def test_var_round_trip(self, tmp_path):
        panel = random_panel(2, 30, seed=31)
        model = fit_var_ols(panel, 2, (0, 30))
        write_json(tmp_path / "model.json", model_to_dict(model))
        back = read_model(tmp_path / "model.json")
        assert (back.p, back.fit_range) == (model.p, model.fit_range)
        assert np.array_equal(back.intercept, model.intercept)
        assert np.array_equal(back.residual_cov, model.residual_cov)
        assert len(back.lag_matrices) == len(model.lag_matrices)
        for a, b in zip(back.lag_matrices, model.lag_matrices):
            assert np.array_equal(a, b)
