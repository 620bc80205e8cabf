import numpy as np
import pytest

from stardemand.errors import DataError
from stardemand.estimators import build_design, fit_star_ols, fit_var_ols
from stardemand.panel import ModelOrder
from stardemand.synth import (
    KIND_STAR, KIND_VAR, ProcessSpec,
    gen_star_process, gen_var_process, implied_var_matrices,
    random_centroid_stack, random_sparse_star_spec, spectral_radius,
)
from stardemand.weights import WeightStack

from synth_helpers import paired_adjacency_stack, recovery_star_spec


def _id_stack(k):
    return WeightStack(matrices=(np.eye(k),), scheme="centroid",
                       zone_ids=tuple(f"z{i:02d}" for i in range(k)))


def star_spec(k=1, p=1, eta=1, coef=None, sigma=0.0, length=4, seed=0, **kw):
    return ProcessSpec(
        kind=KIND_STAR, k=k, length=length, sigma=sigma, seed=seed,
        initial=kw.pop("initial", np.ones((k, p))),
        order=ModelOrder(p=p, eta=eta),
        star_coefficients=np.asarray(coef, dtype=float),
        **kw,
    )


class TestGenStar:
    def test_deterministic_recursion(self):
        spec = star_spec(coef=[[0.5]], length=4)
        panel = gen_star_process(spec, _id_stack(1))
        assert np.allclose(panel.values, [[1.0, 0.5, 0.25, 0.125]])

    def test_white_noise_mean(self):
        k, T = 4, 10_000
        spec = ProcessSpec(
            kind=KIND_STAR, k=k, length=T, sigma=1.0, seed=5,
            initial=np.zeros((k, 1)), order=ModelOrder(p=1, eta=1),
            star_coefficients=np.zeros((k, 1)),
        )
        panel = gen_star_process(spec, _id_stack(k))
        assert np.all(np.abs(panel.values.mean(axis=1)) < 3 / np.sqrt(T))

    def test_recovery_k27(self):
        k = 27
        order = ModelOrder(p=2, eta=2)
        stack = paired_adjacency_stack(k)
        spec = recovery_star_spec(k, stack, sigma=0.1, length=500, seed=6)
        panel = gen_star_process(spec, stack)
        model = fit_star_ols(build_design(panel, stack, order, (0, 500)))
        err = model.coefficients - spec.star_coefficients
        rms = float(np.sqrt(np.mean(err ** 2)))
        assert rms < 0.05

    def test_seed_determinism(self):
        stack = random_centroid_stack(3, 2, seed=7)
        order = ModelOrder(p=1, eta=2)
        spec = random_sparse_star_spec(3, order, stack, sigma=0.5, length=50, seed=7)
        a = gen_star_process(spec, stack)
        b = gen_star_process(spec, stack)
        assert np.array_equal(a.values, b.values)

    def test_unstable_guard(self):
        spec = star_spec(coef=[[1.01]], sigma=0.1, require_stable=True)
        with pytest.raises(DataError, match="unstable"):
            gen_star_process(spec, _id_stack(1))


class TestGenVar:
    def _var_spec(self, v, mats, **kw):
        mats = tuple(np.asarray(m, dtype=float) for m in mats)
        k = len(v)
        return ProcessSpec(
            kind=KIND_VAR, k=k, length=kw.pop("length", 10),
            sigma=kw.pop("sigma", 0.0), seed=kw.pop("seed", 0),
            initial=kw.pop("initial", np.zeros((k, len(mats)))),
            var_intercept=np.asarray(v, dtype=float), var_lag_matrices=mats,
            **kw,
        )

    def test_constant_after_first_step(self):
        spec = self._var_spec([1.0], [np.zeros((1, 1))])
        panel = gen_var_process(spec)
        assert np.all(panel.values[0, 1:] == 1.0)

    def test_recovery_diagonal(self):
        spec = self._var_spec([0.0, 0.0], [np.diag([0.5, 0.9])],
                              sigma=0.1, length=1000, seed=8)
        panel = gen_var_process(spec)
        model = fit_var_ols(panel, 1, (0, 1000))
        assert abs(model.lag_matrices[0][0, 0] - 0.5) < 0.05
        assert abs(model.lag_matrices[0][1, 1] - 0.9) < 0.05

    def test_unstable_guard(self):
        spec = self._var_spec([0.0], [np.array([[1.01]])], require_stable=True)
        with pytest.raises(DataError, match="unstable"):
            gen_var_process(spec)


def test_star_eta1_equals_diagonal_var():
    # same seed and per-step draw order: the two generators must agree
    k = 3
    phis = np.array([[0.4], [0.6], [-0.2]])
    star = ProcessSpec(
        kind=KIND_STAR, k=k, length=40, sigma=0.3, seed=9,
        initial=np.ones((k, 1)), order=ModelOrder(p=1, eta=1),
        star_coefficients=phis,
    )
    var = ProcessSpec(
        kind=KIND_VAR, k=k, length=40, sigma=0.3, seed=9,
        initial=np.ones((k, 1)),
        var_intercept=np.zeros(k), var_lag_matrices=(np.diag(phis[:, 0]),),
    )
    a = gen_star_process(star, _id_stack(k))
    b = gen_var_process(var)
    assert np.array_equal(a.values, b.values)


def test_spectral_radius_companion():
    # AR(2) y_t = 0.5 y_{t-1} + 0.3 y_{t-2}: roots of z^2 - 0.5 z - 0.3
    mats = [np.array([[0.5]]), np.array([[0.3]])]
    roots = np.roots([1.0, -0.5, -0.3])
    assert abs(spectral_radius(mats) - np.max(np.abs(roots))) < 1e-12


def test_implied_var_matrices_star():
    stack = random_centroid_stack(3, 2, seed=10)
    coef = np.array([[0.2, 0.1], [0.0, 0.3], [0.4, 0.0]])
    spec = ProcessSpec(
        kind=KIND_STAR, k=3, length=5, sigma=0.0, seed=0,
        initial=np.zeros((3, 1)), order=ModelOrder(p=1, eta=2),
        star_coefficients=coef,
    )
    (A,) = implied_var_matrices(spec, stack)
    for i in range(3):
        want = coef[i, 0] * np.eye(3)[i] + coef[i, 1] * stack.matrices[1][i]
        assert np.allclose(A[i], want)


def test_bad_spec_shapes():
    with pytest.raises(DataError):
        ProcessSpec(kind=KIND_STAR, k=2, length=5, sigma=0.1, seed=0,
                    initial=np.zeros((2, 1)), order=ModelOrder(p=1, eta=2),
                    star_coefficients=np.zeros((2, 1)))
    with pytest.raises(DataError):
        ProcessSpec(kind="arma", k=1, length=5, sigma=0.1, seed=0,
                    initial=np.zeros((1, 1)))
