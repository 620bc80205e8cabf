"""Seeded synthetic panels from known VAR / STAR processes.

Noise is standard normal via Box-Muller applied to PCG64 uniforms, so a
(spec, seed) pair reproduces the same panel everywhere. Both generators
draw one k-vector of noise per time step in the same order, so a STAR
spec with eta=1 and a diagonal-VAR spec with the same seed share their
noise realizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .ingest import make_zone
from .panel import DemandPanel, KIND_REAL, ModelOrder, make_panel
from .weights import WeightStack, centroid_rings

KIND_VAR = "var"
KIND_STAR = "star"


@dataclass(frozen=True)
class ProcessSpec:
    """Ground-truth process for generating synthetic panels.

    For kind "star", ``star_coefficients`` is k x (eta*p) in the same
    column layout as the design matrix. For kind "var", ``var_intercept``
    is length k and ``var_lag_matrices`` holds p k x k matrices.
    """

    kind: str
    k: int
    length: int
    sigma: float
    seed: int
    initial: np.ndarray                     # k x p
    order: ModelOrder | None = None         # star only
    star_coefficients: np.ndarray | None = None
    var_intercept: np.ndarray | None = None
    var_lag_matrices: tuple[np.ndarray, ...] | None = None
    burn_in: int = 0
    require_stable: bool = False

    @property
    def p(self) -> int:
        if self.kind == KIND_STAR:
            return self.order.p
        return len(self.var_lag_matrices)

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise DataError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.length < 1:
            raise DataError("length must be >= 1")
        if self.kind == KIND_STAR:
            if self.order is None or self.star_coefficients is None:
                raise DataError("star spec needs order and coefficients")
            if self.star_coefficients.shape != (self.k, self.order.eta * self.order.p):
                raise DataError("star coefficient shape mismatch")
        elif self.kind == KIND_VAR:
            if self.var_intercept is None or self.var_lag_matrices is None:
                raise DataError("var spec needs intercept and lag matrices")
            for m in self.var_lag_matrices:
                if m.shape != (self.k, self.k):
                    raise DataError("var lag matrix shape mismatch")
        else:
            raise DataError(f"unknown process kind {self.kind!r}")
        init = np.asarray(self.initial, dtype=float)
        if init.shape != (self.k, self.p):
            raise DataError(f"initial values must be k x p = {(self.k, self.p)}")


def _gaussian_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Box-Muller pairs from PCG64 uniforms; odd n discards one value."""
    pairs = (n + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))   # 1-u1 avoids log(0)
    angle = 2.0 * math.pi * u2
    z = np.empty(pairs * 2)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:n]


def implied_var_matrices(spec: ProcessSpec, stack: WeightStack | None) -> list[np.ndarray]:
    """Per-lag k x k transition matrices of the process in VAR form; a STAR
    spec reads a stack at least eta deep over its k zones."""
    if spec.kind == KIND_VAR:
        return [np.array(m, dtype=float) for m in spec.var_lag_matrices]
    if stack.eta_max < spec.order.eta:
        raise DataError("stack too shallow for spec eta")
    if stack.k != spec.k:
        raise DataError("stack size does not match spec")
    p, eta = spec.order.p, spec.order.eta
    mats = []
    for j in range(1, p + 1):
        A = np.zeros((spec.k, spec.k))
        for l in range(eta):
            A += spec.star_coefficients[:, [(j - 1) * eta + l]] * stack.matrices[l]
        mats.append(A)
    return mats


def spectral_radius(lag_matrices: Sequence[np.ndarray]) -> float:
    """Spectral radius of the companion matrix of the VAR form."""
    p = len(lag_matrices)
    k = lag_matrices[0].shape[0]
    comp = np.zeros((k * p, k * p))
    for j, A in enumerate(lag_matrices):
        comp[:k, j * k:(j + 1) * k] = A
    if p > 1:
        comp[k:, :-k] = np.eye(k * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def _iterate(spec: ProcessSpec, intercept: np.ndarray,
             lag_matrices: Sequence[np.ndarray], zone_ids: Sequence[str]) -> DemandPanel:
    """Run y(t) = intercept + sum_j A_j y(t - j) + noise from the initial values."""
    if spec.require_stable:
        rho = spectral_radius(lag_matrices)
        if rho >= 1.0:
            raise DataError(f"unstable process: companion spectral radius {rho:.4f} >= 1")
    # the initial values are part of the output when burn_in = 0; a
    # positive burn_in discards them along with the first samples
    k, p = spec.k, spec.p
    total = spec.burn_in + spec.length
    if total < p:
        raise DataError(f"burn_in + length = {total} shorter than p = {p}")
    Y = np.zeros((k, total))
    Y[:, :p] = np.asarray(spec.initial, dtype=float)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    for t in range(p, total):
        eps = spec.sigma * _gaussian_vector(rng, k) if spec.sigma > 0 else np.zeros(k)
        y = intercept.copy()
        for j, A in enumerate(lag_matrices, start=1):
            y += A @ Y[:, t - j]
        Y[:, t] = y + eps
    out = Y[:, total - spec.length:]
    return make_panel(zone_ids, out, kind=KIND_REAL)


def gen_star_process(spec: ProcessSpec, stack: WeightStack) -> DemandPanel:
    """Iterate the spatio-temporal regression forward with Gaussian noise,
    through its VAR form (zero intercept); the panel's zones are the stack's."""
    if spec.kind != KIND_STAR:
        raise DataError("spec kind is not star")
    return _iterate(spec, np.zeros(spec.k), implied_var_matrices(spec, stack), stack.zone_ids)


def gen_var_process(spec: ProcessSpec) -> DemandPanel:
    """Iterate the vector autoregression forward with Gaussian noise."""
    if spec.kind != KIND_VAR:
        raise DataError("spec kind is not var")
    return _iterate(spec, np.asarray(spec.var_intercept, dtype=float),
                    implied_var_matrices(spec, None), synthetic_zone_ids(spec.k))


def random_sparse_star_spec(
    k: int,
    order: ModelOrder,
    stack: WeightStack,
    sigma: float,
    length: int,
    seed: int,
    density: float = 0.5,
    target_radius: float = 0.7,
    burn_in: int = 50,
) -> ProcessSpec:
    """Random sparse ground truth scaled to a stable spectral radius.

    Roughly ``density`` of the coefficients are nonzero; the implied VAR
    companion matrix is rescaled to ``target_radius``, which must be finite
    and >= 0.
    """
    if not 0 <= target_radius < math.inf:
        raise DataError(f"target_radius must be finite and >= 0, got {target_radius}")
    rng = np.random.Generator(np.random.PCG64(seed ^ 0x5A17))
    m = order.eta * order.p
    coef = rng.normal(0.0, 0.5, size=(k, m))
    mask = rng.random((k, m)) < density
    coef = coef * mask
    # ensure at least one nonzero coefficient per zone (own first lag)
    empty = ~mask.any(axis=1)
    coef[empty, 0] = 0.3
    # the spec holds ``coef`` itself, so scaling it in place rescales the spec
    spec = ProcessSpec(
        kind=KIND_STAR, k=k, length=length, sigma=sigma, seed=seed,
        initial=np.zeros((k, order.p)), order=order,
        star_coefficients=coef, burn_in=burn_in, require_stable=True,
    )
    rho = spectral_radius(implied_var_matrices(spec, stack))
    if rho > 0:
        coef *= target_radius / rho
        # companion radius is not linear in the coefficients for p > 1;
        # shrink until the target is actually met
        while spectral_radius(implied_var_matrices(spec, stack)) > target_radius + 1e-9:
            coef *= 0.9
    return spec


def synthetic_zone_ids(k: int) -> list[str]:
    """Zone ids z00, z01, ... of generated VAR panels and random stacks; a
    STAR panel takes the ids of the stack it was generated through."""
    return [f"z{i:02d}" for i in range(k)]


def random_centroid_stack(k: int, eta_max: int, seed: int = 0) -> WeightStack:
    """Centroid-ring stack over k random points, ids matching
    :func:`synthetic_zone_ids`."""
    rng = np.random.Generator(np.random.PCG64(seed ^ 0xC3A7))
    zones = [
        make_zone(zid, centroid=tuple(rng.random(2) * 10.0))
        for zid in synthetic_zone_ids(k)
    ]
    return centroid_rings(zones, eta_max)
