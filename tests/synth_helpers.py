"""Synthetic ground truths for the coefficient-recovery tests.

A paired adjacency stack keeps the first neighborhood rings small, so the
neighborhood regressor columns stay high variance and recovery is well
conditioned; the sparse persistent spec is the truth recovered on it.
"""

import numpy as np

from stardemand.panel import ModelOrder
from stardemand.synth import (
    KIND_STAR, ProcessSpec, implied_var_matrices, spectral_radius, synthetic_zone_ids,
)
from stardemand.weights import WeightStack, adjacency_rings, make_adjacency


def paired_adjacency_stack(k: int, eta_max: int = 2) -> WeightStack:
    """Adjacency-ring stack over disjoint zone pairs (odd k gets one
    triangle), ids matching :func:`synthetic_zone_ids`."""
    ids = synthetic_zone_ids(k)
    edges = []
    n_paired = k if k % 2 == 0 else k - 3
    for i in range(0, n_paired, 2):
        edges.append((ids[i], ids[i + 1]))
    if k % 2 == 1 and k >= 3:
        a, b, c = ids[-3], ids[-2], ids[-1]
        edges += [(a, b), (b, c), (a, c)]
    return adjacency_rings(make_adjacency(ids, edges), eta_max)


def recovery_star_spec(
    k: int,
    stack: WeightStack,
    sigma: float,
    length: int,
    seed: int,
    order: ModelOrder = ModelOrder(p=2, eta=2),
    target_radius: float = 0.9,
) -> ProcessSpec:
    """Sparse, persistent ground truth for coefficient-recovery tests.

    Own first lags are always active and fairly strong; about half of
    the remaining coefficients are zeroed. The implied VAR form is
    rescaled under ``target_radius`` when needed.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    p, eta = order.p, order.eta
    m = eta * p
    coef = np.zeros((k, m))
    coef[:, 0] = rng.uniform(0.55, 0.75, k)
    for col in range(1, m):
        lo = 0.3 if col < eta else 0.3 / (1 + col // eta)
        coef[:, col] = rng.uniform(-lo, lo, k)
    mask = rng.random((k, m)) < 0.5
    mask[:, 0] = True
    coef = coef * mask

    # the spec holds ``coef`` itself, so scaling it in place rescales the spec
    spec = ProcessSpec(
        kind=KIND_STAR, k=k, length=length, sigma=sigma, seed=seed,
        initial=np.zeros((k, p)), order=order, star_coefficients=coef,
        burn_in=50, require_stable=True,
    )
    rho = spectral_radius(implied_var_matrices(spec, stack))
    if rho > target_radius:
        coef *= target_radius / rho
        while spectral_radius(implied_var_matrices(spec, stack)) > target_radius + 1e-9:
            coef *= 0.95
    return spec
