"""Small scenario grids whose ``reports.csv`` (timings off) is pinned.

``pinned/grid_k8_T80.csv`` was recorded with the exact LASSO path, and
``pinned/grid_two_stacks.csv`` before the grid shared one design per stack.
A refactor that keeps the numbers keeps these tests passing. Labels,
lambda* and errors must match exactly, the two MSPE columns to rtol 1e-12.
"""

import csv
import io
from pathlib import Path

import numpy as np

from stardemand.estimators import LassoConfig
from stardemand.forecast import ScenarioGrid, reports_to_csv, run_grid
from stardemand.panel import ModelOrder, SplitSpec
from stardemand.synth import (
    gen_star_process, random_centroid_stack, random_sparse_star_spec, synthetic_zone_ids,
)
from stardemand.weights import adjacency_rings, make_adjacency

PINNED = Path(__file__).resolve().parent / "pinned"
EXACT = ("model", "p", "eta", "scheme", "lambda", "error")
MSPE = ("val_mspe", "test_mspe")


def pinned_grid_csv() -> str:
    stack = random_centroid_stack(8, 3, seed=0)
    spec = random_sparse_star_spec(8, ModelOrder(p=1, eta=2), stack, sigma=1.0,
                                   length=80, seed=0, density=0.4)
    panel = gen_star_process(spec, stack)
    grid = ScenarioGrid(p_values=(1, 2), eta_values=(1, 2, 3), stacks=(stack,),
                        split=SplitSpec(30, 55, 80))
    return reports_to_csv(run_grid(panel, grid), include_seconds=False)


def two_stacks_grid_csv() -> str:
    """k=8 over a centroid stack and a two-deep adjacency stack: a chain
    z00-...-z06 with z07 isolated, so z07's ring-1 columns are zero and
    eta=3 exceeds the adjacency stack. p runs to 3, so the p < 3 cells have
    leading rows the p=3 design lacks, and the LASSO test model is fit on
    [0, t1) only."""
    centroid = random_centroid_stack(8, 3, seed=3)
    ids = synthetic_zone_ids(8)
    adjacency = adjacency_rings(make_adjacency(ids, zip(ids[:6], ids[1:7])), 2)
    spec = random_sparse_star_spec(8, ModelOrder(p=2, eta=2), centroid, sigma=1.0,
                                   length=90, seed=3, density=0.4)
    panel = gen_star_process(spec, centroid)
    grid = ScenarioGrid(p_values=(1, 2, 3), eta_values=(1, 2, 3),
                        stacks=(centroid, adjacency), split=SplitSpec(36, 62, 90),
                        config=LassoConfig(n_lambdas=30, refit_after_tuning=False))
    return reports_to_csv(run_grid(panel, grid), include_seconds=False)


def _assert_matches_pinned(text: str, name: str, rows: int) -> None:
    got = list(csv.DictReader(io.StringIO(text)))
    want = list(csv.DictReader(io.StringIO((PINNED / name).read_text())))
    assert len(got) == len(want) == rows
    for g, w in zip(got, want):
        assert [g[c] for c in EXACT] == [w[c] for c in EXACT]
        for c in MSPE:
            assert (g[c] == w[c] == "") or np.isclose(float(g[c]), float(w[c]),
                                                      rtol=1e-12, atol=0.0), (c, g, w)


def test_grid_reports_match_pinned_csv():
    _assert_matches_pinned(pinned_grid_csv(), "grid_k8_T80.csv", 14)


def test_two_stacks_grid_matches_pinned_csv():
    _assert_matches_pinned(two_stacks_grid_csv(), "grid_two_stacks.csv", 39)
