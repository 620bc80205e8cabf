"""A small scenario grid whose ``reports.csv`` (timings off) is pinned.

``pinned/grid_k8_T80.csv`` was recorded with the exact LASSO path; a
refactor that keeps the numbers keeps this test passing. Labels, lambda* and
errors must match exactly, the two MSPE columns to rtol 1e-12.
"""

import csv
import io
from pathlib import Path

import numpy as np

from stardemand.forecast import ScenarioGrid, reports_to_csv, run_grid
from stardemand.panel import ModelOrder, SplitSpec
from stardemand.synth import gen_star_process, random_centroid_stack, random_sparse_star_spec

PINNED = Path(__file__).resolve().parent / "pinned" / "grid_k8_T80.csv"
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


def test_grid_reports_match_pinned_csv():
    got = list(csv.DictReader(io.StringIO(pinned_grid_csv())))
    want = list(csv.DictReader(io.StringIO(PINNED.read_text())))
    assert len(got) == len(want) == 14
    for g, w in zip(got, want):
        assert [g[c] for c in EXACT] == [w[c] for c in EXACT]
        for c in MSPE:
            assert (g[c] == w[c] == "") or np.isclose(float(g[c]), float(w[c]),
                                                      rtol=1e-12, atol=0.0), (c, g, w)
