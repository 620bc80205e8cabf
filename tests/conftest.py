import json
import tracemalloc

import numpy as np
import pytest

from stardemand.estimators import StarModel, VarModel
from stardemand.ingest import make_zone
from stardemand.panel import ModelOrder, make_panel
from stardemand.weights import centroid_rings


@pytest.fixture
def line_zones():
    """Three zones on a line at x = 0, 1, 3."""
    return [
        make_zone("A", centroid=(0.0, 0.0)),
        make_zone("B", centroid=(1.0, 0.0)),
        make_zone("C", centroid=(3.0, 0.0)),
    ]


@pytest.fixture
def line_stack(line_zones):
    return centroid_rings(line_zones, 3)


def random_panel(k, T, seed=0, kind="real"):
    rng = np.random.default_rng(seed)
    vals = rng.normal(0.0, 1.0, size=(k, T))
    return make_panel([f"z{i:02d}" for i in range(k)], vals, kind=kind)


def replace_first_cell(path, cell):
    """Overwrite the first cell of a CSV file with ``cell``."""
    rows = path.read_text().splitlines()
    rows[0] = ",".join([cell] + rows[0].split(",")[1:])
    path.write_text("\n".join(rows) + "\n")


def read_model(path):
    """The StarModel or VarModel of a ``model.json`` that ``stardemand fit``
    wrote: the inverse of ``estimators.model_to_dict``."""
    doc = json.loads(path.read_text())
    if doc["kind"] == "star":
        return StarModel(order=ModelOrder(p=doc["p"], eta=doc["eta"]),
                         coefficients=np.array(doc["coefficients"], dtype=float),
                         sigma2=doc["sigma2"], scheme=doc["scheme"],
                         fit_range=tuple(doc["fit_range"]), lambda_=doc["lambda"])
    assert doc["kind"] == "var", doc["kind"]
    return VarModel(p=doc["p"], intercept=np.array(doc["intercept"], dtype=float),
                    lag_matrices=tuple(np.array(m, dtype=float) for m in doc["lag_matrices"]),
                    residual_cov=np.array(doc["residual_cov"], dtype=float),
                    fit_range=tuple(doc["fit_range"]))


def traced_peak(fn):
    """``fn()`` and the most memory it held at once, in bytes traced above
    what was held before the call."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        if started:
            tracemalloc.stop()
