import numpy as np
import pytest

from stardemand.ingest import make_zone
from stardemand.panel import make_panel
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
