"""The shipped reproduction pipeline in ``configs/`` runs as written.

Its configs are copied unchanged next to a small synthetic stand-in for
the ``data/`` they expect: a trips CSV with the public dataset's
``Date/Time,Lat,Lon`` columns, 27 rectangular zones (3 columns x 9 rows)
and their rook adjacency. One ingest, two weight stacks and three grids
must each exit 0, and each grid must report its 100 cells without error.

The one ingested panel runs from midnight April 16 to 12:30 April 17;
each grid's ``split.t_end`` picks its period out of it. A grid reads no
bin at or past ``t_end``, so it gives the same output as on a panel
ingested to end at ``t_end``.
"""

import csv
import json
import shutil
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
import yaml

from stardemand.cli import EXIT_OK, main
from stardemand.panel import read_panel_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ("ingest", "weights", "grid")      # the pipeline's order
COLS, ROWS, SIDE = 3, 9, 0.01                 # zone lattice and side in degrees
WEST, SOUTH = -74.0, 40.7
START, END = datetime(2014, 4, 16), datetime(2014, 4, 17, 12, 30)


def _zone_id(col: int, row: int) -> str:
    return f"z{col}{row}"


def _write_data(data: Path, seed: int = 0, per_bin: float = 4.0) -> None:
    """``zones.geojson``, ``adjacency.csv`` and a Poisson trips file averaging
    ``per_bin`` trips per zone and quarter hour, plus some outside the day
    range and the zones and a few unparsable rows."""
    data.mkdir()
    features = []
    for col in range(COLS):
        for row in range(ROWS):
            x, y = WEST + col * SIDE, SOUTH + row * SIDE
            ring = [[x, y], [x + SIDE, y], [x + SIDE, y + SIDE], [x, y + SIDE], [x, y]]
            features.append({"type": "Feature", "properties": {"zone_id": _zone_id(col, row)},
                             "geometry": {"type": "Polygon", "coordinates": [ring]}})
    (data / "zones.geojson").write_text(json.dumps({"type": "FeatureCollection",
                                                    "features": features}))
    edges = [(_zone_id(c, r), _zone_id(c + dc, r + dr))
             for c in range(COLS) for r in range(ROWS) for dc, dr in ((1, 0), (0, 1))
             if c + dc < COLS and r + dr < ROWS]
    (data / "adjacency.csv").write_text(
        "zone_a,zone_b\n" + "".join(f"{a},{b}\n" for a, b in edges))

    rng = np.random.default_rng(seed)
    span = (END - START).total_seconds()
    n = rng.poisson(per_bin * COLS * ROWS * span / 900)
    seconds = np.sort(rng.uniform(-3600, span + 3600, n)).astype(int)
    lon = rng.uniform(WEST - 0.002, WEST + COLS * SIDE, n)
    lat = rng.uniform(SOUTH, SOUTH + ROWS * SIDE, n)
    with open(data / "uber-raw-data-apr14.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["Date/Time", "Lat", "Lon", "Base"])
        for i, (s, y, x) in enumerate(zip(seconds, lat, lon)):
            t = START + timedelta(seconds=int(s))
            stamp = f"{t.month}/{t.day}/{t.year} {t.hour}:{t.minute:02d}:{t.second:02d}"
            w.writerow([stamp if i % 5000 else "not a time", f"{y:.6f}", f"{x:.6f}", "B02512"])


def _command(path: Path) -> str:
    (command,) = [c for c in COMMANDS if c in yaml.safe_load(path.read_text())]
    return command


def _reports(run: Path) -> list[dict]:
    with open(run / "reports.csv", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The shipped configs, copied next to synthetic data, each run in
    pipeline order: [(config path, command, exit code), ...]."""
    root = tmp_path_factory.mktemp("configs")
    for path in CONFIGS.glob("*.yaml"):
        shutil.copy(path, root)
    _write_data(root / "data")
    configs = sorted(root.glob("*.yaml"), key=lambda p: (COMMANDS.index(_command(p)), p.name))
    return [(path, _command(path), main([_command(path), "-c", str(path)]))
            for path in configs]


def test_shipped_pipeline_runs(pipeline):
    assert [(path.name, command) for path, command, _ in pipeline] == [
        ("ingest.yaml", "ingest"),
        ("weights_adjacency.yaml", "weights"),
        ("weights_centroid.yaml", "weights"),
        ("grid_full_day.yaml", "grid"),
        ("grid_nonrush.yaml", "grid"),
        ("grid_rush.yaml", "grid"),
    ]
    assert [code for _, _, code in pipeline] == [EXIT_OK] * 6
    root = pipeline[0][0].parent
    panel = read_panel_csv(root / "runs" / "panel" / "panel.csv")
    assert (panel.k, panel.T) == (27, 146)
    for path, command, _ in pipeline:
        if command == "grid":
            cfg = yaml.safe_load(path.read_text())
            assert cfg["panel"] == "runs/panel/panel.csv"
            reports = _reports(root / cfg["output_dir"])
            assert len(reports) == 100, path.name
            assert [r["error"] for r in reports] == [""] * 100, path.name


@pytest.mark.parametrize("grid,end", [("grid_full_day", "2014-04-17"),
                                      ("grid_rush", "2014-04-17 09:30")],
                         ids=["full_day", "rush"])
def test_period_grid_reads_only_its_prefix_of_the_panel(pipeline, grid, end):
    """A period's grid on the one panel gives the bytes it gives on a panel
    ingested to end at its t_end, as the period's own ingest did before."""
    root = pipeline[0][0].parent
    ingest_cfg = yaml.safe_load((root / "ingest.yaml").read_text())
    ingest_cfg["ingest"]["day_range"][1] = end
    own = root / "runs" / f"panel_{grid}"
    (root / f"ingest_{grid}.yaml").write_text(yaml.safe_dump(ingest_cfg))
    assert main(["ingest", "-c", str(root / f"ingest_{grid}.yaml"), "--out", str(own)]) == EXIT_OK

    grid_cfg = {**yaml.safe_load((root / f"{grid}.yaml").read_text()), "timings": False}
    t_end = grid_cfg["split"]["t_end"]
    one, short = (read_panel_csv(p / "panel.csv") for p in (root / "runs" / "panel", own))
    assert short.T == t_end < one.T
    assert np.array_equal(short.values, one.values[:, :t_end])

    runs = {}
    for route, panel in [("one", "runs/panel/panel.csv"), ("own", f"{own}/panel.csv")]:
        cfg = root / f"{grid}_{route}.yaml"
        cfg.write_text(yaml.safe_dump({**grid_cfg, "panel": panel}))
        runs[route] = root / "runs" / f"{grid}_{route}"
        assert main(["grid", "-c", str(cfg), "--out", str(runs[route])]) == EXIT_OK
    for name in ("reports.csv", "table.txt"):
        assert (runs["one"] / name).read_bytes() == (runs["own"] / name).read_bytes(), name
    assert len(_reports(runs["one"])) == 100
