"""Self-tests of the benchmark itself; not part of the project's test suite.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import fixtures
import run
import spans
from stardemand import ingest


def _span(i, parent, start, end, name="f"):
    return spans.Span(span_id=i, parent_id=parent, name=name, start=start, end=end)


def test_self_time_subtracts_child_coverage():
    tree = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 3.0, "a"),
        _span(2, 0, 2.0, 5.0, "b"),    # overlaps a: union of a and b is [1, 5]
        _span(3, 0, 7.0, 12.0, "c"),   # runs past root's end: only [7, 10] counts
        _span(4, 2, 2.5, 4.0, "d"),    # grandchild: covered by b, not by root
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 3.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[3] == pytest.approx(5.0)
    assert selfs[4] == pytest.approx(1.5)
    assert spans.layer_stat(tree, selfs, "b", "self_s") == pytest.approx(1.5)
    assert spans.layer_stat(tree, selfs, "root", "p50_ms") == pytest.approx(1e4)
    assert spans.layer_stat(tree, selfs, "missing", "s") == 0.0


def test_fixture_containment_agrees_with_point_in_ring(tmp_path):
    fx = fixtures.make_trips(5, tmp_path, rows=20_000)
    tess = fixtures.make_tessellation(5)
    rings = [tess.ring_lonlat(z) for z in range(fixtures.K_ZONES)]
    rng = np.random.default_rng(0)
    for i in rng.choice(len(fx.zone), size=400, replace=False):
        hits = [z for z, ring in enumerate(rings)
                if ingest.point_in_ring(fx.lon[i], fx.lat[i], ring)]
        assert hits == ([] if fx.zone[i] < 0 else [fx.zone[i]]), i


def test_ingest_of_small_fixture_matches_oracle(tmp_path):
    fixtures.write_tessellation(fixtures.make_tessellation(3), tmp_path)
    fixtures.write_ingest_config(tmp_path)
    workload = run.make_workload("ingest-april")
    workload.fixture = fixtures.make_trips(3, tmp_path, rows=30_000)
    _, code, err = run._cli(workload.argv(tmp_path))
    attempted, bad = workload.check(tmp_path, code)
    assert (attempted, bad) == (1, []), err
    assert workload.fixture.assigned > 0 and workload.fixture.dropped_unassigned > 0


def _module_attrs():
    return {(name, attr): value for name, mod in sys.modules.items()
            if mod is not None and name.split(".")[0] == "stardemand"
            for attr, value in vars(mod).items()}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    workload = run.make_workload("grid96")
    workload.build(tmp_path, seed=1)
    before = _module_attrs()
    tracer = spans.Tracer()
    with tracer:
        _, code, err = run._cli(["grid", "-c", str(tmp_path / "warm.yaml"), "--jobs", "1",
                                 "--out", str(tmp_path / "out")])
        patched = {key for key, value in _module_attrs().items() if value is not before.get(key)}
    assert code == 0, err
    after = _module_attrs()
    assert all(after[key] is value for key, value in before.items())
    # names imported into another module are wrapped there too
    assert {("stardemand.forecast", "build_design"),
            ("stardemand.estimators", "build_design"),
            ("stardemand.cli", "cmd_grid")} <= patched
    names = {s.name for s in tracer.spans}
    assert {"cli.cmd_grid", "forecast.run_scenario.star", "forecast.run_scenario.var",
            "estimators.build_design", "forecast.predict_range"} <= names


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads(run.LAYERS.read_text())
    assert doc["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")} for m in layers]
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    ref = json.loads(run.REFERENCE.read_text())
    assert {n: len(c) for n, c in ref["cells"].items()} == {"grid96": 52, "grid-month": 52}
