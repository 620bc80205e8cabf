import hashlib
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml

from stardemand import ingest as ingest_mod
from stardemand.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from stardemand.errors import DataError
from stardemand.estimators import LassoConfig, model_to_dict
from stardemand.forecast import mspe, predict_range, run_scenario
from stardemand.ingest import load_zones_geojson
from stardemand.panel import (
    ModelOrder, SplitSpec, make_panel, read_panel_csv, write_panel_csv,
)
from stardemand.synth import random_centroid_stack
from stardemand.weights import read_stack, write_stack

from conftest import read_model, replace_first_cell


def write_yaml(path: Path, cfg: dict) -> Path:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return path


def run_twice(monkeypatch, command: str, cfg: Path, runs: Path, relative_c: bool) -> dict:
    """Run ``command`` from ``cfg`` into ``runs/first``, then from the
    config.yaml it echoed into ``runs/again``, and return that echo. With
    ``relative_c`` both ``-c`` paths are relative to a working directory that
    is not the config's own."""
    first, again = runs / "first", runs / "again"
    arg = str
    if relative_c:
        (runs / "cwd").mkdir(parents=True)
        monkeypatch.chdir(runs / "cwd")
        arg = os.path.relpath
    assert main([command, "-c", arg(cfg), "--out", str(first)]) == EXIT_OK
    assert main([command, "-c", arg(first / "config.yaml"), "--out", str(again)]) == EXIT_OK
    return yaml.safe_load((first / "config.yaml").read_text())


@pytest.fixture
def synth_run(tmp_path):
    """A synth run dir with panel.csv, truth.json and a stack directory."""
    out = tmp_path / "synth"
    cfg = write_yaml(tmp_path / "synth.yaml", {
        "seed": 3,
        "output_dir": str(out),
        "synth": {"kind": "star", "k": 6, "length": 80, "sigma": 1.0,
                  "p": 1, "eta": 2, "eta_max": 2, "density": 0.5},
    })
    assert main(["synth", "-c", str(cfg)]) == EXIT_OK
    return out


class TestSynth:
    def test_outputs(self, synth_run):
        panel = read_panel_csv(synth_run / "panel.csv")
        assert panel.k == 6 and panel.T == 80
        truth = json.loads((synth_run / "truth.json").read_text())
        assert truth["kind"] == "star" and len(truth["coefficients"]) == 6
        manifest = json.loads((synth_run / "manifest.json").read_text())
        assert "panel.csv" in manifest["outputs"]
        assert (synth_run / "stack" / "manifest.json").exists()
        assert (synth_run / "config.yaml").exists()

    def test_seed_reproducible(self, tmp_path):
        cfg_dict = {
            "seed": 11, "output_dir": "",
            "synth": {"kind": "var", "k": 2, "length": 30, "sigma": 0.5,
                      "lag_matrices": [[[0.5, 0.0], [0.1, 0.4]]]},
        }
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg_dict["output_dir"] = str(out)
            cfg = write_yaml(tmp_path / f"{name}.yaml", cfg_dict)
            assert main(["synth", "-c", str(cfg)]) == EXIT_OK
            texts.append((out / "panel.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_star_panel_bytes_pinned(self, tmp_path):
        """The sha256 of a small STAR panel.csv, so any drift in the noise
        stream, the recursion or the value format fails here; the noise
        draw order and the writer's bytes are pinned in detail by
        test_synth.py and test_panel.py."""
        cfg = write_yaml(tmp_path / "s.yaml", {
            "seed": 3, "output_dir": str(tmp_path / "out"),
            "synth": {"kind": "star", "k": 5, "length": 300, "p": 2, "eta": 2},
        })
        assert main(["synth", "-c", str(cfg)]) == EXIT_OK
        digest = hashlib.sha256((tmp_path / "out" / "panel.csv").read_bytes()).hexdigest()
        assert digest == "802a64241e09ad523e1649a7aac2f55c3d10717115cf81c74d31b7a1abbc5d56"

    @pytest.mark.parametrize("require_stable,code", [(False, EXIT_OK), (True, EXIT_DATA)])
    def test_require_stable_holds_for_a_random_sparse_spec(self, tmp_path, capsys,
                                                           require_stable, code):
        # the random sparse spec checked stability whatever the config said
        cfg = write_yaml(tmp_path / "s.yaml", {
            "output_dir": str(tmp_path / "out"),
            "synth": {"kind": "star", "k": 4, "length": 40, "p": 1, "eta": 2,
                      "target_radius": 1.2, "require_stable": require_stable},
        })
        assert main(["synth", "-c", str(cfg)]) == code
        err = capsys.readouterr().err
        assert ("unstable process: companion spectral radius 1.2000 >= 1" in err) == require_stable
        assert (tmp_path / "out" / "panel.csv").exists() != require_stable

    @pytest.mark.parametrize("synth,code,message", [
        ({"eta": 3, "eta_max": 2}, EXIT_CONFIG, "config error: synth.eta_max must be >= 3"),
        ({"eta": 1, "stack": "two"}, EXIT_DATA, "data error: stack size does not match spec"),
    ], ids=["eta_max_below_eta", "stack_of_fewer_zones"])
    def test_star_spec_checked_against_its_stack(self, tmp_path, capsys, synth, code, message):
        write_stack(random_centroid_stack(2, 1, seed=5), tmp_path / "two")
        cfg = write_yaml(tmp_path / "s.yaml", {
            "output_dir": str(tmp_path / "out"),
            "synth": {"kind": "star", "k": 3, "length": 40, "p": 1, **synth},
        })
        assert main(["synth", "-c", str(cfg)]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("sigma", float("nan"), "must be a finite number, got nan"),
        ("sigma", float("inf"), "must be a finite number, got inf"),
        ("sigma", -1, "must be >= 0, got -1"),
        ("density", float("nan"), "must be a finite number, got nan"),
        ("target_radius", -1, "must be >= 0, got -1"),
        ("target_radius", float("nan"), "must be a finite number, got nan"),
        ("target_radius", float("inf"), "must be a finite number, got inf"),
        ("sigma", 10**400, f"must be a finite number, got {10**400!r}"),
    ], ids=["sigma_nan", "sigma_inf", "sigma_negative", "density_nan", "target_radius_negative",
            "target_radius_nan", "target_radius_inf", "sigma_int_too_large_for_a_float"])
    def test_bad_process_value_is_config_error(self, tmp_path, capsys, key, value, message):
        # unchecked, these wrote an all-zero panel, hung, or ended in a traceback
        cfg = write_yaml(tmp_path / "s.yaml", {
            "output_dir": str(tmp_path / "out"),
            "synth": {"kind": "star", "k": 4, "length": 30, "p": 1, "eta": 1, key: value},
        })
        assert main(["synth", "-c", str(cfg)]) == EXIT_CONFIG
        assert f"config error: synth.{key} {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestWeights:
    def test_centroid_scheme(self, tmp_path):
        zones = tmp_path / "zones.csv"
        zones.write_text("zone_id,lon,lat\nA,0,0\nB,1,0\nC,3,0\n")
        out = tmp_path / "w"
        cfg = write_yaml(tmp_path / "w.yaml", {
            "output_dir": str(out),
            "weights": {"scheme": "centroid", "eta_max": 3,
                        "zones_csv": str(zones)},
        })
        assert main(["weights", "-c", str(cfg)]) == EXIT_OK
        checks = json.loads((out / "stack_checks.json").read_text())
        assert all(c["ok"] for c in checks)
        from stardemand.weights import read_stack
        stack = read_stack(out / "stack")
        assert stack.k == 3 and stack.eta_max == 3
        assert np.allclose(stack.matrices[0], np.eye(3))

    @pytest.mark.parametrize("wcfg", [
        {"scheme": "centroid", "zones_csv": "zones.csv"},
        {"scheme": "adjacency", "zones": "zones.geojson", "adjacency": "adj.csv"},
    ], ids=["centroid", "adjacency"])
    def test_duplicate_zone_id_is_data_error(self, tmp_path, wcfg):
        # a repeated id would write a stack whose first copy has all-zero rings
        (tmp_path / "zones.csv").write_text("zone_id,lon,lat\nA,0,0\nB,1,0\nA,3,0\n")
        (tmp_path / "zones.geojson").write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{"type": "Feature", "properties": {"zone_id": zid},
                          "geometry": {"type": "Polygon", "coordinates": [
                              [[x, 0], [x + 1, 0], [x + 1, 1], [x, 1], [x, 0]]]}}
                         for zid, x in (("A", 0), ("B", 1), ("A", 2))],
        }))
        (tmp_path / "adj.csv").write_text("zone_a,zone_b\nA,B\n")
        cfg = write_yaml(tmp_path / "w.yaml", {"output_dir": str(tmp_path / "w"),
                                              "weights": {"eta_max": 2, **wcfg}})
        assert main(["weights", "-c", str(cfg)]) == EXIT_DATA
        assert not (tmp_path / "w" / "stack").exists()

    @pytest.mark.parametrize("wcfg", [
        {"scheme": "centroid", "zones_csv": "zones.csv"},
        {"scheme": "adjacency", "zones": "zones.geojson", "adjacency": "adj.csv"},
    ], ids=["centroid", "adjacency"])
    def test_echoed_config_reruns_identically(self, tmp_path, monkeypatch, wcfg):
        # relative inputs are echoed absolute, under the key they were read from
        (tmp_path / "zones.csv").write_text("zone_id,lon,lat\nA,0,0\nB,1,0\nC,3,0\n")
        (tmp_path / "zones.geojson").write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{"type": "Feature", "properties": {"zone_id": zid},
                          "geometry": {"type": "Polygon", "coordinates": [
                              [[x, 0], [x + 1, 0], [x + 1, 1], [x, 1], [x, 0]]]}}
                         for zid, x in (("A", 0), ("B", 1), ("C", 2))],
        }))
        (tmp_path / "adj.csv").write_text("zone_a,zone_b\nA,B\nB,C\n")
        cfg = write_yaml(tmp_path / "w.yaml", {"weights": {"eta_max": 2, **wcfg}})
        for relative_c in (False, True):
            runs = tmp_path / "runs" / str(relative_c)
            echoed = run_twice(monkeypatch, "weights", cfg, runs, relative_c)["weights"]
            assert echoed == {"eta_max": 2, "scheme": wcfg["scheme"],
                              **{k: str(tmp_path / v) for k, v in wcfg.items() if k != "scheme"}}
            first, again = runs / "first" / "stack", runs / "again" / "stack"
            files = sorted(f.name for f in first.iterdir())
            assert files == sorted(f.name for f in again.iterdir())
            for name in files:
                assert (first / name).read_bytes() == (again / name).read_bytes()

    @pytest.mark.parametrize("doc", [
        {"geometry": {"type": "Polygon"}},
        [],
        "A",
        {"geometry": {"type": "Polygon", "coordinates": [[[0, 0, 0], [1, 0, 0], [1, 1, 0],
                                                           [0, 0, 0]]]}},
        {"geometry": {"type": "Polygon", "coordinates": [[["a", 0], [1, 0], [1, 1],
                                                           ["a", 0]]]}},
        {"geometry": {"type": "Polygon", "coordinates": []}},
    ], ids=["no_coordinates", "top_level_list", "feature_str", "three_number_positions",
            "non_numeric_position", "empty_coordinates"])
    def test_malformed_geojson_is_data_error(self, tmp_path, capsys, doc):
        if isinstance(doc, dict):
            doc = {"type": "Feature", "properties": {"zone_id": "A"}, **doc}
        if not isinstance(doc, list):
            doc = {"type": "FeatureCollection", "features": [doc]}
        path = tmp_path / "zones.geojson"
        path.write_text(json.dumps(doc))
        (tmp_path / "adj.csv").write_text("zone_a,zone_b\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: malformed GeoJSON"):
            load_zones_geojson(path)
        cfg = write_yaml(tmp_path / "w.yaml", {
            "output_dir": str(tmp_path / "w"),
            "weights": {"scheme": "adjacency", "eta_max": 2, "zones": "zones.geojson",
                        "adjacency": "adj.csv"}})
        assert main(["weights", "-c", str(cfg)]) == EXIT_DATA
        assert f"data error: {path}: malformed GeoJSON" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    def test_zone_error_names_the_zones_file(self, tmp_path, capsys):
        path = tmp_path / "zones.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"zone_id": "A"},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1]]]}}]}))
        (tmp_path / "adj.csv").write_text("zone_a,zone_b\n")
        cfg = write_yaml(tmp_path / "w.yaml", {
            "output_dir": str(tmp_path / "w"),
            "weights": {"scheme": "adjacency", "eta_max": 2, "zones": "zones.geojson",
                        "adjacency": "adj.csv"}})
        assert main(["weights", "-c", str(cfg)]) == EXIT_DATA
        assert (f"data error: {path}: zone A: polygon ring is not closed"
                in capsys.readouterr().err)
        assert not (tmp_path / "w").exists()

    def test_unknown_scheme_is_config_error(self, tmp_path):
        zones = tmp_path / "zones.csv"
        zones.write_text("zone_id,lon,lat\nA,0,0\n")
        cfg = write_yaml(tmp_path / "w.yaml", {
            "output_dir": str(tmp_path / "w"),
            "weights": {"scheme": "voronoi", "eta_max": 1, "zones_csv": str(zones)},
        })
        assert main(["weights", "-c", str(cfg)]) == EXIT_CONFIG


    def test_synth_through_built_stack_then_fit(self, tmp_path):
        # the synthetic panel takes the zone ids of the stack it was made through
        (tmp_path / "zones.csv").write_text("zone_id,lon,lat\nA,0,0\nB,1,0\nC,3,0\nD,4,1\n")
        write_yaml(tmp_path / "w.yaml", {
            "weights": {"scheme": "centroid", "eta_max": 3, "zones_csv": "zones.csv"}})
        assert main(["weights", "-c", str(tmp_path / "w.yaml"), "--out",
                     str(tmp_path / "w")]) == EXIT_OK
        write_yaml(tmp_path / "s.yaml", {
            "seed": 4,
            "synth": {"kind": "star", "k": 4, "length": 60, "p": 1, "eta": 2,
                      "stack": "w/stack"}})
        assert main(["synth", "-c", str(tmp_path / "s.yaml"), "--out",
                     str(tmp_path / "s")]) == EXIT_OK
        assert read_panel_csv(tmp_path / "s" / "panel.csv").zone_ids == ("A", "B", "C", "D")
        write_yaml(tmp_path / "f.yaml", {
            "panel": "s/panel.csv",
            "stacks": {"rings": "w/stack"},
            "split": {"t1": 20, "t2": 40},
            "fit": {"model": "star", "p": 1, "eta": 2, "stack": "rings"}})
        assert main(["fit", "-c", str(tmp_path / "f.yaml"), "--out",
                     str(tmp_path / "f")]) == EXIT_OK
        assert read_model(tmp_path / "f" / "model.json").coefficients.shape == (4, 2)


class TestIngest:
    def _trips(self, tmp_path):
        trips = tmp_path / "trips.csv"
        trips.write_text(
            "Date/Time,Lat,Lon\n"
            "4/1/2014 0:05:00,0.1,0.1\n"
            "4/1/2014 0:20:00,0.1,0.9\n"
            "4/1/2014 0:21:00,0.2,0.8\n"
            "not-a-date,0,0\n"
        )
        zones = tmp_path / "zones.csv"
        zones.write_text("zone_id,lon,lat\nA,0,0\nB,1,0\n")
        return trips, zones

    def test_end_to_end(self, tmp_path):
        trips, zones = self._trips(tmp_path)
        out = tmp_path / "ingest"
        cfg = write_yaml(tmp_path / "i.yaml", {
            "output_dir": str(out),
            "ingest": {
                "trips": str(trips), "zones_csv": str(zones),
                "timestamp_format": "%m/%d/%Y %H:%M:%S",
                "bin_minutes": 15, "assign_policy": "nearest",
                "day_range": ["2014-04-01", "2014-04-02"],
            },
        })
        assert main(["ingest", "-c", str(cfg)]) == EXIT_OK
        panel = read_panel_csv(out / "panel.csv")
        assert panel.zone_ids == ("A", "B") and panel.T == 96
        # bin 0: one trip near A; bin 1: two trips nearer B
        assert panel.values[0, 0] == 1 and panel.values[1, 1] == 2
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["assigned"] == 3 and report["dropped_parse"] == 1
        assert report["row_errors"][0]["line"] == 5

    @pytest.mark.parametrize("day_range", [{}, {"day_range": ["2014-04-01", "2014-04-02"]}],
                             ids=["whole_days", "day_range"])
    def test_echoed_config_reruns_identically(self, tmp_path, monkeypatch, day_range):
        self._trips(tmp_path)
        cfg = write_yaml(tmp_path / "i.yaml", {
            "ingest": {"trips": "trips.csv", "zones_csv": "zones.csv",
                       "timestamp_format": "%m/%d/%Y %H:%M:%S", "assign_policy": "nearest",
                       **day_range},
        })
        for relative_c in (False, True):
            runs = tmp_path / "runs" / str(relative_c)
            echoed = run_twice(monkeypatch, "ingest", cfg, runs, relative_c)["ingest"]
            assert echoed["trips"] == str(tmp_path / "trips.csv")
            assert echoed["zones_csv"] == str(tmp_path / "zones.csv") and "zones" not in echoed
            assert ((runs / "first" / "panel.csv").read_bytes()
                    == (runs / "again" / "panel.csv").read_bytes())

    def test_no_trips_is_data_error(self, tmp_path):
        trips = tmp_path / "trips.csv"
        trips.write_text("Date/Time,Lat,Lon\nbad,0,0\n")
        zones = tmp_path / "zones.csv"
        zones.write_text("zone_id,lon,lat\nA,0,0\n")
        cfg = write_yaml(tmp_path / "i.yaml", {
            "output_dir": str(tmp_path / "out"),
            "ingest": {"trips": str(trips), "zones_csv": str(zones), "assign_policy": "nearest"},
        })
        assert main(["ingest", "-c", str(cfg)]) == EXIT_DATA
        # the report is still written before the failure surfaces
        assert (tmp_path / "out" / "ingest_report.json").exists()

    @pytest.mark.parametrize("setting", [
        {"bin_minutes": "ten"},
        {"bin_minutes": 7},
        {"bin_minutes": 0},
        {"day_range": ["2014-04-01"]},
        {"day_range": ["2014-04-02", "2014-04-01"]},
        {"day_range": ["2014-04-01", "2014-04-01 00:07"]},
        {"day_range": "2014-04-01"},
        {"parse_policy": "lenient"},
        {"assign_policy": "closest"},
        {"columns": ["Date/Time", "Lat", "Lon"]},
        {"columns": {"time": 5}},
        {"trips": 5},
        {"timestamp_format": "%Y %Y"},
        {"timestamp_format": "%Q"},
        {"timestamp_format": "%Y %m %"},
        {"assign_policy": "drop"},
    ], ids=["bin_str", "bin_7", "bin_0", "range_one", "range_reversed", "range_part_bin",
            "range_str", "parse_lenient", "assign_closest", "columns_list", "columns_time_int",
            "trips_int", "ts_repeated", "ts_bad_directive", "ts_stray_percent",
            "drop_with_centroid_zones"])
    def test_bad_setting_is_config_error(self, tmp_path, monkeypatch, setting):
        trips, zones = self._trips(tmp_path)
        cfg = write_yaml(tmp_path / "i.yaml", {
            "output_dir": str(tmp_path / "out"),
            "ingest": {"trips": str(trips), "zones_csv": str(zones), "assign_policy": "nearest",
                       **setting},
        })

        def no_read(*args, **kwargs):
            raise AssertionError("trips read before the config was checked")

        monkeypatch.setattr(ingest_mod, "parse_trips", no_read)
        assert main(["ingest", "-c", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()


class TestFit:
    def test_lasso_star_outputs(self, tmp_path, synth_run):
        out = tmp_path / "fit"
        cfg = write_yaml(tmp_path / "f.yaml", {
            "output_dir": str(out),
            "panel": str(synth_run / "panel.csv"),
            "stacks": {"rings": str(synth_run / "stack")},
            "split": {"t1": 30, "t2": 60},
            "lasso": {"n_lambdas": 10},
            "fit": {"model": "lasso_star", "p": 1, "eta": 2, "stack": "rings"},
        })
        assert main(["fit", "-c", str(cfg)]) == EXIT_OK
        model = read_model(out / "model.json")
        assert model.coefficients.shape == (6, 2)
        echoed = yaml.safe_load((out / "config.yaml").read_text())["lasso"]
        assert echoed["n_lambdas"] == 10 and echoed["refit_after_tuning"] is True
        curve = json.loads((out / "lambda_curve.json").read_text())
        assert curve["lambda"] >= 0 and len(curve["curve"]) >= 10

    @pytest.mark.parametrize("kind", ["star", "lasso_star"])
    def test_model_json_rebuilds_test_mspe(self, tmp_path, synth_run, kind):
        """model.json, with the panel and stack it was fit on, gives through
        predict_range (design rows times coefficients) the test MSPE that
        run_scenario reads from the Gram of its test rows."""
        out, order = tmp_path / "fit", ModelOrder(p=2, eta=2)
        cfg = write_yaml(tmp_path / "f.yaml", {
            "output_dir": str(out),
            "panel": str(synth_run / "panel.csv"),
            "stacks": {"rings": str(synth_run / "stack")},
            "split": {"t1": 30, "t2": 60},
            "fit": {"model": kind, "p": order.p, "eta": order.eta, "stack": "rings"},
        })
        assert main(["fit", "-c", str(cfg)]) == EXIT_OK
        model = read_model(out / "model.json")
        panel, stack = read_panel_csv(synth_run / "panel.csv"), read_stack(synth_run / "stack")
        split = SplitSpec(30, 60, panel.T)
        test = (split.t2, split.t_end)
        rebuilt = mspe(panel, predict_range(model, panel, test, stack), test)
        report = run_scenario(panel, stack, kind, order, split)
        assert model.lambda_ == report.lambda_
        assert rebuilt == pytest.approx(report.test_mspe, rel=1e-10, abs=0)

    @pytest.mark.parametrize("kind", ["var", "star", "lasso_star"])
    def test_outputs_are_run_scenario_fit_and_curve(self, tmp_path, synth_run, kind):
        """model.json and lambda_curve.json are the test model and the
        validation curve of the report that run_scenario gives the cell."""
        out, order, split = tmp_path / "fit", ModelOrder(p=2, eta=2), {"t1": 30, "t2": 60}
        lasso = LassoConfig(n_lambdas=10)
        cfg = write_yaml(tmp_path / "f.yaml", {
            "output_dir": str(out),
            "panel": str(synth_run / "panel.csv"),
            "stacks": {"rings": str(synth_run / "stack")},
            "split": split,
            "lasso": {"n_lambdas": lasso.n_lambdas},
            "fit": {"model": kind, "p": order.p, "eta": order.eta, "stack": "rings"},
        })
        assert main(["fit", "-c", str(cfg)]) == EXIT_OK
        panel = read_panel_csv(synth_run / "panel.csv")
        stack = None if kind == "var" else read_stack(synth_run / "stack")
        report = run_scenario(panel, stack, kind, order, SplitSpec(**split, t_end=panel.T),
                              lasso)
        assert json.loads((out / "model.json").read_text()) == model_to_dict(report.fit)
        curve = out / "lambda_curve.json"
        if kind == "lasso_star":
            assert json.loads(curve.read_text()) == {
                "lambda": report.fit.lambda_, "curve": [list(c) for c in report.curve]}
        else:
            assert not curve.exists() and report.curve == [(None, report.val_mspe)]

    def test_var_fit(self, tmp_path, synth_run):
        out = tmp_path / "fitvar"
        cfg = write_yaml(tmp_path / "fv.yaml", {
            "output_dir": str(out),
            "panel": str(synth_run / "panel.csv"),
            "split": {"t1": 30, "t2": 60},
            "fit": {"model": "var", "p": 2},
        })
        assert main(["fit", "-c", str(cfg)]) == EXIT_OK
        model = read_model(out / "model.json")
        assert model.p == 2 and len(model.lag_matrices) == 2

    @pytest.mark.parametrize("kind", ["var", "star", "lasso_star"])
    def test_echoed_config_reruns_identically(self, tmp_path, monkeypatch, synth_run, kind):
        # panel and stacks relative to the config file
        cfg = write_yaml(tmp_path / "f.yaml", {
            "panel": "synth/panel.csv",
            "stacks": {"rings": "synth/stack"},
            "split": {"t1": 30, "t2": 60},
            "lasso": {"n_lambdas": 10, "refit_after_tuning": False},
            "fit": {"model": kind, "p": 1, "eta": 2, "stack": "rings"},
        })
        names = ["model.json"] + (["lambda_curve.json"] if kind == "lasso_star" else [])
        for relative_c in (False, True):
            runs = tmp_path / "runs" / str(relative_c)
            echoed = run_twice(monkeypatch, "fit", cfg, runs, relative_c)
            assert echoed["panel"] == str(synth_run / "panel.csv")
            assert echoed.get("stacks") == (None if kind == "var" else
                                            {"rings": str(synth_run / "stack")})
            again = runs / "again"
            assert sorted(json.loads((again / "manifest.json").read_text())["outputs"]) == \
                sorted(names + ["config.yaml"])
            for name in names:
                assert (runs / "first" / name).read_bytes() == (again / name).read_bytes()

    def test_unknown_stack_name(self, tmp_path, synth_run):
        cfg = write_yaml(tmp_path / "f.yaml", {
            "output_dir": str(tmp_path / "fit"),
            "panel": str(synth_run / "panel.csv"),
            "stacks": {"rings": str(synth_run / "stack")},
            "fit": {"model": "star", "p": 1, "eta": 1, "stack": "nope"},
        })
        assert main(["fit", "-c", str(cfg)]) == EXIT_CONFIG


class TestGrid:
    def _config(self, tmp_path, synth_run, out, timings):
        return write_yaml(tmp_path / f"g_{out.name}.yaml", {
            "output_dir": str(out),
            "panel": str(synth_run / "panel.csv"),
            "stacks": {"rings": str(synth_run / "stack")},
            "split": {"t1": 30, "t2": 60},
            "timings": timings,
            "lasso": {"n_lambdas": 10},
            "grid": {"models": ["star", "lasso_star"], "p": [1, 2],
                     "eta": [1, 2], "include_var": True},
        })

    def test_outputs_and_row_count(self, tmp_path, synth_run):
        out = tmp_path / "grid"
        cfg = self._config(tmp_path, synth_run, out, timings=True)
        assert main(["grid", "-c", str(cfg)]) == EXIT_OK
        lines = (out / "reports.csv").read_text().splitlines()
        assert lines[0] == "model,p,eta,scheme,val_mspe,test_mspe,lambda,seconds,error"
        # 2 models x 2 eta x 2 p + 2 VAR rows
        assert len(lines) == 1 + 8 + 2
        assert (out / "table.txt").read_text().count("VAR") == 1

    def test_byte_identical_without_timings(self, tmp_path, synth_run):
        texts = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            cfg = self._config(tmp_path, synth_run, out, timings=False)
            assert main(["grid", "-c", str(cfg)]) == EXIT_OK
            texts.append((out / "reports.csv").read_bytes())
        assert texts[0] == texts[1]
        assert b"seconds" not in texts[0]

    def test_jobs_other_than_one_is_usage_error(self, tmp_path, synth_run):
        # the grid runs in one thread; --jobs stays only as --jobs 1
        out = tmp_path / "grid"
        cfg = self._config(tmp_path, synth_run, out, timings=False)
        assert main(["grid", "-c", str(cfg), "--jobs", "2"]) == EXIT_CONFIG
        assert not out.exists()

    def test_all_failed_is_numerical_error(self, tmp_path, synth_run):
        cfg = write_yaml(tmp_path / "g.yaml", {
            "output_dir": str(tmp_path / "grid"),
            "panel": str(synth_run / "panel.csv"),
            "stacks": {"rings": str(synth_run / "stack")},
            "split": {"t1": 30, "t2": 60},
            "grid": {"models": ["star"], "p": [1], "eta": [5],
                     "include_var": False},
        })
        # eta=5 exceeds the stack depth in every cell
        assert main(["grid", "-c", str(cfg)]) == EXIT_NUMERICAL

    def test_echoed_config_reruns_identically(self, tmp_path, monkeypatch, synth_run):
        lasso = {"grid": [1.0, 0.1, 0.01], "refit_after_tuning": False}
        cfg = write_yaml(tmp_path / "g.yaml", {
            "panel": "synth/panel.csv",
            "stacks": {"rings": "synth/stack"},
            "split": {"t1": 30, "t2": 60},
            "timings": False,
            "lasso": lasso,
            "grid": {"models": ["lasso_star"], "p": [1, 2], "eta": [1, 2],
                     "include_var": False},
        })
        for relative_c in (False, True):
            runs = tmp_path / "runs" / str(relative_c)
            echoed = run_twice(monkeypatch, "grid", cfg, runs, relative_c)
            assert echoed["lasso"] == lasso
            assert echoed["panel"] == str(synth_run / "panel.csv")
            assert echoed["stacks"] == {"rings": str(synth_run / "stack")}
            assert ((runs / "first" / "reports.csv").read_bytes()
                    == (runs / "again" / "reports.csv").read_bytes())

    @pytest.mark.parametrize("cell", ["nan", "abc"])
    def test_bad_stack_cell_is_data_error(self, tmp_path, synth_run, cell):
        replace_first_cell(synth_run / "stack" / "w1.csv", cell)
        cfg = self._config(tmp_path, synth_run, tmp_path / "grid", timings=False)
        assert main(["grid", "-c", str(cfg)]) == EXIT_DATA
        assert not (tmp_path / "grid").exists()

    def test_two_stacks_of_one_scheme_is_data_error(self, tmp_path, synth_run, capsys):
        # reports.csv and table.txt name a stack by its scheme alone
        cfg = yaml.safe_load(self._config(tmp_path, synth_run, tmp_path / "grid",
                                          timings=False).read_text())
        cfg["stacks"]["again"] = cfg["stacks"]["rings"]
        write_yaml(tmp_path / "g.yaml", cfg)
        assert main(["grid", "-c", str(tmp_path / "g.yaml")]) == EXIT_DATA
        assert "distinct schemes" in capsys.readouterr().err
        assert not (tmp_path / "grid").exists()

    @pytest.mark.parametrize("scheme", [["a"], 1.5, "zzz"], ids=["list", "float", "unknown"])
    def test_stack_of_unknown_scheme_is_data_error(self, tmp_path, synth_run, capsys, scheme):
        # rejected where the stack is read, not in the grid's set-up or its sort
        manifest = json.loads((synth_run / "stack" / "manifest.json").read_text())
        manifest["scheme"] = scheme
        (synth_run / "stack" / "manifest.json").write_text(json.dumps(manifest))
        cfg = self._config(tmp_path, synth_run, tmp_path / "grid", timings=False)
        assert main(["grid", "-c", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"has unknown scheme {scheme!r}" in err and "Traceback" not in err
        assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize("command,section", [
    ("grid", {"models": ["star", "lasso_star"], "p": [1], "eta": [1, 2], "include_var": True}),
    ("grid", {"models": ["star"], "p": [1], "eta": [1, 2], "include_var": False}),
    ("fit", {"model": "star", "p": 1, "eta": 1, "stack": "rings"}),
], ids=["grid_every_model", "grid_star_only", "fit"])
def test_stack_in_another_zone_order_is_data_error(tmp_path, synth_run, capsys, command,
                                                   section):
    # the panel's zones in reverse: rejected where the stack is read, before the
    # run directory, not cell by cell
    stack_dir = tmp_path / "reversed"
    shutil.copytree(synth_run / "stack", stack_dir)
    manifest = json.loads((stack_dir / "manifest.json").read_text())
    manifest["zone_ids"].reverse()
    (stack_dir / "manifest.json").write_text(json.dumps(manifest))
    cfg = write_yaml(tmp_path / "c.yaml", {
        "output_dir": str(tmp_path / "out"),
        "panel": str(synth_run / "panel.csv"),
        "stacks": {"rings": str(stack_dir)},
        "split": {"t1": 30, "t2": 60},
        "lasso": {"n_lambdas": 5},
        command: section,
    })
    assert main([command, "-c", str(cfg)]) == EXIT_DATA
    first, last = manifest["zone_ids"][0], manifest["zone_ids"][-1]
    assert (f"data error: stack {stack_dir}: weight stack zone order does not match panel: "
            f"position 0 holds {first!r} in the stack, {last!r} in the panel"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["grid", "-c", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG

    def test_invalid_yaml(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("a: [unclosed\n")
        assert main(["fit", "-c", str(cfg)]) == EXIT_CONFIG

    def test_missing_key(self, tmp_path):
        cfg = write_yaml(tmp_path / "c.yaml", {"output_dir": str(tmp_path)})
        assert main(["synth", "-c", str(cfg)]) == EXIT_CONFIG

    def test_bad_usage(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_bad_panel_is_data_error(self, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text("zone_id,bin_0\nA,1\nA,2\n")
        cfg = write_yaml(tmp_path / "c.yaml", {
            "output_dir": str(tmp_path / "out"),
            "panel": str(panel), "stacks": {},
            "split": {"t1": 1, "t2": 2},
            "fit": {"model": "var", "p": 1},
        })
        assert main(["fit", "-c", str(cfg)]) == EXIT_DATA

    def test_panel_row_longer_than_header_is_data_error(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_text("zone_id,bin_0,bin_1\nA,1,2,3\nB,4,5,6\n")
        cfg = write_yaml(tmp_path / "c.yaml", {
            "output_dir": str(tmp_path / "out"),
            "panel": str(panel), "stacks": {},
            "split": {"t1": 1, "t2": 2},
            "fit": {"model": "var", "p": 1},
        })
        assert main(["fit", "-c", str(cfg)]) == EXIT_DATA
        assert f"{panel}: row of zone A has 3 values" in capsys.readouterr().err

    @pytest.mark.parametrize("command,section,key,content", [
        ("fit", None, "panel", None),
        ("weights", "weights", "zones", None),
        ("weights", "weights", "zones_csv", None),
        ("weights", "weights", "adjacency", None),
        ("ingest", "ingest", "trips", None),
        ("ingest", "ingest", "trips", "Date/Time,Lat,Lon,Base\n4/1/2014 0:05:00,0,0,Bé\n"
                                      .encode("latin-1")),
        ("grid", None, "panel", b"zone_id,bin_0,bin_1,bin_2\nA\xff,1,2,3\n"),
    ], ids=["panel", "zones", "zones_csv", "adjacency", "trips", "trips_latin1",
            "grid_panel_undecodable"])
    def test_unreadable_input_is_data_error(self, tmp_path, capsys, command, section, key,
                                            content):
        """A missing input (no content), or one that cannot be decoded."""
        zones = tmp_path / "zones.csv"
        zones.write_text("zone_id,lon,lat\nA,0,0\nB,1,0\n")
        (tmp_path / "adj.csv").write_text("A,B\n")
        (tmp_path / "trips.csv").write_text("Date/Time,Lat,Lon\n4/1/2014 0:05:00,0,0\n")
        (tmp_path / "panel.csv").write_text("zone_id,bin_0,bin_1,bin_2\nA,1,2,3\n")
        cfg = {
            "output_dir": str(tmp_path / "out"),
            "panel": str(tmp_path / "panel.csv"), "split": {"t1": 1, "t2": 2},
            "fit": {"model": "var", "p": 1},
            "grid": {}, "stacks": {"rings": str(tmp_path / "stack")},
            "weights": {"scheme": "adjacency", "eta_max": 2, "zones_csv": str(zones),
                        "adjacency": str(tmp_path / "adj.csv")},
            "ingest": {"trips": str(tmp_path / "trips.csv"), "zones_csv": str(zones),
                       "assign_policy": "nearest"},
        }
        target = tmp_path / "missing" / key
        if content is not None:
            target = tmp_path / f"unreadable_{key}"
            target.write_bytes(content)
        (cfg[section] if section else cfg)[key] = str(target)
        assert main([command, "-c", str(write_yaml(tmp_path / "c.yaml", cfg))]) == EXIT_DATA
        assert "data error: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfigValidation:
    """Bad config values exit 1 before any output is written."""

    def _config(self, tmp_path, synth_run, **overrides):
        cfg = {
            "output_dir": str(tmp_path / "out"),
            "panel": str(synth_run / "panel.csv"),
            "stacks": {"rings": str(synth_run / "stack")},
            "split": {"t1": 30, "t2": 60},
            "lasso": {"n_lambdas": 5},
            "grid": {"models": ["lasso_star"], "p": [1], "eta": [1],
                     "include_var": False},
            "fit": {"model": "lasso_star", "p": 1, "eta": 1, "stack": "rings"},
            "weights": {"scheme": "centroid", "eta_max": 2, "zones_csv": "zones.csv"},
        }
        cfg.update(overrides)
        return write_yaml(tmp_path / "c.yaml", cfg)

    @pytest.mark.parametrize("command", ["grid", "fit"])
    @pytest.mark.parametrize("lasso", [
        {"lambda_min_ratio": 0},
        {"n_lambdas": 0},
        {"grid": ["a", 1.0]},
        {"grid": []},
        {"include_zero": "no"},
        {"refit_after_tuning": "false"},
        {"grid": [1.0, 0.0], "n_lambdas": 5},
        {"grid": [1.0, 0.0], "lambda_min_ratio": 0.01},
        {"grid": [1.0, 0.0], "include_zero": False},
    ], ids=["min_ratio_0", "n_lambdas_0", "grid_str", "grid_empty", "include_zero_str",
            "refit_str", "grid_with_n_lambdas", "grid_with_min_ratio", "grid_with_include_zero"])
    def test_bad_lasso_value(self, tmp_path, synth_run, command, lasso):
        cfg = self._config(tmp_path, synth_run, lasso=lasso)
        assert main([command, "-c", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["grid", "fit"])
    def test_n_lambdas_above_limit_is_config_error(self, tmp_path, synth_run, monkeypatch,
                                                   capsys, command):
        def no_grid(*args, **kwargs):
            raise AssertionError("np.geomspace called")

        monkeypatch.setattr(np, "geomspace", no_grid)
        cfg = self._config(tmp_path, synth_run, lasso={"n_lambdas": 10**9})
        assert main([command, "-c", str(cfg)]) == EXIT_CONFIG
        assert "config error: n_lambdas must lie in [1, " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_explicit_grid_with_generated_keys_names_them(self, tmp_path, synth_run, capsys):
        # the explicit grid would be run and the generated-grid keys silently ignored
        cfg = self._config(tmp_path, synth_run, lasso={"grid": [1.0, 0.5, 0.0], "n_lambdas": 5,
                                                       "include_zero": False})
        assert main(["fit", "-c", str(cfg)]) == EXIT_CONFIG
        assert ("config error: lasso: include_zero, n_lambdas given with an explicit grid"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["grid", "fit"])
    @pytest.mark.parametrize("split", [
        {"t1": 30, "t2": 60, "t_end": 81},
        {"t1": 30, "t2": "sixty"},
        {"t1": 60, "t2": 30},
        {"t1": 0, "t2": 30},
        {"t1": 30, "t2": 60, "t_end": 60},
        {"t2_fraction": 1.5},
        5,
        {"t1": 5, "t_end": 30},
        {"t_end": 30},
        {"t1": 5, "t2_fraction": 0.5},
        {"t2": 60, "t2_fraction": 0.5},
        {"t1": 30, "t2": 60, "t1_fraction_of_t2": 0.5},
    ], ids=["t_end_past_panel", "t2_str", "t1_after_t2", "t1_zero", "t_end_at_t2",
            "fraction_above_1", "not_mapping", "t1_t_end_without_t2", "t_end_without_t2",
            "t1_with_fraction", "t2_with_fraction", "bins_with_t1_fraction"])
    def test_bad_split(self, tmp_path, synth_run, command, split):
        # a bin without t2 would be silently dropped; a fraction key is an unknown key
        cfg = self._config(tmp_path, synth_run, split=split)
        assert main([command, "-c", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["grid", "fit"])
    @pytest.mark.parametrize("stacks", [["synth/stack"], "synth/stack", {"rings": 5}],
                             ids=["list", "str", "path_int"])
    def test_bad_stacks(self, tmp_path, synth_run, capsys, command, stacks):
        cfg = self._config(tmp_path, synth_run, stacks=stacks)
        assert main([command, "-c", str(cfg)]) == EXIT_CONFIG
        assert "config error: stacks must be a mapping" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,section", [
        ("grid", {"models": ["star"], "include_var": False}),
        ("grid", {"models": ["lasso_star"], "include_var": True}),
        ("fit", {"model": "star"}),
        ("fit", {"model": "lasso_star"}),
    ], ids=["grid_star", "grid_lasso_star_with_var", "fit_star", "fit_lasso_star"])
    def test_empty_stacks_with_star_model(self, tmp_path, synth_run, capsys, command, section):
        # a grid ran no STAR cell (exit 3, or VAR alone); a fit named no stack to choose
        cfg = yaml.safe_load(self._config(tmp_path, synth_run, stacks={}).read_text())
        cfg[command].update(section)
        assert main([command, "-c", str(write_yaml(tmp_path / "c.yaml", cfg))]) == EXIT_CONFIG
        assert "config error: stacks is empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,section", [
        ("grid", {"models": [], "p": [1, 2], "include_var": True}),
        ("fit", {"model": "var", "p": 1}),
    ], ids=["grid_var", "fit_var"])
    def test_empty_stacks_without_star_model(self, tmp_path, synth_run, command, section):
        cfg = yaml.safe_load(self._config(tmp_path, synth_run, stacks={}).read_text())
        cfg[command] = section
        assert main([command, "-c", str(write_yaml(tmp_path / "c.yaml", cfg))]) == EXIT_OK
        if command == "grid":
            # with no scheme, the table keeps one column per p for the VAR row
            header, _, var = (tmp_path / "out" / "table.txt").read_text().splitlines()
            assert header.split() == ["eta", "model", "p=1", "p=2"]
            assert var.split()[:2] == ["-", "VAR"] and len(var.split()) == 4

    @pytest.mark.parametrize("models,code", [([], EXIT_OK), (["star"], EXIT_CONFIG)],
                             ids=["var_only", "star"])
    def test_grid_without_stacks_key(self, tmp_path, synth_run, capsys, models, code):
        # only a grid that runs a STAR or LASSO-STAR model reads a stack
        cfg = yaml.safe_load(self._config(tmp_path, synth_run).read_text())
        del cfg["stacks"]
        cfg["grid"] = {"models": models, "p": [1, 2], "include_var": True}
        assert main(["grid", "-c", str(write_yaml(tmp_path / "c.yaml", cfg))]) == code
        if code == EXIT_OK:
            rows = (tmp_path / "out" / "reports.csv").read_text().splitlines()[1:]
            assert [r.split(",")[:2] for r in rows] == [["var", "1"], ["var", "2"]]
        else:
            assert "config error: missing config key stacks" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("grid", "timings", "no"),
        ("grid", "grid.include_var", "no"),
        ("grid", "standardize", "no"),
        ("fit", "standardize", "no"),
        ("grid", "grid.p", ["a"]),
        ("grid", "grid.eta", ["a"]),
        ("grid", "grid.p", [0]),
        ("grid", "grid.p", 2),
        ("fit", "fit.p", "a"),
        ("fit", "fit.eta", "a"),
        ("grid", "grid.models", 5),
        ("fit", "fit.stack", ["rings"]),
        ("grid", "grid.p", [1.5]),
        ("grid", "grid.eta", [2.5]),
        ("fit", "fit.p", 2.5),
        ("fit", "fit.p", "2"),
        ("weights", "weights.eta_max", 2.5),
        ("grid", "output_dir", 5),
        ("grid", "grid.models", []),
    ], ids=["timings_str", "include_var_str", "standardize_str-grid", "standardize_str-fit",
            "grid_p_str", "grid_eta_str", "grid_p_0", "grid_p_scalar", "fit_p_str",
            "fit_eta_str", "grid_models_int", "fit_stack_list", "grid_p_fraction",
            "grid_eta_fraction", "fit_p_fraction", "fit_p_quoted", "weights_eta_max_fraction",
            "output_dir_int", "grid_no_cells"])
    def test_bad_value(self, tmp_path, synth_run, command, key, value):
        cfg = yaml.safe_load(self._config(tmp_path, synth_run).read_text())
        *sections, name = key.split(".")
        node = cfg
        for section in sections:
            node = node[section]
        node[name] = value
        assert main([command, "-c", str(write_yaml(tmp_path / "c.yaml", cfg))]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("k", "a"), ("length", "a"), ("p", "a"), ("eta", "a"), ("require_stable", "no"),
    ], ids=["k_str", "length_str", "p_str", "eta_str", "require_stable_str"])
    def test_bad_synth_value(self, tmp_path, key, value):
        cfg = write_yaml(tmp_path / "s.yaml", {
            "output_dir": str(tmp_path / "out"),
            "synth": {"kind": "star", "k": 4, "length": 40, "p": 1, "eta": 1, key: value},
        })
        assert main(["synth", "-c", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind,key,value", [
        ("star", "coefficients", [[0.1], ["x"], [0.1], [0.1]]),
        ("var", "intercept", [0.0, "x"]),
        ("var", "intercept", [0.0, "1.5"]),
        ("var", "lag_matrices", [[[0.5, "x"], [0.1, 0.4]]]),
        ("var", "lag_matrices", [[[0.5], [0.1, 0.4]]]),
        ("var", "lag_matrices", 0.5),
    ], ids=["coefficients_str", "intercept_str", "intercept_quoted", "lag_matrices_str",
            "lag_matrices_ragged", "lag_matrices_scalar"])
    def test_bad_synth_array(self, tmp_path, capsys, kind, key, value):
        synth = ({"kind": "star", "k": 4, "length": 40, "p": 1, "eta": 1} if kind == "star" else
                 {"kind": "var", "k": 2, "length": 40, "lag_matrices": [[[0.5, 0.0], [0.1, 0.4]]]})
        cfg = write_yaml(tmp_path / "s.yaml", {"output_dir": str(tmp_path / "out"),
                                               "synth": {**synth, key: value}})
        assert main(["synth", "-c", str(cfg)]) == EXIT_CONFIG
        assert f"config error: synth.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,section,key,value", [
        ("grid", "lasso", "n_lambda", 5),
        ("fit", "split", "t3", 70),
        ("fit", "split", "t2_fraction", 0.5),
        ("grid", "split", "t1_fraction_of_t2", 0.5),
        ("synth", "synth", "seed", 1),
        ("grid", "grid", "etas", [1]),
        ("fit", "fit", "order", 1),
        ("synth", "synth", "sigma2", 1.0),
        ("ingest", "ingest", "bin_minute", 15),
        ("ingest", "ingest.columns", "time_zone", "UTC"),
        ("weights", "weights", "schema", "centroid"),
        ("grid", "lasso", "tolerance", 1e-8),
        ("fit", "lasso", "tolerance", 1e-8),
        ("grid", "lasso", "max_sweeps", 10_000),
        ("fit", "lasso", "max_sweeps", 10_000),
        ("grid", "", "standardise", True),
        ("grid", "", "timing", False),
        ("fit", "", "standardise", True),
        ("fit", "", "splits", {"t2": 60}),
        ("synth", "", "seeds", 1),
        ("ingest", "", "outputdir", "out"),
        ("weights", "", "eta_max", 2),
    ], ids=["lasso", "split", "split_t2_fraction", "split_t1_fraction", "synth_seed", "grid",
            "fit", "synth", "ingest", "ingest_columns", "weights",
            "tolerance-grid", "tolerance-fit", "max_sweeps-grid", "max_sweeps-fit",
            "top_standardise-grid", "top_timing-grid", "top_standardise-fit", "top_splits-fit",
            "top_seeds-synth", "top_outputdir-ingest", "top_section_key-weights"])
    def test_unknown_key(self, tmp_path, synth_run, capsys, command, section, key, value):
        # the retired solver keys tolerance and max_sweeps are unknown keys too; a
        # misspelt top-level key ("") would leave its setting at the default
        cfg = yaml.safe_load(self._config(tmp_path, synth_run).read_text())
        cfg["synth"] = {"kind": "star", "k": 4, "length": 40, "p": 1, "eta": 1}
        cfg["ingest"] = {"trips": "trips.csv", "zones_csv": "zones.csv", "columns": {}}
        node = cfg
        for part in section.split(".") if section else []:
            node = node[part]
        node[key] = value
        assert main([command, "-c", str(write_yaml(tmp_path / "c.yaml", cfg))]) == EXIT_CONFIG
        where = f"key(s) in {section}" if section else "top-level key(s)"
        assert f"unknown {where}: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,section,value,message", [
        ("synth", "lasso", {"n_lambdaz": 5}, "unknown key(s) in lasso: n_lambdaz"),
        ("synth", "ingest", {"trips": "x.csv", "bogus_key": 1},
         "unknown key(s) in ingest: bogus_key"),
        ("synth", "grid", {"modelz": ["star"]}, "unknown key(s) in grid: modelz"),
        ("grid", "ingest", {"trips": "x.csv", "columns": {"tyme": "t"}},
         "unknown key(s) in ingest.columns: tyme"),
        ("fit", "synth", {"kind": "star", "kk": 4}, "unknown key(s) in synth: kk"),
        ("grid", "weights", {"scheme": "centroid", "eta": 2}, "unknown key(s) in weights: eta"),
        ("synth", "lasso", 5, "lasso must be a mapping, got 5"),
        ("fit", "ingest", {"columns": ["time"]}, "ingest.columns must be a mapping, got ['time']"),
        ("grid", "synth", None, "synth must be a mapping, got None"),
    ], ids=["lasso-synth", "ingest-synth", "grid-synth", "ingest_columns-grid", "synth-fit",
            "weights-grid", "lasso_scalar-synth", "ingest_columns_list-fit", "synth_null-grid"])
    def test_unread_section_is_checked(self, tmp_path, synth_run, capsys, command, section,
                                       value, message):
        # a section the command does not read is checked at load like one it
        # does: without its typo the run exits 0
        cfg = yaml.safe_load(self._config(tmp_path, synth_run).read_text())
        cfg["synth"] = {"kind": "star", "k": 4, "length": 40, "p": 1, "eta": 1}
        cfg[section] = value
        assert main([command, "-c", str(write_yaml(tmp_path / "c.yaml", cfg))]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unread_section_is_not_echoed(self, tmp_path, synth_run):
        cfg = self._config(tmp_path, synth_run)
        assert main(["grid", "-c", str(cfg)]) == EXIT_OK
        echoed = yaml.safe_load((tmp_path / "out" / "config.yaml").read_text())
        assert set(echoed) == {"command", "panel", "stacks", "split", "standardize", "lasso",
                               "timings", "grid"}

    def test_adjacency_under_centroid_scheme(self, tmp_path, capsys):
        # the centroid scheme builds its rings from distances and reads no adjacency
        (tmp_path / "zones.csv").write_text("zone_id,lon,lat\nA,0,0\nB,1,0\nC,3,0\n")
        (tmp_path / "adj.csv").write_text("zone_a,zone_b\nA,B\n")
        cfg = write_yaml(tmp_path / "w.yaml", {
            "output_dir": str(tmp_path / "out"),
            "weights": {"scheme": "centroid", "eta_max": 2, "zones_csv": "zones.csv",
                        "adjacency": "adj.csv"},
        })
        assert main(["weights", "-c", str(cfg)]) == EXIT_CONFIG
        assert "config error: weights.adjacency" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_weights_eta_max(self, tmp_path):
        zones = tmp_path / "zones.csv"
        zones.write_text("zone_id,lon,lat\nA,0,0\nB,1,0\n")
        cfg = write_yaml(tmp_path / "w.yaml", {
            "output_dir": str(tmp_path / "out"),
            "weights": {"scheme": "centroid", "eta_max": "two", "zones_csv": str(zones)},
        })
        assert main(["weights", "-c", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_split_to_last_bin_runs(self, tmp_path, synth_run):
        cfg = self._config(tmp_path, synth_run, split={"t1": 30, "t2": 60, "t_end": 80})
        assert main(["grid", "-c", str(cfg)]) == EXIT_OK

    @pytest.mark.parametrize("T,split,code", [
        (96, {"t1": 32, "t2": 64, "t_end": 96}, EXIT_OK),
        # the smallest legal split: bin 0 trains no p >= 1 model, so the fit is a data error
        (3, {"t1": 1, "t2": 2, "t_end": 3}, EXIT_DATA),
        (2, None, EXIT_CONFIG),
    ])
    @pytest.mark.parametrize("given", ["absent", "empty"])
    def test_default_split_in_thirds(self, tmp_path, capsys, T, split, code, given):
        # with no bins named, t2 is the bin nearest 2T/3 and t1 = (t2 + 1) // 2
        values = np.random.default_rng(T).normal(size=(2, T))
        write_panel_csv(make_panel(["A", "B"], values, kind="real"), tmp_path / "panel.csv")
        cfg = {"panel": "panel.csv", "fit": {"model": "var", "p": 1}}
        if given == "empty":
            cfg["split"] = {}
        out = tmp_path / "out"
        assert main(["fit", "-c", str(write_yaml(tmp_path / "c.yaml", cfg)),
                     "--out", str(out)]) == code
        if code != EXIT_OK:
            # a config error, or a fit that fails, leaves no run directory
            assert not out.exists()
        if code == EXIT_DATA:
            assert f"fit range (0, {split['t1']}) has no usable rows" in capsys.readouterr().err
        elif split is not None:
            assert yaml.safe_load((out / "config.yaml").read_text())["split"] == split


def test_config_echo_reruns_identically(tmp_path, monkeypatch, synth_run):
    """The echoed config in a run dir drives an identical re-run, also when
    the STAR stack is a directory relative to the config file."""
    for name, scfg in [("random", {"k": 4, "sigma": 1.0}),
                       ("stack", {"k": 6, "stack": "synth/stack"})]:
        cfg = write_yaml(tmp_path / f"{name}.yaml", {
            "seed": 5, "synth": {"kind": "star", "length": 40, "p": 1, "eta": 1, **scfg}})
        runs = tmp_path / "runs" / name
        echoed = run_twice(monkeypatch, "synth", cfg, runs, relative_c=False)
        if name == "stack":
            assert echoed["synth"]["stack"] == str(synth_run / "stack")
        assert ((runs / "first" / "panel.csv").read_bytes()
                == (runs / "again" / "panel.csv").read_bytes())


def test_output_dir_is_relative_to_config(tmp_path, monkeypatch):
    """``output_dir`` resolves against the config file's directory, as input
    paths do, so a pipeline of configs runs from any directory; ``--out``
    stays relative to the working directory."""
    cfgs, cwd = tmp_path / "cfgs", tmp_path / "elsewhere"
    cfgs.mkdir()
    cwd.mkdir()
    write_yaml(cfgs / "s.yaml", {
        "seed": 1, "output_dir": "runs/s",
        "synth": {"kind": "star", "k": 4, "length": 40, "p": 1, "eta": 1}})
    write_yaml(cfgs / "f.yaml", {
        "output_dir": "runs/f", "panel": "runs/s/panel.csv", "stacks": {"w": "runs/s/stack"},
        "split": {"t1": 15, "t2": 30}, "fit": {"model": "star", "p": 1, "eta": 1, "stack": "w"}})
    monkeypatch.chdir(cwd)
    assert main(["synth", "-c", "../cfgs/s.yaml"]) == EXIT_OK
    assert main(["fit", "-c", "../cfgs/f.yaml"]) == EXIT_OK
    assert (cfgs / "runs" / "s" / "panel.csv").is_file()
    assert (cfgs / "runs" / "f" / "model.json").is_file()
    assert "output_dir" not in yaml.safe_load((cfgs / "runs" / "f" / "config.yaml").read_text())
    assert list(cwd.iterdir()) == []
    assert main(["fit", "-c", "../cfgs/f.yaml", "--out", "mine"]) == EXIT_OK
    assert (cwd / "mine" / "model.json").is_file()


@pytest.mark.parametrize("route", ["output_dir", "out"])
def test_run_dir_holding_its_own_config_is_config_error(tmp_path, monkeypatch, capsys, route):
    """A run directory whose config.yaml is the config being run, through
    ``output_dir: .`` or an ``--out`` naming the config's directory, would
    have the config overwritten by the echo: exit 1 before anything is written."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text("# keep this comment\nseed: 1\n"
                   f"output_dir: {'.' if route == 'output_dir' else 'runs'}\n"
                   "synth: {kind: star, k: 4, length: 40, p: 1, eta: 1}\n")
    before = cfg.read_bytes()
    monkeypatch.chdir(tmp_path)
    argv = ["synth", "-c", "config.yaml"] + (["--out", "."] if route == "out" else [])
    assert main(argv) == EXIT_CONFIG
    assert "echo would overwrite it" in capsys.readouterr().err
    assert cfg.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_run_dir_that_cannot_be_made_is_config_error(tmp_path, capsys, out):
    """An ``--out`` that is a file, or lies under one, names the run
    directory in a config error rather than ending in a traceback."""
    (tmp_path / "file").write_text("keep\n")
    cfg = write_yaml(tmp_path / "s.yaml", {
        "seed": 1, "synth": {"kind": "star", "k": 4, "length": 40, "p": 1, "eta": 1}})
    assert main(["synth", "-c", str(cfg), "--out", str(tmp_path / out)]) == EXIT_CONFIG
    assert f"config error: cannot make run directory {tmp_path / out}" in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == "keep\n"
