import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from stardemand import ingest as ingest_mod
from stardemand.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from stardemand.estimators import read_model_json
from stardemand.panel import read_panel_csv

from conftest import replace_first_cell


def write_yaml(path: Path, cfg: dict) -> Path:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return path


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
    def test_echoed_config_reruns_identically(self, tmp_path, wcfg):
        # relative inputs are echoed resolved, under the key they were read from
        (tmp_path / "zones.csv").write_text("zone_id,lon,lat\nA,0,0\nB,1,0\nC,3,0\n")
        (tmp_path / "zones.geojson").write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{"type": "Feature", "properties": {"zone_id": zid},
                          "geometry": {"type": "Polygon", "coordinates": [
                              [[x, 0], [x + 1, 0], [x + 1, 1], [x, 1], [x, 0]]]}}
                         for zid, x in (("A", 0), ("B", 1), ("C", 2))],
        }))
        (tmp_path / "adj.csv").write_text("zone_a,zone_b\nA,B\nB,C\n")
        out1, out2 = tmp_path / "runs" / "w1", tmp_path / "runs" / "w2"
        cfg = write_yaml(tmp_path / "w.yaml", {"output_dir": str(out1),
                                               "weights": {"eta_max": 2, **wcfg}})
        assert main(["weights", "-c", str(cfg)]) == EXIT_OK
        echoed = yaml.safe_load((out1 / "config.yaml").read_text())["weights"]
        assert echoed == {"eta_max": 2, "scheme": wcfg["scheme"],
                          **{k: str(tmp_path / v) for k, v in wcfg.items() if k != "scheme"}}
        assert main(["weights", "-c", str(out1 / "config.yaml"), "--out", str(out2)]) == EXIT_OK
        files = sorted(f.name for f in (out1 / "stack").iterdir())
        assert files == sorted(f.name for f in (out2 / "stack").iterdir())
        for name in files:
            assert (out1 / "stack" / name).read_bytes() == (out2 / "stack" / name).read_bytes()

    def test_unknown_scheme_is_config_error(self, tmp_path):
        zones = tmp_path / "zones.csv"
        zones.write_text("zone_id,lon,lat\nA,0,0\n")
        cfg = write_yaml(tmp_path / "w.yaml", {
            "output_dir": str(tmp_path / "w"),
            "weights": {"scheme": "voronoi", "eta_max": 1, "zones_csv": str(zones)},
        })
        assert main(["weights", "-c", str(cfg)]) == EXIT_CONFIG


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
    def test_echoed_config_reruns_identically(self, tmp_path, day_range):
        self._trips(tmp_path)
        out1 = tmp_path / "runs" / "i1"
        cfg = write_yaml(tmp_path / "i.yaml", {
            "output_dir": str(out1),
            "ingest": {"trips": "trips.csv", "zones_csv": "zones.csv",
                       "timestamp_format": "%m/%d/%Y %H:%M:%S", "assign_policy": "nearest",
                       **day_range},
        })
        assert main(["ingest", "-c", str(cfg)]) == EXIT_OK
        echoed = yaml.safe_load((out1 / "config.yaml").read_text())["ingest"]
        assert echoed["zones_csv"] == str(tmp_path / "zones.csv") and "zones" not in echoed
        out2 = tmp_path / "runs" / "i2"
        assert main(["ingest", "-c", str(out1 / "config.yaml"), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()

    def test_no_trips_is_data_error(self, tmp_path):
        trips = tmp_path / "trips.csv"
        trips.write_text("Date/Time,Lat,Lon\nbad,0,0\n")
        zones = tmp_path / "zones.csv"
        zones.write_text("zone_id,lon,lat\nA,0,0\n")
        cfg = write_yaml(tmp_path / "i.yaml", {
            "output_dir": str(tmp_path / "out"),
            "ingest": {"trips": str(trips), "zones_csv": str(zones)},
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
    ], ids=["bin_str", "bin_7", "bin_0", "range_one", "range_reversed", "range_part_bin",
            "range_str", "parse_lenient", "assign_closest", "columns_list"])
    def test_bad_setting_is_config_error(self, tmp_path, monkeypatch, setting):
        trips, zones = self._trips(tmp_path)
        cfg = write_yaml(tmp_path / "i.yaml", {
            "output_dir": str(tmp_path / "out"),
            "ingest": {"trips": str(trips), "zones_csv": str(zones), **setting},
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
        model = read_model_json(out / "model.json")
        assert model.coefficients.shape == (6, 2)
        echoed = yaml.safe_load((out / "config.yaml").read_text())["lasso"]
        assert echoed["n_lambdas"] == 10 and echoed["refit_after_tuning"] is True
        curve = json.loads((out / "lambda_curve.json").read_text())
        assert curve["lambda"] >= 0 and len(curve["curve"]) >= 10

    def test_var_fit(self, tmp_path, synth_run):
        out = tmp_path / "fitvar"
        cfg = write_yaml(tmp_path / "fv.yaml", {
            "output_dir": str(out),
            "panel": str(synth_run / "panel.csv"),
            "split": {"t1": 30, "t2": 60},
            "fit": {"model": "var", "p": 2},
        })
        assert main(["fit", "-c", str(cfg)]) == EXIT_OK
        model = read_model_json(out / "model.json")
        assert model.p == 2 and len(model.lag_matrices) == 2

    @pytest.mark.parametrize("kind", ["var", "star", "lasso_star"])
    def test_echoed_config_reruns_identically(self, tmp_path, synth_run, kind):
        # panel and stacks relative to the config file
        out1 = tmp_path / "runs" / "f1"
        cfg = write_yaml(tmp_path / "f.yaml", {
            "output_dir": str(out1),
            "panel": "synth/panel.csv",
            "stacks": {"rings": "synth/stack"},
            "split": {"t1": 30, "t2": 60},
            "lasso": {"n_lambdas": 10, "refit_after_tuning": False},
            "fit": {"model": kind, "p": 1, "eta": 2, "stack": "rings"},
        })
        assert main(["fit", "-c", str(cfg)]) == EXIT_OK
        echoed = yaml.safe_load((out1 / "config.yaml").read_text())
        assert echoed["panel"] == str(synth_run / "panel.csv")
        assert echoed.get("stacks") == (None if kind == "var" else
                                        {"rings": str(synth_run / "stack")})
        out2 = tmp_path / "runs" / "f2"
        assert main(["fit", "-c", str(out1 / "config.yaml"), "--out", str(out2)]) == EXIT_OK
        names = ["model.json"] + (["lambda_curve.json"] if kind == "lasso_star" else [])
        assert sorted(json.loads((out2 / "manifest.json").read_text())["outputs"]) == \
            sorted(names + ["config.yaml"])
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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

    def test_echoed_config_reruns_identically(self, tmp_path, synth_run):
        lasso = {"grid": [1.0, 0.1, 0.01], "include_zero": False,
                 "refit_after_tuning": False}
        cfg = write_yaml(tmp_path / "g.yaml", {
            "output_dir": str(tmp_path / "r1"),
            "panel": str(synth_run / "panel.csv"),
            "stacks": {"rings": str(synth_run / "stack")},
            "split": {"t1": 30, "t2": 60},
            "timings": False,
            "lasso": lasso,
            "grid": {"models": ["lasso_star"], "p": [1, 2], "eta": [1, 2],
                     "include_var": False},
        })
        assert main(["grid", "-c", str(cfg)]) == EXIT_OK
        echoed = tmp_path / "r1" / "config.yaml"
        assert yaml.safe_load(echoed.read_text())["lasso"] == {
            **lasso, "n_lambdas": 50, "lambda_min_ratio": 1e-4}
        assert main(["grid", "-c", str(echoed), "--out", str(tmp_path / "r2")]) == EXIT_OK
        assert ((tmp_path / "r1" / "reports.csv").read_bytes()
                == (tmp_path / "r2" / "reports.csv").read_bytes())

    @pytest.mark.parametrize("cell", ["nan", "abc"])
    def test_bad_stack_cell_is_data_error(self, tmp_path, synth_run, cell):
        replace_first_cell(synth_run / "stack" / "w1.csv", cell)
        cfg = self._config(tmp_path, synth_run, tmp_path / "grid", timings=False)
        assert main(["grid", "-c", str(cfg)]) == EXIT_DATA
        assert not (tmp_path / "grid").exists()


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

    @pytest.mark.parametrize("command,section,key", [
        ("fit", None, "panel"),
        ("weights", "weights", "zones"),
        ("weights", "weights", "zones_csv"),
        ("weights", "weights", "adjacency"),
        ("ingest", "ingest", "trips"),
    ], ids=["panel", "zones", "zones_csv", "adjacency", "trips"])
    def test_unreadable_input_is_data_error(self, tmp_path, capsys, command, section, key):
        zones = tmp_path / "zones.csv"
        zones.write_text("zone_id,lon,lat\nA,0,0\nB,1,0\n")
        (tmp_path / "adj.csv").write_text("A,B\n")
        (tmp_path / "trips.csv").write_text("Date/Time,Lat,Lon\n4/1/2014 0:05:00,0,0\n")
        (tmp_path / "panel.csv").write_text("zone_id,bin_0,bin_1,bin_2\nA,1,2,3\n")
        cfg = {
            "output_dir": str(tmp_path / "out"),
            "panel": str(tmp_path / "panel.csv"), "split": {"t1": 1, "t2": 2},
            "fit": {"model": "var", "p": 1},
            "weights": {"scheme": "adjacency", "eta_max": 2, "zones_csv": str(zones),
                        "adjacency": str(tmp_path / "adj.csv")},
            "ingest": {"trips": str(tmp_path / "trips.csv"), "zones_csv": str(zones)},
        }
        (cfg[section] if section else cfg)[key] = str(tmp_path / "missing" / key)
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
    ], ids=["min_ratio_0", "n_lambdas_0", "grid_str", "grid_empty", "include_zero_str",
            "refit_str"])
    def test_bad_lasso_value(self, tmp_path, synth_run, command, lasso):
        cfg = self._config(tmp_path, synth_run, lasso=lasso)
        assert main([command, "-c", str(cfg)]) == EXIT_CONFIG
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
    ], ids=["t_end_past_panel", "t2_str", "t1_after_t2", "t1_zero", "t_end_at_t2",
            "fraction_above_1", "not_mapping"])
    def test_bad_split(self, tmp_path, synth_run, command, split):
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
    ], ids=["timings_str", "include_var_str", "standardize_str-grid", "standardize_str-fit",
            "grid_p_str", "grid_eta_str", "grid_p_0", "grid_p_scalar", "fit_p_str",
            "fit_eta_str"])
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
        ("var", "lag_matrices", [[[0.5, "x"], [0.1, 0.4]]]),
        ("var", "lag_matrices", [[[0.5], [0.1, 0.4]]]),
        ("var", "lag_matrices", 0.5),
    ], ids=["coefficients_str", "intercept_str", "lag_matrices_str", "lag_matrices_ragged",
            "lag_matrices_scalar"])
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
    ], ids=["lasso", "split", "grid", "fit", "synth", "ingest", "ingest_columns", "weights",
            "tolerance-grid", "tolerance-fit", "max_sweeps-grid", "max_sweeps-fit"])
    def test_unknown_key(self, tmp_path, synth_run, capsys, command, section, key, value):
        # the retired solver keys tolerance and max_sweeps are unknown keys too
        cfg = yaml.safe_load(self._config(tmp_path, synth_run).read_text())
        cfg["synth"] = {"kind": "star", "k": 4, "length": 40, "p": 1, "eta": 1}
        cfg["ingest"] = {"trips": "trips.csv", "zones_csv": "zones.csv", "columns": {}}
        cfg["weights"] = {"scheme": "centroid", "eta_max": 2, "zones_csv": "zones.csv"}
        node = cfg
        for part in section.split("."):
            node = node[part]
        node[key] = value
        assert main([command, "-c", str(write_yaml(tmp_path / "c.yaml", cfg))]) == EXIT_CONFIG
        assert f"unknown key(s) in {section}: {key}" in capsys.readouterr().err
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


def test_config_echo_reruns_identically(tmp_path):
    """The echoed config in a run dir drives an identical re-run."""
    out1 = tmp_path / "r1"
    cfg = write_yaml(tmp_path / "s.yaml", {
        "seed": 5, "output_dir": str(out1),
        "synth": {"kind": "star", "k": 4, "length": 40, "sigma": 1.0,
                  "p": 1, "eta": 1},
    })
    assert main(["synth", "-c", str(cfg)]) == EXIT_OK
    echoed = yaml.safe_load((out1 / "config.yaml").read_text())
    out2 = tmp_path / "r2"
    echoed["output_dir"] = str(out2)
    cfg2 = write_yaml(tmp_path / "s2.yaml", echoed)
    assert main(["synth", "-c", str(cfg2)]) == EXIT_OK
    assert (out1 / "panel.csv").read_bytes() == (out2 / "panel.csv").read_bytes()
