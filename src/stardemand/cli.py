"""Config-driven command line front end.

Subcommands: ingest, weights, fit, grid, synth. Each reads a YAML config
(plus a few flag overrides), writes its outputs under a single run
directory with a manifest, and echoes the defaults-resolved config so a
run can be reproduced from its own output.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import yaml

from . import estimators, forecast, ingest, panel as panel_mod, synth, weights
from .errors import ConfigError, DataError, NumericalError
from .estimators import LassoConfig
from .forecast import MODEL_LASSO_STAR, MODEL_STAR, MODEL_VAR, ScenarioConfig, ScenarioGrid
from .panel import ModelOrder, SplitSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML in {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return cfg


def _resolve_path(cfg_path, value) -> Path:
    p = Path(value)
    if not p.is_absolute():
        p = Path(cfg_path).parent / p
    return p


# the keys each config section may hold
SECTION_KEYS = {
    "ingest": ("trips", "zones", "zones_csv", "columns", "timestamp_format", "bin_minutes",
               "parse_policy", "assign_policy", "day_range"),
    "ingest.columns": ("time", "lat", "lon"),
    "weights": ("scheme", "eta_max", "zones", "zones_csv", "adjacency"),
    "split": ("t1", "t2", "t_end", "t2_fraction", "t1_fraction_of_t2"),
    "lasso": ("n_lambdas", "lambda_min_ratio", "include_zero", "grid", "refit_after_tuning"),
    "fit": ("model", "p", "eta", "stack"),
    "grid": ("models", "p", "eta", "include_var"),
    "synth": ("kind", "k", "length", "sigma", "burn_in", "require_stable", "seed", "p", "eta",
              "stack", "eta_max", "coefficients", "density", "target_radius", "intercept",
              "lag_matrices"),
}


def _section(cfg: dict, name: str, required: bool = False) -> dict:
    """The mapping at the dotted ``name`` below ``cfg``, ``{}`` if absent and
    not required; a non-mapping or a key outside SECTION_KEYS[name] is a
    config error."""
    where, _, key = name.rpartition(".")
    section = _require(cfg, key, where) if required else cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a mapping, got {section!r}")
    unknown = sorted(str(k) for k in section if k not in SECTION_KEYS[name])
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    return section


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing config key {where}.{key}" if where else
                          f"missing config key {key}")
    return cfg[key]


class RunDir:
    """Output directory with a manifest and an effective-config echo."""

    def __init__(self, path, command: str, effective_config: dict):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.outputs: list[str] = []
        self.command = command
        with open(self.path / "config.yaml", "w") as fh:
            yaml.safe_dump(effective_config, fh, sort_keys=True)

    def file(self, name: str) -> Path:
        self.outputs.append(name)
        return self.path / name

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "outputs": sorted(set(self.outputs + ["config.yaml"])),
        }
        with open(self.path / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")


def _load_zones(cfg: dict, cfg_path, where: str):
    if "zones" in cfg:
        zones = ingest.load_zones_geojson(_resolve_path(cfg_path, cfg["zones"]))
    elif "zones_csv" in cfg:
        zones = ingest.load_zones_centroid_csv(_resolve_path(cfg_path, cfg["zones_csv"]))
    else:
        raise ConfigError(f"{where}: need zones (GeoJSON) or zones_csv (centroids)")
    return sorted(zones, key=lambda z: z.zone_id)


def _parse_dt(s: str) -> datetime:
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d"):
        try:
            return datetime.strptime(s, fmt)
        except ValueError:
            continue
    raise ConfigError(f"unparsable timestamp {s!r} (use YYYY-MM-DD [HH:MM[:SS]])")


# -- subcommands --------------------------------------------------------

def _ingest_from_config(icfg: dict):
    """Trip format, parse and assign policies, bin width and day range of an
    ``ingest:`` mapping, checked before any trip is read."""
    cols = _section(icfg, "ingest.columns")
    fmt = ingest.TripFormat(
        time_column=cols.get("time", "Date/Time"),
        lat_column=cols.get("lat", "Lat"),
        lon_column=cols.get("lon", "Lon"),
        timestamp_format=icfg.get("timestamp_format", ingest.DEFAULT_TS_FORMAT),
    )
    parse_policy = icfg.get("parse_policy", ingest.POLICY_SKIP)
    if parse_policy not in ingest.PARSE_POLICIES:
        raise ConfigError(f"ingest.parse_policy {parse_policy!r} must be one of "
                          f"{', '.join(ingest.PARSE_POLICIES)}")
    assign_policy = icfg.get("assign_policy", ingest.POLICY_DROP)
    if assign_policy not in ingest.ASSIGN_POLICIES:
        raise ConfigError(f"ingest.assign_policy {assign_policy!r} must be one of "
                          f"{', '.join(ingest.ASSIGN_POLICIES)}")
    bin_minutes = _number(icfg.get("bin_minutes", 15), "ingest.bin_minutes")
    day_range = None
    if "day_range" in icfg:
        bounds = icfg["day_range"]
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ConfigError(f"ingest.day_range must be a [start, end] pair, got {bounds!r}")
        day_range = (_parse_dt(str(bounds[0])), _parse_dt(str(bounds[1])))
    try:
        ingest.check_bin_minutes(bin_minutes)
        if day_range is not None:
            ingest.count_bins(*day_range, bin_minutes)
    except DataError as e:
        raise ConfigError(f"ingest: {e}") from None
    return fmt, parse_policy, assign_policy, bin_minutes, day_range


def cmd_ingest(args) -> int:
    cfg = load_config(args.config)
    icfg = _section(cfg, "ingest", required=True)
    out_dir = args.out or _require(cfg, "output_dir", "")
    trips_path = _resolve_path(args.config, _require(icfg, "trips", "ingest"))
    fmt, parse_policy, assign_policy, bin_minutes, day_range = _ingest_from_config(icfg)
    zones = _load_zones(icfg, args.config, "ingest")

    effective = {
        "command": "ingest",
        "seed": cfg.get("seed", 0),
        "ingest": {
            "trips": str(trips_path),
            "zones": icfg.get("zones", icfg.get("zones_csv")),
            "columns": {"time": fmt.time_column, "lat": fmt.lat_column, "lon": fmt.lon_column},
            "timestamp_format": fmt.timestamp_format,
            "bin_minutes": bin_minutes,
            "parse_policy": parse_policy,
            "assign_policy": assign_policy,
            "day_range": [str(d) for d in day_range] if day_range else None,
        },
    }
    report = ingest.IngestReport()
    trips = ingest.parse_trips(trips_path, fmt, policy=parse_policy, report=report)
    run = RunDir(out_dir, "ingest", effective)
    if not trips:
        report.write_json(run.file("ingest_report.json"))
        run.finish()
        raise DataError("no trips parsed")
    out_panel = ingest.bin_counts(
        trips, zones, bin_minutes=bin_minutes, day_range=day_range,
        assign_policy=assign_policy, report=report,
    )
    panel_mod.write_panel_csv(out_panel, run.file("panel.csv"))
    report.write_json(run.file("ingest_report.json"))
    run.finish()
    print(f"panel: {out_panel.k} zones x {out_panel.T} bins; "
          f"assigned {report.assigned}, dropped "
          f"{report.dropped_parse + report.dropped_outside_range + report.dropped_unassigned}")
    return EXIT_OK


def cmd_weights(args) -> int:
    cfg = load_config(args.config)
    wcfg = _section(cfg, "weights", required=True)
    out_dir = args.out or _require(cfg, "output_dir", "")
    scheme = _require(wcfg, "scheme", "weights")
    eta_max = _number(_require(wcfg, "eta_max", "weights"), "weights.eta_max", minimum=1)

    if scheme == weights.SCHEME_CENTROID:
        zones = _load_zones(wcfg, args.config, "weights")
        stack = weights.centroid_rings(zones, eta_max)
    elif scheme == weights.SCHEME_ADJACENCY:
        zones = _load_zones(wcfg, args.config, "weights")
        zone_ids = [z.zone_id for z in zones]
        adj_path = _resolve_path(args.config, _require(wcfg, "adjacency", "weights"))
        graph = weights.read_adjacency_csv(adj_path, zone_ids)
        stack = weights.adjacency_rings(graph, eta_max)
    else:
        raise ConfigError(f"unknown weight scheme {scheme!r}")

    effective = {"command": "weights", "weights": {
        "scheme": scheme, "eta_max": eta_max,
        "zones": wcfg.get("zones", wcfg.get("zones_csv")),
        "adjacency": wcfg.get("adjacency"),
    }}
    run = RunDir(out_dir, "weights", effective)
    stack_dir = run.path / "stack"
    weights.write_stack(stack, stack_dir)
    run.outputs.append("stack")
    checks = weights.validate_stack(stack)
    with open(run.file("stack_checks.json"), "w") as fh:
        json.dump(checks, fh, indent=2)
        fh.write("\n")
    run.finish()
    failed = [c for c in checks if not c["ok"]]
    if failed:
        raise NumericalError(f"stack validation failed: {failed}")
    print(f"stack: scheme={scheme} eta_max={eta_max} k={stack.k} -> {stack_dir}")
    return EXIT_OK


def _load_panel(cfg: dict, cfg_path) -> tuple[panel_mod.DemandPanel, SplitSpec]:
    """The configured panel and its split; with ``standardize: true`` the
    panel is standardized by its statistics over the training bins [0, t1)."""
    pn = panel_mod.read_panel_csv(_resolve_path(cfg_path, _require(cfg, "panel", "")))
    spl = _split_from_config(cfg, pn)
    if _flag(cfg, "standardize", False, ""):
        pn, _ = panel_mod.standardize(pn, (0, spl.t1))
    return pn, spl


def _load_stacks(cfg: dict, cfg_path) -> dict[str, weights.WeightStack]:
    stacks_cfg = _require(cfg, "stacks", "")
    return {name: weights.read_stack(_resolve_path(cfg_path, p))
            for name, p in stacks_cfg.items()}


def _split_from_config(cfg: dict, pn: panel_mod.DemandPanel) -> SplitSpec:
    scfg = _section(cfg, "split")
    try:
        if "t2" not in scfg:
            return panel_mod.split(
                pn, _number(scfg.get("t2_fraction", 2 / 3), "split.t2_fraction", float),
                _number(scfg.get("t1_fraction_of_t2", 0.5), "split.t1_fraction_of_t2", float))
        t2 = _number(scfg["t2"], "split.t2")
        t_end = _number(scfg.get("t_end", pn.T), "split.t_end")
        t1 = _number(scfg.get("t1", (t2 + 1) // 2), "split.t1")
        if t_end > pn.T:
            raise ConfigError(f"split.t_end={t_end} runs past the panel's {pn.T} bins")
        return SplitSpec(t1=t1, t2=t2, t_end=t_end)
    except DataError as e:
        raise ConfigError(f"split: {e}") from None


def _flag(cfg: dict, key: str, default: bool, where: str) -> bool:
    """A boolean config value; quoted strings such as "no" are rejected."""
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        name = f"{where}.{key}" if where else key
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _number(value, name: str, kind=int, minimum=None):
    """A numeric config value read by ``kind`` (int or float); a boolean,
    a value ``kind`` cannot read and one below ``minimum`` are rejected."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from None
    if minimum is not None and not number >= minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return number


def _numbers(values, name: str, kind=int, minimum=None) -> tuple:
    """A non-empty config list of numbers, each read by :func:`_number`."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{name} must be a non-empty list, got {values!r}")
    return tuple(_number(v, name, kind, minimum) for v in values)


def _array(value, name: str, ndim: int) -> np.ndarray:
    """A config value of ``ndim`` levels of nested lists of numbers, as floats."""
    try:
        array = np.array(value, dtype=float)
        if array.ndim == ndim:
            return array
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name} must be {ndim} levels of nested lists of numbers, got {value!r}")


def _lasso_from_config(cfg: dict) -> tuple[LassoConfig, bool]:
    lcfg = _section(cfg, "lasso")
    grid = lcfg.get("grid")
    lasso = LassoConfig(
        n_lambdas=_number(lcfg.get("n_lambdas", 50), "lasso.n_lambdas"),
        lambda_min_ratio=_number(lcfg.get("lambda_min_ratio", 1e-4), "lasso.lambda_min_ratio",
                                 float),
        include_zero=_flag(lcfg, "include_zero", True, "lasso"),
        explicit_grid=None if grid is None else _numbers(grid, "lasso.grid", float),
    )
    return lasso, _flag(lcfg, "refit_after_tuning", True, "lasso")


def _lasso_echo(lasso: LassoConfig, refit: bool) -> dict:
    """The resolved ``lasso:`` mapping, in the keys ``_lasso_from_config`` reads."""
    grid = lasso.explicit_grid
    return {"n_lambdas": lasso.n_lambdas, "lambda_min_ratio": lasso.lambda_min_ratio,
            "include_zero": lasso.include_zero, "grid": list(grid) if grid is not None else None,
            "refit_after_tuning": refit}


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    fcfg = _section(cfg, "fit", required=True)
    out_dir = args.out or _require(cfg, "output_dir", "")
    pn, spl = _load_panel(cfg, args.config)
    kind = _require(fcfg, "model", "fit")
    if kind not in (MODEL_VAR, MODEL_STAR, MODEL_LASSO_STAR):
        raise ConfigError(f"unknown model kind {kind!r}")
    p = _number(_require(fcfg, "p", "fit"), "fit.p", minimum=1)
    lasso, refit = _lasso_from_config(cfg)
    stack, eta = None, 1
    if kind != MODEL_VAR:
        eta = _number(_require(fcfg, "eta", "fit"), "fit.eta", minimum=1)
        stacks = _load_stacks(cfg, args.config)
        stack_name = _require(fcfg, "stack", "fit")
        if stack_name not in stacks:
            raise ConfigError(f"fit.stack {stack_name!r} not in stacks")
        stack = stacks[stack_name]

    effective = {"command": "fit", "fit": dict(fcfg),
                 "split": {"t1": spl.t1, "t2": spl.t2, "t_end": spl.t_end},
                 "lasso": _lasso_echo(lasso, refit),
                 "standardize": cfg.get("standardize", False)}
    run = RunDir(out_dir, "fit", effective)

    model, curve = forecast.fit_scenario_model(
        pn, stack, kind, ModelOrder(p=p, eta=eta), spl,
        ScenarioConfig(lasso=lasso, refit_after_tuning=refit))
    if curve is not None:
        with open(run.file("lambda_curve.json"), "w") as fh:
            json.dump({"lambda": model.lambda_,
                       "curve": [[l, m] for l, m in curve]}, fh, indent=2)
            fh.write("\n")
    estimators.write_model_json(model, run.file("model.json"))
    run.finish()
    print(f"fitted {kind} (p={p}) -> {run.path / 'model.json'}")
    return EXIT_OK


def cmd_grid(args) -> int:
    cfg = load_config(args.config)
    gcfg = _section(cfg, "grid", required=True)
    out_dir = args.out or _require(cfg, "output_dir", "")
    pn, spl = _load_panel(cfg, args.config)
    stacks = _load_stacks(cfg, args.config)
    lasso, refit = _lasso_from_config(cfg)

    models = tuple(gcfg.get("models", [MODEL_STAR, MODEL_LASSO_STAR]))
    for m in models:
        if m not in (MODEL_STAR, MODEL_LASSO_STAR):
            raise ConfigError(f"grid.models entry {m!r} must be star or lasso_star")
    p_values = _numbers(gcfg.get("p", [1, 2, 3, 4]), "grid.p", minimum=1)
    eta_values = _numbers(gcfg.get("eta", [1, 2, 3, 4, 5, 6]), "grid.eta", minimum=1)
    include_var = _flag(gcfg, "include_var", True, "grid")
    timings = _flag(cfg, "timings", True, "")

    grid = ScenarioGrid(
        p_values=p_values,
        eta_values=eta_values,
        stacks=tuple(stacks[name] for name in sorted(stacks)),
        model_kinds=models,
        include_var=include_var,
        split=spl,
        config=ScenarioConfig(lasso=lasso, refit_after_tuning=refit),
    )

    effective = {
        "command": "grid", "seed": cfg.get("seed", 0),
        "panel": str(_resolve_path(args.config, cfg["panel"])),
        "stacks": {n: str(_resolve_path(args.config, p)) for n, p in cfg["stacks"].items()},
        "split": {"t1": spl.t1, "t2": spl.t2, "t_end": spl.t_end},
        "standardize": cfg.get("standardize", False),
        "timings": timings,
        "grid": {"models": list(models), "p": list(p_values),
                 "eta": list(eta_values), "include_var": include_var},
        "lasso": _lasso_echo(lasso, refit),
    }
    run = RunDir(out_dir, "grid", effective)

    reports = forecast.run_grid(pn, grid, jobs=args.jobs)
    forecast.reports_to_csv(reports, run.file("reports.csv"), include_seconds=timings)
    table = forecast.render_table(reports)
    with open(run.file("table.txt"), "w") as fh:
        fh.write(table)
    run.finish()
    print(table, end="")
    ok = [r for r in reports if r.error is None]
    failed = [r for r in reports if r.error is not None]
    if failed:
        print(f"{len(failed)} scenario(s) failed:", file=sys.stderr)
        for r in failed:
            print(f"  {r.model} p={r.p} eta={r.eta} scheme={r.scheme}: {r.error}",
                  file=sys.stderr)
    if not ok:
        raise NumericalError("every scenario failed")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    scfg = _section(cfg, "synth", required=True)
    out_dir = args.out or _require(cfg, "output_dir", "")
    seed = _number(cfg.get("seed", scfg.get("seed", 0)), "seed")
    kind = _require(scfg, "kind", "synth")
    k = _number(_require(scfg, "k", "synth"), "synth.k", minimum=1)
    length = _number(_require(scfg, "length", "synth"), "synth.length", minimum=1)
    sigma = _number(scfg.get("sigma", 1.0), "synth.sigma", float)
    burn_in = _number(scfg.get("burn_in", 50), "synth.burn_in", minimum=0)
    require_stable = _flag(scfg, "require_stable", False, "synth")

    if kind == synth.KIND_STAR:
        p = _number(_require(scfg, "p", "synth"), "synth.p", minimum=1)
        eta = _number(_require(scfg, "eta", "synth"), "synth.eta", minimum=1)
        order = ModelOrder(p=p, eta=eta)
        if "stack" in scfg and scfg["stack"] != "random":
            stack = weights.read_stack(_resolve_path(args.config, scfg["stack"]))
        else:
            eta_max = _number(scfg.get("eta_max", eta), "synth.eta_max", minimum=1)
            stack = synth.random_centroid_stack(k, eta_max, seed)
        if "coefficients" in scfg:
            spec = synth.ProcessSpec(
                kind=synth.KIND_STAR, k=k, length=length, sigma=sigma, seed=seed,
                initial=np.zeros((k, p)), order=order,
                star_coefficients=_array(scfg["coefficients"], "synth.coefficients", 2),
                burn_in=burn_in, require_stable=require_stable,
            )
        else:
            spec = synth.random_sparse_star_spec(
                k, order, stack, sigma=sigma, length=length, seed=seed,
                density=_number(scfg.get("density", 0.5), "synth.density", float),
                target_radius=_number(scfg.get("target_radius", 0.7), "synth.target_radius",
                                      float),
                burn_in=burn_in,
            )
        out_panel = synth.gen_star_process(spec, stack)
        truth = {"kind": "star", "p": p, "eta": eta, "sigma": sigma,
                 "coefficients": spec.star_coefficients.tolist()}
    elif kind == synth.KIND_VAR:
        intercept = _array(scfg.get("intercept", [0.0] * k), "synth.intercept", 1)
        mats = tuple(_array(_require(scfg, "lag_matrices", "synth"), "synth.lag_matrices", 3))
        spec = synth.ProcessSpec(
            kind=synth.KIND_VAR, k=k, length=length, sigma=sigma, seed=seed,
            initial=np.zeros((k, len(mats))),
            var_intercept=intercept, var_lag_matrices=mats,
            burn_in=burn_in, require_stable=require_stable,
        )
        out_panel = synth.gen_var_process(spec)
        truth = {"kind": "var", "p": len(mats), "sigma": sigma,
                 "intercept": intercept.tolist(),
                 "lag_matrices": [m.tolist() for m in mats]}
    else:
        raise ConfigError(f"unknown synth kind {kind!r}")

    run = RunDir(out_dir, "synth", {"command": "synth", "seed": seed, "synth": dict(scfg)})
    if kind == synth.KIND_STAR:
        weights.write_stack(stack, run.path / "stack")
        run.outputs.append("stack")
    with open(run.file("truth.json"), "w") as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")
    panel_mod.write_panel_csv(out_panel, run.file("panel.csv"))
    run.finish()
    print(f"synthetic panel: {out_panel.k} zones x {out_panel.T} bins -> "
          f"{run.path / 'panel.csv'}")
    return EXIT_OK


# -- entry point --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stardemand",
        description="Zone-level demand forecasting with VAR / STAR / LASSO-STAR",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, helptext in [
        ("ingest", cmd_ingest, "bin raw trips into a demand panel"),
        ("weights", cmd_weights, "build a neighborhood weight stack"),
        ("fit", cmd_fit, "fit a single model and write it as JSON"),
        ("grid", cmd_grid, "run the scenario grid and render the MSPE table"),
        ("synth", cmd_synth, "generate a synthetic panel from a known process"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("-c", "--config", required=True, help="YAML config file")
        p.add_argument("--out", help="output directory (overrides config output_dir)")
        if name == "grid":
            p.add_argument("--jobs", type=int, default=1, help="worker count")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
