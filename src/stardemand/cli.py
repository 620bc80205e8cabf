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
import math
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import yaml

from . import estimators, forecast, ingest, panel as panel_mod, synth, weights
from .errors import ConfigError, DataError, NumericalError, write_json
from .estimators import LassoConfig
from .forecast import MODEL_LASSO_STAR, MODEL_STAR, MODEL_VAR, ScenarioGrid
from .panel import ModelOrder, SplitSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


def load_config(path) -> dict:
    try:
        # read as bytes, so that an undecodable byte is a YAMLError
        with open(path, "rb") as fh:
            cfg = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML in {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return cfg


# the keys each config section may hold; "" is the top level, where a run's
# config.yaml echo also holds its command
SECTION_KEYS = {
    "": ("output_dir", "panel", "stacks", "split", "standardize", "lasso", "timings", "seed",
         "ingest", "weights", "fit", "grid", "synth", "command"),
    "ingest": ("trips", "zones", "zones_csv", "columns", "timestamp_format", "bin_minutes",
               "parse_policy", "assign_policy", "day_range"),
    "ingest.columns": ("time", "lat", "lon"),
    "weights": ("scheme", "eta_max", "zones", "zones_csv", "adjacency"),
    "split": ("t1", "t2", "t_end"),
    "lasso": ("n_lambdas", "lambda_min_ratio", "include_zero", "grid", "refit_after_tuning"),
    "fit": ("model", "p", "eta", "stack"),
    "grid": ("models", "p", "eta", "include_var"),
    "synth": ("kind", "k", "length", "sigma", "burn_in", "require_stable", "p", "eta", "stack",
              "eta_max", "coefficients", "density", "target_radius", "intercept", "lag_matrices"),
}

_REQUIRED = object()


def _number(value, name: str, kind=int, minimum=None):
    """A numeric config value as ``kind`` (int or float). A boolean, a
    string, a NaN or infinity, an int too large for a float where ``kind``
    is float, a fraction where ``kind`` is int and a value below ``minimum``
    are rejected; an integral float such as 2.0 reads as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not math.isfinite(value)) or (
            kind is int and not (isinstance(value, int) or value.is_integer())):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a finite number'}, "
                          f"got {value!r}")
    try:
        number = kind(value)
    except OverflowError:       # an int too large for a float
        raise ConfigError(f"{name} must be a finite number, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return number


class Section:
    """One config mapping, read through typed getters that check each value
    and record it, resolved, under its key in ``echo``: a run echoes exactly
    what it read. A section named in SECTION_KEYS rejects any other key."""

    def __init__(self, values: dict, name: str, cfg_path):
        if name in SECTION_KEYS:
            unknown = sorted(str(k) for k in values if k not in SECTION_KEYS[name])
            if unknown:
                where = f"key(s) in {name}" if name else "top-level key(s)"
                raise ConfigError(f"unknown {where}: {', '.join(unknown)}")
        self.values, self.name, self.cfg_path = values, name, cfg_path
        self.echo: dict = {}

    def _name(self, key) -> str:
        return f"{self.name}.{key}" if self.name else str(key)

    def _keep(self, key, value):
        self.echo[key] = value
        return value

    def raw(self, key, default=_REQUIRED):
        """The value at ``key`` as given, not echoed; required unless defaulted."""
        if key in self.values:
            return self.values[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing config key {self._name(key)}")
        return default

    def number(self, key, default=_REQUIRED, kind=int, minimum=None):
        return self._keep(key, _number(self.raw(key, default), self._name(key), kind, minimum))

    def numbers(self, key, default=_REQUIRED, kind=int, minimum=None) -> tuple | None:
        """A non-empty list of numbers; null where the default is None."""
        values = self.raw(key, default)
        if values is None and default is None:
            return self._keep(key, None)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{self._name(key)} must be a non-empty list, got {values!r}")
        return self._keep(key, tuple(_number(v, self._name(key), kind, minimum) for v in values))

    def flag(self, key, default: bool) -> bool:
        """A boolean; quoted strings such as "no" are rejected."""
        value = self.raw(key, default)
        if not isinstance(value, bool):
            raise ConfigError(f"{self._name(key)} must be true or false, got {value!r}")
        return self._keep(key, value)

    def text(self, key, default=_REQUIRED) -> str:
        value = self.raw(key, default)
        if not isinstance(value, str):
            raise ConfigError(f"{self._name(key)} must be a string, got {value!r}")
        return self._keep(key, value)

    def choice(self, key, allowed, default=_REQUIRED):
        value = self.raw(key, default)
        if value not in allowed:
            raise ConfigError(f"{self._name(key)} {value!r} must be one of "
                              f"{', '.join(map(str, allowed))}")
        return self._keep(key, value)

    def choices(self, key, allowed) -> tuple:
        """A list whose every entry is one of ``allowed``, by default all of them."""
        values = self.raw(key, list(allowed))
        if not isinstance(values, list) or any(v not in allowed for v in values):
            raise ConfigError(f"{self._name(key)} must be a list of {' or '.join(allowed)}, "
                              f"got {values!r}")
        return self._keep(key, tuple(values))

    def array(self, key, ndim: int, default=_REQUIRED) -> np.ndarray:
        """``ndim`` levels of nested lists of unquoted numbers, as floats."""
        value = self.raw(key, default)
        try:
            array = np.array(value)
        except ValueError:
            array = None
        if array is None or array.ndim != ndim or array.dtype.kind not in "iuf":
            raise ConfigError(f"{self._name(key)} must be {ndim} levels of nested lists of "
                              f"numbers, got {value!r}")
        array = array.astype(float)
        self.echo[key] = array.tolist()
        return array

    def path(self, key) -> Path:
        """A file path, relative to the config file unless absolute; resolved to
        an absolute path, so a rerun from the echo reads the same file from anywhere."""
        value = self.raw(key)
        if not isinstance(value, str):
            raise ConfigError(f"{self._name(key)} must be a path, got {value!r}")
        path = (Path(self.cfg_path).parent / value).resolve()
        self.echo[key] = str(path)
        return path

    def section(self, key, required: bool = False) -> Section:
        """The mapping at ``key``, ``{}`` if absent and not required."""
        values = self.raw(key, _REQUIRED if required else {})
        if not isinstance(values, dict):
            raise ConfigError(f"{self._name(key)} must be a mapping, got {values!r}")
        child = Section(values, self._name(key), self.cfg_path)
        self.echo[key] = child.echo
        return child


def _read_config(args, command: str) -> tuple[Section, Section, Path]:
    """The config of ``args.config``, its required ``command:`` section and
    the run directory: ``--out`` (relative to the working directory), else
    ``output_dir`` (relative to the config file, like every input path).
    A run directory whose ``config.yaml`` is the config itself is rejected,
    since the run's echo would overwrite it."""
    cfg = Section(load_config(args.config), "", args.config)
    section = cfg.section(command, required=True)
    if args.out:
        out_dir = Path(args.out)
    else:
        out_dir = cfg.path("output_dir")
        del cfg.echo["output_dir"]     # it names the run directory, so a rerun picks its own
    echo = out_dir / "config.yaml"
    if echo.exists() and echo.samefile(args.config):
        raise ConfigError(f"run directory {out_dir} holds the config {args.config}; "
                          "the run's config.yaml echo would overwrite it")
    return cfg, section, out_dir


class RunDir:
    """Output directory with a manifest and the echo of the config it read.
    A directory that cannot be made, or its echo written, is a config error."""

    def __init__(self, path, command: str, echo: dict):
        self.path = Path(path)
        self.outputs: list[str] = []
        self.command = command
        try:
            self.path.mkdir(parents=True, exist_ok=True)
            with open(self.path / "config.yaml", "w") as fh:
                yaml.safe_dump({"command": command, **echo}, fh, sort_keys=True)
        except OSError as e:
            raise ConfigError(f"cannot make run directory {self.path}: {e}") from None

    def file(self, name: str) -> Path:
        self.outputs.append(name)
        return self.path / name

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "outputs": sorted(set(self.outputs + ["config.yaml"])),
        }
        write_json(self.path / "manifest.json", manifest)


def _load_zones(cfg: Section):
    """The zones sorted by id, from ``zones`` (GeoJSON) else ``zones_csv`` (centroids)."""
    if "zones" in cfg.values:
        path, load = cfg.path("zones"), ingest.load_zones_geojson
    elif "zones_csv" in cfg.values:
        path, load = cfg.path("zones_csv"), ingest.load_zones_centroid_csv
    else:
        raise ConfigError(f"{cfg.name}: need zones (GeoJSON) or zones_csv (centroids)")
    return sorted(load(path), key=lambda z: z.zone_id)


def _parse_dt(s: str) -> datetime:
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d"):
        try:
            return datetime.strptime(s, fmt)
        except ValueError:
            continue
    raise ConfigError(f"unparsable timestamp {s!r} (use YYYY-MM-DD [HH:MM[:SS]])")


# -- subcommands --------------------------------------------------------

def cmd_ingest(args) -> int:
    cfg, icfg, out_dir = _read_config(args, "ingest")
    trips_path = icfg.path("trips")
    cols = icfg.section("columns")
    fmt = ingest.TripFormat(
        time_column=cols.text("time", "Date/Time"),
        lat_column=cols.text("lat", "Lat"),
        lon_column=cols.text("lon", "Lon"),
        timestamp_format=icfg.text("timestamp_format", ingest.DEFAULT_TS_FORMAT),
    )
    parse_policy = icfg.choice("parse_policy", ingest.PARSE_POLICIES, ingest.POLICY_SKIP)
    assign_policy = icfg.choice("assign_policy", ingest.ASSIGN_POLICIES, ingest.POLICY_DROP)
    bin_minutes = icfg.number("bin_minutes", 15)
    day_range = None
    if "day_range" in icfg.values:
        bounds = icfg.raw("day_range")
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ConfigError(f"ingest.day_range must be a [start, end] pair, got {bounds!r}")
        day_range = (_parse_dt(str(bounds[0])), _parse_dt(str(bounds[1])))
        icfg.echo["day_range"] = [str(d) for d in day_range]
    try:
        ingest.check_timestamp_format(fmt.timestamp_format)
        ingest.check_bin_minutes(bin_minutes)
        if day_range is not None:
            ingest.count_bins(*day_range, bin_minutes)
    except DataError as e:
        raise ConfigError(f"ingest: {e}") from None
    zones = _load_zones(icfg)
    try:
        ingest.check_assign(zones, assign_policy)
    except DataError as e:
        raise ConfigError(f"ingest: {e}") from None

    report = ingest.IngestReport()
    trips = ingest.parse_trips(trips_path, fmt, policy=parse_policy, report=report)
    run = RunDir(out_dir, "ingest", cfg.echo)
    if trips:
        out_panel = ingest.bin_counts(
            trips, zones, bin_minutes=bin_minutes, day_range=day_range,
            assign_policy=assign_policy, report=report,
        )
        panel_mod.write_panel_csv(out_panel, run.file("panel.csv"))
    write_json(run.file("ingest_report.json"), report.to_dict())
    run.finish()
    if not trips:
        raise DataError("no trips parsed")
    print(f"panel: {out_panel.k} zones x {out_panel.T} bins; "
          f"assigned {report.assigned}, dropped "
          f"{report.dropped_parse + report.dropped_outside_range + report.dropped_unassigned}")
    return EXIT_OK


def cmd_weights(args) -> int:
    cfg, wcfg, out_dir = _read_config(args, "weights")
    scheme = wcfg.choice("scheme", (weights.SCHEME_CENTROID, weights.SCHEME_ADJACENCY))
    eta_max = wcfg.number("eta_max", minimum=1)
    adj_path = wcfg.path("adjacency") if scheme == weights.SCHEME_ADJACENCY else None
    if adj_path is None and "adjacency" in wcfg.values:
        raise ConfigError(f"weights.adjacency is not read under scheme: {scheme}")
    zones = _load_zones(wcfg)
    if adj_path is None:
        stack = weights.centroid_rings(zones, eta_max)
    else:
        graph = weights.read_adjacency_csv(adj_path, [z.zone_id for z in zones])
        stack = weights.adjacency_rings(graph, eta_max)

    run = RunDir(out_dir, "weights", cfg.echo)
    stack_dir = run.file("stack")
    weights.write_stack(stack, stack_dir)
    checks = weights.validate_stack(stack)
    write_json(run.file("stack_checks.json"), checks)
    run.finish()
    failed = [c for c in checks if not c["ok"]]
    if failed:
        raise NumericalError(f"stack validation failed: {failed}")
    print(f"stack: scheme={scheme} eta_max={eta_max} k={stack.k} -> {stack_dir}")
    return EXIT_OK


def _load_panel(cfg: Section) -> tuple[panel_mod.DemandPanel, SplitSpec]:
    """The configured panel and its split in bins, echoed as resolved; with
    ``standardize: true`` the panel is standardized over the bins [0, t1).
    A ``split:`` that names any bin names t2; with none, the split is in
    thirds, t2 the bin nearest 2T/3."""
    scfg = cfg.section("split")
    if scfg.values and "t2" not in scfg.values:
        raise ConfigError(f"split: {', '.join(sorted(scfg.values))} given without t2")
    standardize = cfg.flag("standardize", False)
    pn = panel_mod.read_panel_csv(cfg.path("panel"))
    t2 = scfg.number("t2", (4 * pn.T + 3) // 6)
    t_end = scfg.number("t_end", pn.T)
    t1 = scfg.number("t1", (t2 + 1) // 2)
    if t_end > pn.T:
        raise ConfigError(f"split.t_end={t_end} runs past the panel's {pn.T} bins")
    try:
        spl = SplitSpec(t1=t1, t2=t2, t_end=t_end)
    except DataError as e:
        raise ConfigError(f"split: {e}") from None
    if standardize:
        pn, _ = panel_mod.standardize(pn, (0, spl.t1))
    return pn, spl


def _stack_dirs(cfg: Section, star_models) -> dict[str, Path]:
    """The ``stacks:`` mapping of name to stack directory, paths resolved;
    it may be absent or empty only when ``star_models`` (the STAR and
    LASSO-STAR models to run) is."""
    stacks = cfg.section("stacks", required=bool(star_models))
    if not all(isinstance(p, str) for p in stacks.values.values()):
        raise ConfigError(f"stacks must be a mapping of name to stack directory, "
                          f"got {stacks.values!r}")
    if star_models and not stacks.values:
        raise ConfigError(f"stacks is empty; a {' or '.join(star_models)} model needs a "
                          "weight stack")
    return {name: stacks.path(name) for name in stacks.values}


def _read_stacks(stack_dirs: dict[str, Path],
                 pn: panel_mod.DemandPanel) -> dict[str, weights.WeightStack]:
    """Each stack of ``stack_dirs`` by name, read and held to the panel's zone
    ids in the panel's order: a stack in another order is rejected, not
    reordered."""
    stacks = {}
    for name, d in stack_dirs.items():
        stacks[name] = weights.read_stack(d)
        try:
            # every stack is at least 1 deep, so only the zone rule can fail
            estimators.check_stack(pn, stacks[name], eta=1)
        except DataError as e:
            raise DataError(f"stack {d}: {e}") from None
    return stacks


def _lasso_from_config(cfg: Section) -> LassoConfig:
    """The penalty grid is explicit (``grid``) or generated from n_lambdas,
    lambda_min_ratio and include_zero, never both."""
    lcfg = cfg.section("lasso")
    explicit_grid = lcfg.numbers("grid", None, float)
    refit_after_tuning = lcfg.flag("refit_after_tuning", True)
    if explicit_grid is not None:
        mixed = sorted(set(lcfg.values) & {"n_lambdas", "lambda_min_ratio", "include_zero"})
        if mixed:
            raise ConfigError(f"lasso: {', '.join(mixed)} given with an explicit grid")
        return LassoConfig(explicit_grid=explicit_grid, refit_after_tuning=refit_after_tuning)
    return LassoConfig(
        n_lambdas=lcfg.number("n_lambdas", 50),
        lambda_min_ratio=lcfg.number("lambda_min_ratio", 1e-4, float),
        include_zero=lcfg.flag("include_zero", True),
        refit_after_tuning=refit_after_tuning,
    )


def cmd_fit(args) -> int:
    cfg, fcfg, out_dir = _read_config(args, "fit")
    kind = fcfg.choice("model", (MODEL_VAR, MODEL_STAR, MODEL_LASSO_STAR))
    p = fcfg.number("p", minimum=1)
    lasso = _lasso_from_config(cfg)
    eta, stack_dirs, stack_name = 1, {}, None
    if kind != MODEL_VAR:
        eta = fcfg.number("eta", minimum=1)
        stack_dirs = _stack_dirs(cfg, (kind,))
        stack_name = fcfg.choice("stack", tuple(stack_dirs))
    pn, spl = _load_panel(cfg)
    stack = _read_stacks(stack_dirs, pn).get(stack_name)
    # fit first: a fit that fails leaves no run directory
    report = forecast.run_scenario(pn, stack, kind, ModelOrder(p=p, eta=eta), spl, lasso)
    run = RunDir(out_dir, "fit", cfg.echo)

    if kind == MODEL_LASSO_STAR:
        write_json(run.file("lambda_curve.json"),
                   {"lambda": report.fit.lambda_, "curve": [[l, m] for l, m in report.curve]})
    write_json(run.file("model.json"), estimators.model_to_dict(report.fit))
    run.finish()
    print(f"fitted {kind} (p={p}) -> {run.path / 'model.json'}")
    return EXIT_OK


def cmd_grid(args) -> int:
    cfg, gcfg, out_dir = _read_config(args, "grid")
    models = gcfg.choices("models", (MODEL_STAR, MODEL_LASSO_STAR))
    p_values = gcfg.numbers("p", [1, 2, 3, 4], minimum=1)
    eta_values = gcfg.numbers("eta", [1, 2, 3, 4, 5, 6], minimum=1)
    include_var = gcfg.flag("include_var", True)
    if not models and not include_var:
        raise ConfigError("grid: no scenarios to run, models is empty and include_var false")
    timings = cfg.flag("timings", True)
    lasso = _lasso_from_config(cfg)
    stack_dirs = _stack_dirs(cfg, models)
    pn, spl = _load_panel(cfg)
    stacks = _read_stacks(stack_dirs, pn)

    grid = ScenarioGrid(
        p_values=p_values,
        eta_values=eta_values,
        stacks=tuple(stacks[name] for name in sorted(stacks)),
        model_kinds=models,
        include_var=include_var,
        split=spl,
        config=lasso,
    )
    run = RunDir(out_dir, "grid", cfg.echo)

    reports = forecast.run_grid(pn, grid)
    run.file("reports.csv").write_text(
        forecast.reports_to_csv(reports, include_seconds=timings), newline="")
    table = forecast.render_table(reports)
    run.file("table.txt").write_text(table)
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
    cfg, scfg, out_dir = _read_config(args, "synth")
    seed = cfg.number("seed", 0)
    kind = scfg.choice("kind", (synth.KIND_STAR, synth.KIND_VAR))
    k = scfg.number("k", minimum=1)
    length = scfg.number("length", minimum=1)
    sigma = scfg.number("sigma", 1.0, float, minimum=0)
    burn_in = scfg.number("burn_in", 50, minimum=0)
    require_stable = scfg.flag("require_stable", False)

    if kind == synth.KIND_STAR:
        p = scfg.number("p", minimum=1)
        eta = scfg.number("eta", minimum=1)
        order = ModelOrder(p=p, eta=eta)
        if scfg.raw("stack", "random") == "random":
            stack_dir, eta_max = None, scfg.number("eta_max", eta, minimum=eta)
        else:
            stack_dir = scfg.path("stack")
        if "coefficients" in scfg.values:
            spec = synth.ProcessSpec(
                kind=synth.KIND_STAR, k=k, length=length, sigma=sigma, seed=seed,
                initial=np.zeros((k, p)), order=order,
                star_coefficients=scfg.array("coefficients", 2),
                burn_in=burn_in, require_stable=require_stable,
            )
        else:
            sparse = {"density": scfg.number("density", 0.5, float, minimum=0),
                      "target_radius": scfg.number("target_radius", 0.7, float, minimum=0)}
        # every value above is checked before a stack directory is read
        stack = (synth.random_centroid_stack(k, eta_max, seed) if stack_dir is None
                 else weights.read_stack(stack_dir))
        if "coefficients" not in scfg.values:
            spec = synth.random_sparse_star_spec(k, order, stack, sigma=sigma, length=length,
                                                 seed=seed, burn_in=burn_in, **sparse)
        out_panel = synth.gen_star_process(spec, stack)
        truth = {"kind": "star", "p": p, "eta": eta, "sigma": sigma,
                 "coefficients": spec.star_coefficients.tolist()}
    else:
        intercept = scfg.array("intercept", 1, [0.0] * k)
        mats = tuple(scfg.array("lag_matrices", 3))
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

    run = RunDir(out_dir, "synth", cfg.echo)
    if kind == synth.KIND_STAR:
        weights.write_stack(stack, run.file("stack"))
    write_json(run.file("truth.json"), truth)
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
            # the grid runs in one thread; the flag stays for existing callers
            p.add_argument("--jobs", type=int, choices=(1,), default=1,
                           help="worker count; only 1 is accepted")
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
