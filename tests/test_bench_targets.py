"""Everything the benchmark takes from the package exists in it.

``bench/spans.py`` names its targets as (module, function) strings, and the
other bench files import modules and read functions off them, so a renamed
or deleted function would otherwise only show up when ``bench/run.py`` or
``python3 -m pytest bench`` fails. Its span labels and counters read some
arguments by position, so a reordered signature would mislabel spans
without failing anything.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"
PACKAGE = "stardemand"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_span_targets_resolve():
    spans = _spans_module()
    missing = []
    for mod_name, fn_name, *_ in spans.TARGETS:
        module = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(f"{mod_name}.{fn_name}")
    assert spans.TARGETS and missing == []


def positional_reads(fn) -> set[tuple[str, int]]:
    """(name, index) of each ``kwargs.get("name", ... args[index] ...)`` in ``fn``."""
    reads = set()
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "kwargs" and len(node.args) == 2):
            for sub in ast.walk(node.args[1]):
                if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "args"):
                    reads.add((node.args[0].value, sub.slice.value))
    return reads


def test_span_positional_reads_match_signatures():
    spans = _spans_module()
    checked, moved = set(), []
    for mod_name, fn_name, *hooks in spans.TARGETS:
        target = getattr(importlib.import_module(f"{spans.PACKAGE}.{mod_name}"), fn_name)
        params = list(inspect.signature(target).parameters)
        for name, index in set().union(*(positional_reads(h) for h in hooks if h)):
            checked.add((fn_name, name, index))
            if params[index:index + 1] != [name]:
                moved.append(f"{mod_name}.{fn_name} args[{index}] is not {name}")
    assert checked == {("parse_trips", "report", 3), ("predict_range", "t_range", 2),
                       ("run_scenario", "model_kind", 2)}
    assert moved == []


def package_uses(source: str) -> set[tuple[str, str]]:
    """(module, name) pairs a file takes from the package: names imported
    from a package module, and attributes read off an imported module."""
    tree = ast.parse(source)
    modules, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
            for alias in node.names:
                if node.module == PACKAGE:
                    modules[alias.asname or alias.name] = f"{PACKAGE}.{alias.name}"
                else:
                    uses.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.add((modules[node.value.id], node.attr))
    return uses


def test_helper_finds_imported_names_and_module_attributes():
    src = ("from stardemand import cli, panel as pm\nfrom stardemand.panel import X\n"
           "import numpy as np\ncli.main(pm.read(np.ones(1)))\n")
    assert package_uses(src) == {("stardemand.cli", "main"), ("stardemand.panel", "read"),
                                 ("stardemand.panel", "X")}


def test_bench_package_uses_resolve():
    uses = set().union(*(package_uses(p.read_text()) for p in sorted(BENCH.glob("*.py"))))
    missing = sorted(f"{mod}.{name}" for mod, name in uses
                     if not hasattr(importlib.import_module(mod), name))
    assert {("stardemand.weights", "read_adjacency_csv"),
            ("stardemand.weights", "adjacency_rings"),
            ("stardemand.weights", "WeightStack"),
            ("stardemand.weights", "write_stack"),
            ("stardemand.ingest", "point_in_ring")} <= uses
    assert missing == []
