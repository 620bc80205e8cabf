"""Every function the traced benchmark wraps exists in the package.

``bench/spans.py`` names its targets as (module, function) strings, so a
renamed or deleted function would otherwise only show up when
``bench/run.py --trace 1`` fails.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
