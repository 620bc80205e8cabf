"""Record the per-cell test MSPE reference of the grid workloads.

    python3 bench/record_reference.py

Runs grid96 and grid-month once each through the CLI, in the zone order the
generators produce, and writes ``bench/reference.json``. Record it only at a
commit whose answers are trusted: the benchmark fails any later cell that
moves by more than ``RTOL`` relative to it.
"""

from __future__ import annotations

import json
import shutil

import run

# Coordinate descent stops at a 1e-8 step tolerance, and a solver that
# converges further moves test MSPE by about 1e-5 relative; a wrong
# prediction or fit moves it by far more than 1e-4.
RTOL = 1e-4


def main() -> None:
    cells = {}
    for name in ("grid96", "grid-month"):
        workload = run.make_workload(name)
        directory = run.WORK / f"reference-{name}"
        try:
            workload.build(directory, seed=None)
            _, code, err = run._cli(workload.argv(directory))
            got = run.read_cells(directory / "out" / "reports.csv")
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        errors = {c: v for c, v in got.items() if isinstance(v, str)}
        if code != 0 or errors or len(got) != 52:
            raise SystemExit(f"{name}: exit {code}, {len(got)} cells, errors {errors}\n{err}")
        cells[name] = got
        print(f"{name}: {len(got)} cells")
    run.REFERENCE.write_text(json.dumps(
        {"commit": run._git_commit(), "rtol": RTOL, "cells": cells}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
