"""Per-value reference for ``panel.write_panel_csv``: every row, zone id
and values alike, goes through ``csv.writer.writerow``, and each value is
formatted on its own. The production writer must produce the same bytes."""

import csv


def write_panel_csv_per_value(panel, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["zone_id"] + [f"bin_{t}" for t in range(panel.T)])
        for zid, row in zip(panel.zone_ids, panel.values):
            w.writerow([zid] + [_fmt(v) for v in row.tolist()])


def _fmt(v: float) -> str:
    if v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(v)
