"""Zone-indexed demand panels, temporal splits and standardization.

A panel is a k x T matrix of per-zone demand on a uniform time grid.
All types here are immutable after construction.
"""

from __future__ import annotations

import csv
import io
import numbers
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, open_input

# How the values of a panel are to be interpreted.
KIND_RAW = "raw"                  # non-negative integer counts
KIND_REAL = "real"                # unconstrained reals (e.g. synthetic data)
KIND_STANDARDIZED = "standardized"

_KINDS = (KIND_RAW, KIND_REAL, KIND_STANDARDIZED)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DemandPanel:
    """k x T matrix of per-zone demand on a uniform bin grid.

    ``values[i, t]`` is the demand in zone ``zone_ids[i]`` during bin ``t``.
    Bin 0 starts at ``origin``; each bin spans ``bin_minutes`` minutes.
    """

    zone_ids: tuple[str, ...]
    values: np.ndarray
    bin_minutes: int = 15
    origin: datetime | None = None
    kind: str = KIND_RAW

    @property
    def k(self) -> int:
        return len(self.zone_ids)

    @property
    def T(self) -> int:
        return self.values.shape[1]


def unique_zone_ids(zone_ids: Iterable, where: str) -> tuple[str, ...]:
    """The zone ids as strings; an id given twice is a DataError."""
    zone_ids = tuple(str(z) for z in zone_ids)
    repeated = sorted(z for z, n in Counter(zone_ids).items() if n > 1)
    if repeated:
        raise DataError(f"{where}: duplicate zone ids {', '.join(repeated)}")
    return zone_ids


def is_count(value, minimum: int) -> bool:
    """True for an integer (a numpy one too, not a bool) of at least ``minimum``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


def make_panel(
    zone_ids: Sequence[str],
    values: Sequence[Sequence[float]] | np.ndarray,
    bin_minutes: int = 15,
    origin: datetime | None = None,
    kind: str = KIND_RAW,
) -> DemandPanel:
    """Validate inputs and build an immutable demand panel.

    ``values`` (a k x T matrix, or k rows of T numbers) is converted to one
    read-only float array. Raises DataError on ragged or non-numeric rows,
    duplicate zone ids, non-finite values, or (in raw mode) negative or
    non-integer counts.
    """
    zone_ids = unique_zone_ids(zone_ids, "panel")
    if len(zone_ids) == 0:
        raise DataError("panel needs at least one zone")
    if not is_count(bin_minutes, 1):
        raise DataError(f"bin_minutes must be an int >= 1, got {bin_minutes!r}")
    if kind not in _KINDS:
        raise DataError(f"unknown panel kind {kind!r}")

    try:
        values = _frozen(values)
    except (TypeError, ValueError) as e:
        raise DataError(f"ragged or non-numeric rows: {e}") from None
    if values.ndim != 2:
        raise DataError("values must be a 2-D zone x bin matrix")
    if values.shape[0] != len(zone_ids):
        raise DataError("row count does not match zone count")
    if values.shape[1] < 1:
        raise DataError("panel needs at least one time bin")
    if not np.all(np.isfinite(values)):
        raise DataError("panel values must be finite")

    if kind == KIND_RAW:
        if np.any(values < 0):
            raise DataError("negative counts in raw panel")
        if np.any(values != np.round(values)):
            raise DataError("non-integer counts in raw panel")

    return DemandPanel(
        zone_ids=zone_ids,
        values=values,
        bin_minutes=bin_minutes,
        origin=origin,
        kind=kind,
    )


@dataclass(frozen=True)
class SplitSpec:
    """Three-part temporal split 0 < t1 < t2 < t_end (bin indices).

    Bins [0, t1) train, [t1, t2) validate, [t2, t_end) test.
    """

    t1: int
    t2: int
    t_end: int

    def __post_init__(self):
        for name, value in vars(self).items():
            if not is_count(value, 1):
                raise DataError(f"{name} must be an int >= 1, got {value!r}")
        if not (self.t1 < self.t2 < self.t_end):
            raise DataError(
                f"invalid split ({self.t1}, {self.t2}, {self.t_end}): "
                "need 0 < t1 < t2 < t_end"
            )


@dataclass(frozen=True)
class ModelOrder:
    """Time-lag order p and spatial-lag order eta (both >= 1)."""

    p: int
    eta: int

    def __post_init__(self):
        for name, value in vars(self).items():
            if not is_count(value, 1):
                raise DataError(f"{name} must be an int >= 1, got {value!r}")


@dataclass(frozen=True)
class Standardization:
    """Per-zone mean/sd computed on a stated index range (population sd)."""

    mean: np.ndarray
    sd: np.ndarray
    fit_range: tuple[int, int]

    def apply(self, panel: DemandPanel) -> DemandPanel:
        vals = (panel.values - self.mean[:, None]) / self.sd[:, None]
        return replace(panel, values=_frozen(vals), kind=KIND_STANDARDIZED)


def standardize(
    panel: DemandPanel, fit_range: tuple[int, int]
) -> tuple[DemandPanel, Standardization]:
    """Standardize each zone to zero mean / unit sd over ``fit_range``.

    ``fit_range`` is a half-open (start, end) index range; statistics use
    the population (1/n) sd convention. Zones with zero variance over the
    range are an error.
    """
    start, end = fit_range
    if not (0 <= start < end <= panel.T):
        raise DataError(f"bad fit range {fit_range}")
    window = panel.values[:, start:end]
    mean = window.mean(axis=1)
    sd = window.std(axis=1)  # population convention
    bad = np.flatnonzero(sd <= 0)
    if bad.size:
        names = ", ".join(panel.zone_ids[i] for i in bad[:5])
        raise DataError(f"zero-variance zones over fit range: {names}")
    std = Standardization(mean=_frozen(mean), sd=_frozen(sd), fit_range=(start, end))
    return std.apply(panel), std


# -- CSV serialization --------------------------------------------------

def write_panel_csv(panel: DemandPanel, path) -> None:
    """Write `zone_id,bin_0,...,bin_{T-1}` rows, one per zone, CRLF-ended.

    A value is written as ``repr`` writes it, except that an integral value
    below 1e15 in magnitude is written as an int (2.0 as ``2``, -0.0 as
    ``0``). A number never needs CSV quoting, so each row's values are
    joined with commas; only the zone id goes through ``csv.writer``.
    """
    values = panel.values
    integral = (values == np.trunc(values)) & (np.abs(values) < 1e15)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["zone_id"] + [f"bin_{t}" for t in range(panel.T)]) + "\r\n")
        for zid, row, whole in zip(panel.zone_ids, values, integral):
            row = row.tolist()
            cells = list(map(repr, row))
            for t in np.flatnonzero(whole).tolist():
                cells[t] = str(int(row[t]))
            fh.write(_id_field(zid) + "," + ",".join(cells) + "\r\n")


def _id_field(zone_id: str) -> str:
    """The zone id as ``csv.writer`` writes it in a row of two or more
    fields; the writer's line terminator decides which ids are quoted."""
    buf = io.StringIO()
    csv.writer(buf).writerow([zone_id, ""])
    return buf.getvalue()[:-len(",\r\n")]


def read_panel_csv(path) -> DemandPanel:
    """Read a panel written by :func:`write_panel_csv`.

    The file holds no metadata, so the panel gets the defaults: 15-minute
    bins, no origin, and kind real (any finite values). It may start with a
    UTF-8 byte-order mark. A file that cannot be read, a row whose length
    differs from the header's, or a cell that is not a number is a DataError
    naming the file.

    ``csv.reader`` reads the file row by row as it streams; blank rows are
    skipped, and each row's values go through ``np.array(..., dtype=float)``.
    """
    with open_input(path, "panel", newline="", encoding="utf-8-sig") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if not header or header[0] != "zone_id":
            raise DataError(f"{path}: not a panel CSV (missing zone_id header)")
        zone_ids = []
        values = []
        for r in rows:
            if not r:
                continue
            if len(r) != len(header):
                raise DataError(f"{path}: row of zone {r[0]} has {len(r) - 1} values, "
                                f"the header names {len(header) - 1} bins")
            zone_ids.append(r[0])
            try:
                values.append(np.array(r[1:], dtype=float))
            except ValueError as e:
                raise DataError(f"{path}: bad value in row {r[0]}: {e}") from None
    if not zone_ids:
        raise DataError(f"{path}: empty panel")
    return make_panel(zone_ids, values, kind=KIND_REAL)
