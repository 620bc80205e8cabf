"""Scalar trip ingestion: the reference the columnar production ingest
(``stardemand.ingest``) is compared against.

Every record is a Python object, every timestamp string goes through its
own ``strptime`` call, and every trip in range is tested against every
polygon one edge at a time, so it shares no loop with the vectorized
production code. Only the report and panel containers are shared.
"""

import csv
import math
from datetime import datetime, timedelta
from typing import NamedTuple

import numpy as np

from stardemand.errors import DataError
from stardemand.ingest import (
    POLICY_DROP, POLICY_NEAREST, POLICY_SKIP, POLICY_STRICT,
    IngestReport, RowError, TripFormat,
)
from stardemand.panel import make_panel


class TripRecord(NamedTuple):
    pickup_time: datetime
    lat: float
    lon: float


def parse_trips(stream, fmt=TripFormat(), policy=POLICY_SKIP, report=None) -> list[TripRecord]:
    """One record per good row, in input order; bad rows are reported by line."""
    if policy not in (POLICY_STRICT, POLICY_SKIP):
        raise DataError(f"unknown parse policy {policy!r}")
    if report is None:
        report = IngestReport()
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        return []
    for col in (fmt.time_column, fmt.lat_column, fmt.lon_column):
        if col not in reader.fieldnames:
            raise DataError(f"trips CSV missing column {col!r}")
    out = []
    for row in reader:
        line = reader.line_num
        err = None
        try:
            ts = datetime.strptime(row[fmt.time_column], fmt.timestamp_format)
            lat = float(row[fmt.lat_column])
            lon = float(row[fmt.lon_column])
        except (ValueError, TypeError) as e:
            err = f"unparsable row: {e}"
        else:
            if not -90 <= lat <= 90:
                err = f"lat out of range: {lat}"
            elif not -180 <= lon <= 180:
                err = f"lon out of range: {lon}"
        if err is not None:
            report.row_errors.append(RowError(line=line, message=err))
            report.dropped_parse += 1
            if policy == POLICY_STRICT:
                raise DataError(f"line {line}: {err}")
            continue
        out.append(TripRecord(pickup_time=ts, lat=lat, lon=lon))
        report.parsed += 1
    return out


def _point_on_segment(px, py, x0, y0, x1, y1, eps=1e-12) -> bool:
    cross = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
    if abs(cross) > eps:
        return False
    dot = (px - x0) * (x1 - x0) + (py - y0) * (y1 - y0)
    seg2 = (x1 - x0) ** 2 + (y1 - y0) ** 2
    return -eps <= dot <= seg2 + eps


def point_in_ring(px, py, ring) -> bool:
    """Even-odd ray casting; boundary points count as inside."""
    inside = False
    for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
        if _point_on_segment(px, py, x0, y0, x1, y1):
            return True
        if (y0 > py) != (y1 > py):
            x_at = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
            if px < x_at:
                inside = not inside
    return inside


def _equirect(lon, lat, lat0):
    return (lon * math.cos(math.radians(lat0)), lat)


def assign_zone(point, zones, policy=POLICY_DROP):
    """Lowest containing zone_id; else the nearest centroid or None."""
    if not zones:
        raise DataError("need at least one zone")
    if policy not in (POLICY_NEAREST, POLICY_DROP):
        raise DataError(f"unknown assignment policy {policy!r}")
    lon, lat = point
    hits = [z.zone_id for z in zones
            if z.polygon is not None and point_in_ring(lon, lat, z.polygon)]
    if hits:
        return min(hits)
    if policy == POLICY_DROP:
        return None
    lat0 = sum(z.centroid[1] for z in zones) / len(zones)
    px, py = _equirect(lon, lat, lat0)
    best = min(
        zones,
        key=lambda z: ((lambda q: (q[0] - px) ** 2 + (q[1] - py) ** 2)(
            _equirect(z.centroid[0], z.centroid[1], lat0)), z.zone_id),
    )
    return best.zone_id


def bin_counts(trips, zones, bin_minutes=15, day_range=None,
               assign_policy=POLICY_DROP, report=None):
    """Trip-by-trip accumulation into a zone x bin count panel."""
    if 1440 % bin_minutes != 0:
        raise DataError(f"bin_minutes={bin_minutes} must divide 1440")
    if report is None:
        report = IngestReport()
    trips = list(trips)
    if day_range is None:
        if not trips:
            raise DataError("no trips and no explicit day range")
        times = [t.pickup_time for t in trips]
        start = min(times).replace(hour=0, minute=0, second=0, microsecond=0)
        end = max(times).replace(hour=0, minute=0, second=0, microsecond=0) + timedelta(days=1)
        day_range = (start, end)
    start, end = day_range
    if end <= start:
        raise DataError("empty day range")
    total_minutes = (end - start).total_seconds() / 60.0
    n_bins = int(round(total_minutes / bin_minutes))
    if abs(n_bins * bin_minutes - total_minutes) > 1e-9 or n_bins < 1:
        raise DataError("day range is not a whole number of bins")

    zone_order = sorted(z.zone_id for z in zones)
    zidx = {z: i for i, z in enumerate(zone_order)}
    counts = np.zeros((len(zone_order), n_bins))
    for t in trips:
        if not (start <= t.pickup_time < end):
            report.dropped_outside_range += 1
            continue
        zid = assign_zone((t.lon, t.lat), zones, policy=assign_policy)
        if zid is None:
            report.dropped_unassigned += 1
            continue
        b = int((t.pickup_time - start).total_seconds() // (bin_minutes * 60))
        counts[zidx[zid], b] += 1
        report.assigned += 1
    return make_panel(zone_order, counts, bin_minutes=bin_minutes, origin=start)
