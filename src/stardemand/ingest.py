"""Raw trip ingestion: parse trip records, assign them to zones, bin counts.

Parsing and zone assignment are pure per-record; binning reduces with a
commutative merge, so the resulting panel is independent of input row
order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .panel import DemandPanel, make_panel

POLICY_STRICT = "strict"
POLICY_SKIP = "skip"
POLICY_NEAREST = "nearest"
POLICY_DROP = "drop"
POLICY_ABORT = "abort"

DEFAULT_TS_FORMAT = "%m/%d/%Y %H:%M:%S"


@dataclass(frozen=True)
class TripRecord:
    pickup_time: datetime
    lat: float
    lon: float


@dataclass(frozen=True)
class ZoneGeometry:
    """A zone with an optional polygon boundary and a centroid.

    ``polygon`` is an ordered ring of (lon, lat) vertices, closed (first
    vertex repeated last). The centroid is computed from the polygon when
    not supplied.
    """

    zone_id: str
    centroid: tuple[float, float]
    polygon: tuple[tuple[float, float], ...] | None = None


def make_zone(zone_id, polygon=None, centroid=None) -> ZoneGeometry:
    if polygon is not None:
        polygon = tuple((float(x), float(y)) for x, y in polygon)
        if len(polygon) < 4:
            raise DataError(f"zone {zone_id}: polygon ring needs >= 3 distinct vertices")
        if polygon[0] != polygon[-1]:
            raise DataError(f"zone {zone_id}: polygon ring is not closed")
    if centroid is None:
        if polygon is None:
            raise DataError(f"zone {zone_id}: need a polygon or a centroid")
        centroid = _polygon_centroid(polygon)
    return ZoneGeometry(zone_id=str(zone_id), centroid=(float(centroid[0]), float(centroid[1])),
                        polygon=polygon)


def _polygon_centroid(ring) -> tuple[float, float]:
    # shoelace area centroid; falls back to vertex mean for degenerate rings
    a = cx = cy = 0.0
    for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
        cross = x0 * y1 - x1 * y0
        a += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    if abs(a) < 1e-18:
        xs = [p[0] for p in ring[:-1]]
        ys = [p[1] for p in ring[:-1]]
        return (sum(xs) / len(xs), sum(ys) / len(ys))
    return (cx / (3 * a), cy / (3 * a))


@dataclass
class RowError:
    line: int
    message: str


@dataclass
class IngestReport:
    """Machine-readable summary of an ingest run."""

    parsed: int = 0
    assigned: int = 0
    dropped_parse: int = 0
    dropped_outside_range: int = 0
    dropped_unassigned: int = 0
    row_errors: list[RowError] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "parsed": self.parsed,
            "assigned": self.assigned,
            "dropped_parse": self.dropped_parse,
            "dropped_outside_range": self.dropped_outside_range,
            "dropped_unassigned": self.dropped_unassigned,
            "row_errors": [{"line": e.line, "message": e.message} for e in self.row_errors],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


@dataclass(frozen=True)
class TripFormat:
    """Column names and timestamp format for trip CSVs."""

    time_column: str = "Date/Time"
    lat_column: str = "Lat"
    lon_column: str = "Lon"
    timestamp_format: str = DEFAULT_TS_FORMAT


def parse_trips(
    stream,
    fmt: TripFormat = TripFormat(),
    policy: str = POLICY_SKIP,
    report: IngestReport | None = None,
) -> list[TripRecord]:
    """Parse a trips CSV into records, preserving input order.

    ``stream`` is a text file object or path. Unparsable rows are
    reported with their line numbers; policy ``strict`` aborts on the
    first bad row, ``skip`` drops it.
    """
    if policy not in (POLICY_STRICT, POLICY_SKIP):
        raise DataError(f"unknown parse policy {policy!r}")
    if report is None:
        report = IngestReport()

    close = False
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        stream = open(stream, newline="")
        close = True
    try:
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
    finally:
        if close:
            stream.close()


def _point_on_segment(px, py, x0, y0, x1, y1, eps=1e-12) -> bool:
    cross = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
    if abs(cross) > eps:
        return False
    dot = (px - x0) * (x1 - x0) + (py - y0) * (y1 - y0)
    seg2 = (x1 - x0) ** 2 + (y1 - y0) ** 2
    return -eps <= dot <= seg2 + eps


def point_in_ring(px: float, py: float, ring) -> bool:
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


def _equirect(lon, lat, lat0) -> tuple[float, float]:
    return (lon * math.cos(math.radians(lat0)), lat)


def assign_zone(point: tuple[float, float], zones: Sequence[ZoneGeometry],
                policy: str = POLICY_DROP) -> str | None:
    """Assign a (lon, lat) point to a zone.

    Polygon containment wins; boundary and multi-hit ties resolve to the
    lowest zone_id in sort order. When no polygon contains the point,
    policy ``nearest`` picks the nearest-centroid zone (equirectangular
    Euclidean distance), ``drop`` returns None.
    """
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


def bin_counts(
    trips: Iterable[TripRecord],
    zones: Sequence[ZoneGeometry],
    bin_minutes: int = 15,
    day_range: tuple[datetime, datetime] | None = None,
    assign_policy: str = POLICY_DROP,
    range_policy: str = POLICY_DROP,
    report: IngestReport | None = None,
) -> DemandPanel:
    """Accumulate trips into a zone x bin count panel.

    ``day_range`` is a half-open (start, end) time window; it defaults to
    the midnight of the earliest trip's day through the end of the latest
    trip's day. Bin index is floor(minutes-since-origin / bin_minutes).
    """
    if 1440 % bin_minutes != 0:
        raise DataError(f"bin_minutes={bin_minutes} must divide 1440")
    if range_policy not in (POLICY_DROP, POLICY_ABORT):
        raise DataError(f"unknown range policy {range_policy!r}")
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
            if range_policy == POLICY_ABORT:
                raise DataError(f"trip at {t.pickup_time} outside range {start}..{end}")
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


# -- zone geometry loaders ---------------------------------------------

def load_zones_geojson(path) -> list[ZoneGeometry]:
    """FeatureCollection of Polygons with a `zone_id` property.

    Only the outer ring of each polygon is used; MultiPolygons take the
    first polygon.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: invalid GeoJSON: {e}") from None
    if doc.get("type") != "FeatureCollection":
        raise DataError(f"{path}: expected a FeatureCollection")
    zones = []
    for feat in doc.get("features", []):
        props = feat.get("properties", {}) or {}
        if "zone_id" not in props:
            raise DataError(f"{path}: feature missing zone_id property")
        geom = feat.get("geometry", {}) or {}
        gtype = geom.get("type")
        if gtype == "Polygon":
            ring = geom["coordinates"][0]
        elif gtype == "MultiPolygon":
            ring = geom["coordinates"][0][0]
        else:
            raise DataError(f"{path}: unsupported geometry type {gtype!r}")
        zones.append(make_zone(props["zone_id"], polygon=ring))
    if not zones:
        raise DataError(f"{path}: no zone features")
    return zones


def load_zones_centroid_csv(path) -> list[ZoneGeometry]:
    """CSV `zone_id,lon,lat` (centroids only, no polygons)."""
    zones = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"zone_id", "lon", "lat"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise DataError(f"{path}: need columns zone_id,lon,lat")
        for row in reader:
            try:
                zones.append(make_zone(row["zone_id"],
                                       centroid=(float(row["lon"]), float(row["lat"]))))
            except (TypeError, ValueError) as e:
                raise DataError(f"{path}: bad centroid row {row}: {e}") from None
    if not zones:
        raise DataError(f"{path}: no zones")
    return zones
