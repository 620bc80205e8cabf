"""Raw trip ingestion: parse trip records, assign them to zones, bin counts.

Trips are held as columns (:class:`Trips`). Parsing reads a block of
lines at a time with numpy's C reader, or with ``csv.reader`` where numpy's
might read the block differently, and converts it column by column. Every
timestamp comes from ``strptime``: each distinct date half and time
half once where the format splits into date, separator and time, else (and
for a stamp whose halves fail) each distinct stamp whole. Range checks, zone
assignment and binning are vectorized over all trips, and counting is a
commutative reduction, so the resulting panel is independent of input row
order. The scalar reference the columnar code is tested against is
``tests/ingest_oracle.py``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from array import array
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cache, partial
from itertools import chain, islice
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import DataError, open_input
from .panel import DemandPanel, is_count, make_panel, unique_zone_ids

POLICY_STRICT = "strict"
POLICY_SKIP = "skip"
POLICY_NEAREST = "nearest"
POLICY_DROP = "drop"
PARSE_POLICIES = (POLICY_STRICT, POLICY_SKIP)
ASSIGN_POLICIES = (POLICY_NEAREST, POLICY_DROP)

DEFAULT_TS_FORMAT = "%m/%d/%Y %H:%M:%S"

_EPOCH = datetime(1970, 1, 1)
_MIDNIGHT = datetime(1900, 1, 1)  # strptime's date when a format has none
_US = timedelta(microseconds=1)
_DAY_US = 86_400_000_000


def _to_us(t: datetime, since: datetime = _EPOCH) -> int:
    """Microseconds from ``since`` (1970-01-01: the integer behind
    ``datetime64[us]``) to the wall-clock reading (a UTC offset is dropped)."""
    return (t.replace(tzinfo=None) - since) // _US


def _from_us(us: int) -> datetime:
    return _EPOCH + timedelta(microseconds=int(us))


@dataclass(frozen=True)
class Trips:
    """Parsed pick-ups as read-only columns, in input order.

    ``time`` is ``datetime64[us]``; ``lat`` and ``lon`` are float64
    degrees. The constructor accepts anything ``np.asarray`` converts to
    those dtypes, such as lists of ``datetime`` and floats.
    """

    time: np.ndarray
    lat: np.ndarray
    lon: np.ndarray

    def __post_init__(self):
        cols = {"time": np.asarray(self.time, dtype="datetime64[us]"),
                "lat": np.asarray(self.lat, dtype=float),
                "lon": np.asarray(self.lon, dtype=float)}
        if any(c.ndim != 1 or len(c) != len(cols["time"]) for c in cols.values()):
            raise DataError("trip columns must be 1-d and of equal length")
        for name, col in cols.items():
            col = col.view()
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.time)


@dataclass(frozen=True)
class ZoneGeometry:
    """A zone with an optional polygon boundary and a centroid.

    ``polygon`` is an ordered ring of (lon, lat) vertices, closed (first
    vertex repeated last); :func:`make_zone` drops consecutive repeats of
    a vertex. The centroid is computed from the polygon when not supplied.
    """

    zone_id: str
    centroid: tuple[float, float]
    polygon: tuple[tuple[float, float], ...] | None = None


def make_zone(zone_id, polygon=None, centroid=None) -> ZoneGeometry:
    if polygon is not None:
        polygon = tuple((float(x), float(y)) for x, y in polygon)
        # a repeated vertex is a zero-length edge, on which every point lies
        polygon = polygon[:1] + tuple(b for a, b in zip(polygon, polygon[1:]) if b != a)
        if len(set(polygon)) < 3:
            raise DataError(f"zone {zone_id}: polygon ring needs >= 3 distinct vertices")
        if polygon[0] != polygon[-1]:
            raise DataError(f"zone {zone_id}: polygon ring is not closed")
        if not all(math.isfinite(v) for p in polygon for v in p):
            raise DataError(f"zone {zone_id}: polygon has a non-finite vertex")
    if centroid is None:
        if polygon is None:
            raise DataError(f"zone {zone_id}: need a polygon or a centroid")
        centroid = _polygon_centroid(polygon)
    centroid = (float(centroid[0]), float(centroid[1]))
    if not all(math.isfinite(v) for v in centroid):
        raise DataError(f"zone {zone_id}: centroid {centroid} is not finite")
    return ZoneGeometry(zone_id=str(zone_id), centroid=centroid, polygon=polygon)


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
        return asdict(self)


@dataclass(frozen=True)
class TripFormat:
    """Column names and timestamp format for trip CSVs."""

    time_column: str = "Date/Time"
    lat_column: str = "Lat"
    lon_column: str = "Lon"
    timestamp_format: str = DEFAULT_TS_FORMAT


# Lines read at a time. A block with one line numpy's reader declines goes
# whole to csv.reader, whose cost grows with the rows it holds (16k rows at
# once doubled it in cyclic-GC work); on a 564k-row file 384 and 512 cost
# more than 256.
_BLOCK_ROWS = 256

# Microseconds marking a timestamp that does not parse; no datetime has them.
_BAD_US = int(np.iinfo(np.int64).min)

_SPLIT_FORMAT = r"(%[Ymd](?:[^\w\s%]*%[Ymd])*)(\s+|[^\W\d_]+)(%[HMS](?:[^\w\s%]*%[HMS])*)"


def check_timestamp_format(ts_format: str) -> None:
    """Reject a format that cannot read back its own rendering of a fixed
    time, as strptime then rejects every stamp in it."""
    probe = datetime(2014, 4, 16, 9, 5, 7, tzinfo=timezone.utc)
    try:
        datetime.strptime(probe.strftime(ts_format), ts_format)
    except (ValueError, re.error) as e:
        raise DataError(f"timestamp_format {ts_format!r} is malformed: {e}") from None


def _strptime_us(text: str, fmt: str, since: datetime = _EPOCH) -> int:
    """``_to_us`` of ``datetime.strptime``, or ``_BAD_US`` where it raises."""
    try:
        return _to_us(datetime.strptime(text, fmt), since)
    except ValueError:
        return _BAD_US


def _stamp_parser(ts_format: str):
    """``_strptime_us`` of a stamp in ``ts_format``; a malformed format is a
    DataError.

    A format of date directives, a separator (a whitespace run, or letters
    such as ISO's T) and time directives, with only punctuation within each
    half (``_SPLIT_FORMAT``), is read a half at a time. A stamp is cut at the
    separator's first match (``\\s+``, or the letters in any case, as strptime
    matches them), and each distinct half is parsed once on its half of the
    format. No half matches the separator but a space-padded ``%d``, which
    fails the date half, so where both halves parse, the whole format parses
    with the same cut. Any other stamp or format is parsed whole.
    """
    check_timestamp_format(ts_format)
    whole = partial(_strptime_us, fmt=ts_format)
    split = re.fullmatch(_SPLIT_FORMAT, ts_format)
    if split is None:
        return whole
    date_fmt, sep, time_fmt = split.groups()
    cut = re.compile(r"\s+" if sep.isspace() else sep, re.IGNORECASE).search
    date_us = cache(partial(_strptime_us, fmt=date_fmt))
    time_us = cache(partial(_strptime_us, fmt=time_fmt, since=_MIDNIGHT))

    def to_us(stamp: str) -> int:
        found = cut(stamp)
        if found:
            day, tod = date_us(stamp[:found.start()]), time_us(stamp[found.end():])
            if _BAD_US not in (day, tod):
                return day + tod
        return whole(stamp)

    return to_us


def parse_trips(
    stream,
    fmt: TripFormat = TripFormat(),
    policy: str = POLICY_SKIP,
    report: IngestReport | None = None,
) -> Trips:
    """Parse a trips CSV into columns, preserving input order.

    ``stream`` is a text file object or path; a file opened from a path may
    start with a UTF-8 byte-order mark. A file that cannot be opened, decoded
    or tokenized is a DataError, as :func:`open_input` words it. Unparsable
    rows are reported with their line numbers; policy ``strict`` aborts on
    the first bad row (the good rows before it are counted as parsed),
    ``skip`` drops it. A malformed ``fmt.timestamp_format`` is one DataError,
    raised before the file is opened.

    The rows after the header are read ``_BLOCK_ROWS`` physical lines at a
    time. A block that :func:`_numpy_block` reads with numpy's C reader is
    numbered line by line, and only the first stamp of each run of equal
    stamps is looked up. Any other block goes through ``csv.reader``, which
    reads on past the block's last line to finish a record that spans it.
    Each distinct stamp is parsed once by ``datetime.strptime``: as a date
    half and a time half where :func:`_stamp_parser` splits the format and
    both halves parse, else whole; strptime words every error. A UTC offset
    read by ``%z`` is dropped: times keep their wall-clock reading.
    """
    if policy not in PARSE_POLICIES:
        raise DataError(f"unknown parse policy {policy!r}")
    to_us = _stamp_parser(fmt.timestamp_format)
    if report is None:
        report = IngestReport()
    times, lats, lons = array("q"), array("d"), array("d")
    names = (fmt.time_column, fmt.lat_column, fmt.lon_column)
    stamp_us: dict[str | None, int] = {None: _BAD_US}  # a short row's stamp reads None

    def stamps_us(stamps: list) -> np.ndarray:
        for stamp in set(stamps).difference(stamp_us):
            stamp_us[stamp] = to_us(stamp)
        return np.fromiter(map(stamp_us.__getitem__, stamps), np.int64, len(stamps))

    with open_input(stream, "trips", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, names)  # an empty file has the columns and no rows
        line = reader.line_num
        # a repeated column name reads its last occurrence, like csv.DictReader
        col = {name: i for i, name in enumerate(header)}
        if missing := [name for name in names if name not in col]:
            raise DataError(f"trips CSV missing column {missing[0]!r}")
        cols = tuple(col[name] for name in names)
        fields, width = itemgetter(*cols), len(header)
        try:
            while lines := list(islice(fh, _BLOCK_ROWS)):
                block = _numpy_block(lines, cols)
                if block is not None:
                    stamps, lat, lon = block
                    lat_text, lon_text = lat, lon  # float() gives numpy's values back
                    numbers = range(line + 1, line + 1 + len(lines))
                    line += len(lines)
                    head = np.ones(len(stamps), dtype=bool)  # first of a run of equal stamps
                    head[1:] = stamps[1:] != stamps[:-1]
                    t = stamps_us(stamps[head].tolist())[np.cumsum(head) - 1]
                else:
                    reader, block_end = csv.reader(chain(lines, fh)), len(lines)
                    rows, numbers = [], []
                    for row in reader:
                        if row:
                            rows.append(row)
                            numbers.append(line + reader.line_num)
                        if reader.line_num >= block_end:
                            break
                    line += reader.line_num
                    if not rows:
                        continue
                    try:
                        stamps, lat_text, lon_text = zip(*map(fields, rows))
                    except IndexError:
                        # a short row reads None in its missing fields, like csv.DictReader
                        stamps, lat_text, lon_text = zip(
                            *(fields(r + [None] * (width - len(r))) for r in rows))
                    t = stamps_us(stamps)
                    lat, lon = _floats(lat_text), _floats(lon_text)
                good = (t != _BAD_US) & (np.abs(lat) <= 90) & (np.abs(lon) <= 180)
                bad = np.flatnonzero(~good).tolist()
                if bad:
                    if policy == POLICY_STRICT:
                        good[bad[0]:] = False
                        del bad[1:]
                    t, lat, lon = t[good], lat[good], lon[good]
                times.frombytes(t.tobytes())
                lats.frombytes(lat.tobytes())
                lons.frombytes(lon.tobytes())
                for i in bad:
                    stamp = stamps[i] if block is None else str(stamps[i])  # not numpy's repr
                    err = _row_error(stamp, lat_text[i], lon_text[i], fmt.timestamp_format)
                    report.row_errors.append(RowError(line=numbers[i], message=err))
                    report.dropped_parse += 1
                    if policy == POLICY_STRICT:
                        raise DataError(f"line {numbers[i]}: {err}")
        finally:
            report.parsed += len(times)
    # the columns are views of the buffers, not copies
    return Trips(time=np.frombuffer(times, dtype=np.int64).view("datetime64[us]"),
                 lat=np.frombuffer(lats), lon=np.frombuffer(lons))


# Characters on which numpy's reader parts ways with csv.reader and float:
# numpy's ``U`` dtype drops a string's trailing NULs, and its float parser
# strips \x1c-\x1f as whitespace, which ``float`` rejects.
_NUMPY_UNSAFE = "\0\x1c\x1d\x1e\x1f"


def _numpy_block(lines: list[str], cols) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The stamp, lat and lon columns (``cols``) of ``lines`` as numpy's
    reader (``np.loadtxt``) reads them, or None where ``csv.reader`` and
    ``float`` might read them otherwise. This is the one place that knows
    where the two readers part ways. numpy's reader is declined:

    - where a line is longer than ``csv.field_size_limit()``, as csv.reader
      raises on a longer field;
    - where a character of ``_NUMPY_UNSAFE`` occurs;
    - where the last line ends inside an open quote, as csv.reader would
      read on into the next block;
    - where numpy's reader raises ValueError, or returns other than one row
      per line (the block holds a blank line or a record spanning lines).
    """
    longest = max(map(len, lines))
    if longest < 3:  # blank lines, on which numpy warns, or one-character rows
        return None
    text = "".join(lines)
    if longest > csv.field_size_limit() or any(c in text for c in _NUMPY_UNSAFE):
        return None
    try:
        list(csv.reader(lines[-1:], strict=True))
        # comments=None: the default "#" would cut a field short
        rec = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, usecols=cols,
                         ndmin=1, dtype=[("t", f"U{longest}"), ("lat", "f8"), ("lon", "f8")])
    except (csv.Error, ValueError):
        return None
    if len(rec) != len(lines):
        return None
    return rec["t"], rec["lat"], rec["lon"]


def _floats(text) -> np.ndarray:
    """``float`` of each field of a block that ``csv.reader`` read, NaN (in
    no coordinate range) where it raises, one field at a time."""
    return np.array([_float_or_nan(x) for x in text])


def _float_or_nan(x) -> float:
    try:
        return float(x)
    except (ValueError, TypeError):
        return math.nan


def _row_error(stamp, lat, lon, ts_format: str) -> str:
    """The message for a rejected row, from the first of its fields that
    fails in the order stamp, lat, lon."""
    try:
        datetime.strptime(stamp, ts_format)
        lat, lon = float(lat), float(lon)
    except (ValueError, TypeError) as e:
        return f"unparsable row: {e}"
    return f"lat out of range: {lat}" if not -90 <= lat <= 90 else f"lon out of range: {lon}"


# -- zone assignment ----------------------------------------------------

_EDGE_EPS = 1e-12


def _in_ring(px: np.ndarray, py: np.ndarray, ring) -> np.ndarray:
    """Even-odd ray casting over arrays of points; boundary points count as
    inside.

    A point is on an edge when the edge's cross product with it is within
    ``_EDGE_EPS`` and its dot product lies in [-eps, |edge|^2 + eps]. The
    float operations are those of a scalar edge-by-edge test, in the same
    order, so each point gets the same answer as it would alone.
    """
    inside = np.zeros(len(px), dtype=bool)
    on_edge = np.zeros(len(px), dtype=bool)
    eps = _EDGE_EPS
    for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
        dx, dy = x1 - x0, y1 - y0
        ux, uy = px - x0, py - y0
        cross = dx * uy - dy * ux
        dot = ux * dx + uy * dy
        on_edge |= (np.abs(cross) <= eps) & (-eps <= dot) & (dot <= dx ** 2 + dy ** 2 + eps)
        if dy != 0:
            crosses = (y0 > py) != (y1 > py)
            inside ^= crosses & (px < x0 + uy * dx / dy)
    return inside | on_edge


def _ring_box(ring) -> tuple[float, float, float, float]:
    """(xmin, xmax, ymin, ymax) outside which ``_in_ring`` is false.

    The vertex box is grown by how far the edge tolerance reaches: a point
    on an edge by the cross/dot test lies within about eps / |edge| of it,
    so the shortest edge sets the margin (a zero-length edge matches every
    point). The absolute term covers rounding in the crossing abscissa.
    """
    shortest = min(math.hypot(x1 - x0, y1 - y0)
                   for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]))
    margin = math.inf if shortest == 0 else 16 * _EDGE_EPS / shortest + 1e-9
    xs = [x for x, _ in ring]
    ys = [y for _, y in ring]
    return min(xs) - margin, max(xs) + margin, min(ys) - margin, max(ys) + margin


def check_assign(zones: Sequence[ZoneGeometry], policy: str) -> None:
    """Reject no zones, an unknown policy, and ``drop`` over zones that are
    all centroids: with no polygon to contain a trip, it would drop every one."""
    if not zones:
        raise DataError("need at least one zone")
    if policy not in ASSIGN_POLICIES:
        raise DataError(f"unknown assignment policy {policy!r}")
    if policy == POLICY_DROP and all(z.polygon is None for z in zones):
        raise DataError(f"assign_policy {POLICY_DROP} assigns no trip to zones that have "
                        f"no polygon (centroids only); use {POLICY_NEAREST}")


def _assign(lon: np.ndarray, lat: np.ndarray, zones: Sequence[ZoneGeometry],
            policy: str) -> tuple[list[str], np.ndarray]:
    """Sorted zone ids and, per (lon, lat) point, the index of its zone in
    them, or -1 when the point is dropped.

    Polygons are tested in zone_id order, each against the points still
    unassigned inside its box, so a point on a shared edge goes to the
    lowest zone_id. Under ``nearest`` the rest go to the nearest centroid
    by equirectangular distance around the mean centroid latitude, ties
    to the lowest zone_id.
    """
    order = sorted(zones, key=lambda z: z.zone_id)
    zone_of = np.full(len(lon), -1, dtype=np.intp)
    for i, z in enumerate(order):
        if z.polygon is None:
            continue
        xmin, xmax, ymin, ymax = _ring_box(z.polygon)
        cand = np.flatnonzero((zone_of < 0) & (lon >= xmin) & (lon <= xmax)
                              & (lat >= ymin) & (lat <= ymax))
        zone_of[cand[_in_ring(lon[cand], lat[cand], z.polygon)]] = i
    if policy == POLICY_NEAREST:
        rest = np.flatnonzero(zone_of < 0)
        lat0 = sum(z.centroid[1] for z in zones) / len(zones)
        scale = math.cos(math.radians(lat0))
        px, py = lon[rest] * scale, lat[rest]
        best = np.full(len(rest), np.inf)
        for i, z in enumerate(order):
            # float_power calls the C library's pow, as Python's ** does;
            # np.square rounds differently in about 0.1% of cases
            d = (np.float_power(z.centroid[0] * scale - px, 2.0)
                 + np.float_power(z.centroid[1] - py, 2.0))
            closer = d < best
            best[closer] = d[closer]
            zone_of[rest[closer]] = i
    return [z.zone_id for z in order], zone_of


def point_in_ring(px: float, py: float, ring) -> bool:
    """Even-odd ray casting; boundary points count as inside."""
    return bool(_in_ring(np.array([px], dtype=float), np.array([py], dtype=float), ring)[0])


def assign_zone(point: tuple[float, float], zones: Sequence[ZoneGeometry],
                policy: str = POLICY_DROP) -> str | None:
    """Assign a (lon, lat) point to a zone.

    Polygon containment wins; boundary and multi-hit ties resolve to the
    lowest zone_id in sort order. When no polygon contains the point,
    policy ``nearest`` picks the nearest-centroid zone (equirectangular
    Euclidean distance), ``drop`` returns None.
    """
    check_assign(zones, policy)
    lon, lat = point
    ids, zone_of = _assign(np.array([lon], dtype=float), np.array([lat], dtype=float),
                           zones, policy)
    return ids[zone_of[0]] if zone_of[0] >= 0 else None


# -- binning ------------------------------------------------------------

def check_bin_minutes(bin_minutes: int) -> None:
    """Reject a bin width that does not split a day into whole bins."""
    if not is_count(bin_minutes, 1):
        raise DataError(f"bin_minutes must be an int >= 1, got {bin_minutes!r}")
    if 1440 % bin_minutes != 0:
        raise DataError(f"bin_minutes={bin_minutes} must divide 1440")


def count_bins(start: datetime, end: datetime, bin_minutes: int) -> int:
    """Number of ``bin_minutes`` bins in the half-open range [start, end)."""
    if end <= start:
        raise DataError("empty day range")
    total_minutes = (end - start).total_seconds() / 60.0
    n_bins = int(round(total_minutes / bin_minutes))
    if abs(n_bins * bin_minutes - total_minutes) > 1e-9 or n_bins < 1:
        raise DataError("day range is not a whole number of bins")
    return n_bins


def bin_counts(
    trips: Trips,
    zones: Sequence[ZoneGeometry],
    bin_minutes: int = 15,
    day_range: tuple[datetime, datetime] | None = None,
    assign_policy: str = POLICY_DROP,
    report: IngestReport | None = None,
) -> DemandPanel:
    """Accumulate trips into a zone x bin count panel.

    ``day_range`` is a half-open (start, end) time window; it defaults to
    the midnight of the earliest trip's day through the end of the latest
    trip's day. Bin index is floor(minutes-since-origin / bin_minutes).
    """
    check_bin_minutes(bin_minutes)
    if report is None:
        report = IngestReport()
    t = trips.time.view(np.int64)
    if day_range is None:
        if not len(trips):
            raise DataError("no trips and no explicit day range")
        day_range = (_from_us(t.min() // _DAY_US * _DAY_US),
                     _from_us(t.max() // _DAY_US * _DAY_US + _DAY_US))
    start, end = day_range
    n_bins = count_bins(start, end, bin_minutes)
    check_assign(zones, assign_policy)

    lo, hi = _to_us(start), _to_us(end)
    in_range = (t >= lo) & (t < hi)
    zone_ids, zone_of = _assign(trips.lon[in_range], trips.lat[in_range], zones, assign_policy)
    hit = zone_of >= 0
    report.dropped_outside_range += len(t) - len(zone_of)
    report.dropped_unassigned += len(zone_of) - int(hit.sum())
    report.assigned += int(hit.sum())

    b = (t[in_range][hit] - lo) // (bin_minutes * 60_000_000)
    counts = np.bincount(zone_of[hit] * n_bins + b, minlength=len(zone_ids) * n_bins)
    return make_panel(zone_ids, counts.reshape(len(zone_ids), n_bins).astype(float),
                      bin_minutes=bin_minutes, origin=start)


# -- zone geometry loaders ---------------------------------------------

def load_zones_geojson(path) -> list[ZoneGeometry]:
    """FeatureCollection of Polygons with a `zone_id` property.

    Only the outer ring of each polygon is used; MultiPolygons take the
    first polygon. A document of another shape, such as a geometry without
    coordinates or a position that is not two numbers, is a DataError.
    """
    with open_input(path, "zones") as fh:
        doc = json.load(fh)
    zones = []
    try:
        if doc.get("type") != "FeatureCollection":
            raise DataError(f"{path}: expected a FeatureCollection")
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
            try:
                zones.append(make_zone(props["zone_id"], polygon=ring))
            except DataError as e:
                raise DataError(f"{path}: {e}") from None
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed GeoJSON: {e!r}") from None
    if not zones:
        raise DataError(f"{path}: no zone features")
    unique_zone_ids((z.zone_id for z in zones), str(path))
    return zones


def load_zones_centroid_csv(path) -> list[ZoneGeometry]:
    """CSV `zone_id,lon,lat` (centroids only, no polygons); the file may
    start with a UTF-8 byte-order mark."""
    zones = []
    with open_input(path, "zone centroids", newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        required = {"zone_id", "lon", "lat"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise DataError(f"{path}: need columns zone_id,lon,lat")
        for row in reader:
            try:
                zones.append(make_zone(row["zone_id"],
                                       centroid=(float(row["lon"]), float(row["lat"]))))
            except (DataError, TypeError, ValueError) as e:
                raise DataError(f"{path}: bad centroid row {row}: {e}") from None
    if not zones:
        raise DataError(f"{path}: no zones")
    unique_zone_ids((z.zone_id for z in zones), str(path))
    return zones
