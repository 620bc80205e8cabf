import csv
import io
import json
import math
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_oracle
from stardemand import ingest
from stardemand.errors import DataError
from stardemand.ingest import (
    IngestReport, TripFormat, Trips,
    assign_zone, bin_counts, make_zone, parse_trips, point_in_ring,
    load_zones_centroid_csv, load_zones_geojson,
)


def _csv(rows):
    return io.StringIO("Date/Time,Lat,Lon\n" + "\n".join(rows) + "\n")


def _records(trips):
    """(time, lat, lon) tuples of columnar trips, in order."""
    return list(zip(trips.time.tolist(), trips.lat.tolist(), trips.lon.tolist()))


def _trips(records):
    """Columnar trips from (time, lat, lon) tuples."""
    return Trips(time=[r[0] for r in records], lat=[r[1] for r in records],
                 lon=[r[2] for r in records])


def square(x0, y0, size=1.0):
    return [(x0, y0), (x0 + size, y0), (x0 + size, y0 + size), (x0, y0 + size), (x0, y0)]


class TestParseTrips:
    def test_direct_parse(self):
        trips = parse_trips(_csv(['"4/16/2014 0:03:00",40.75,-73.99']))
        assert _records(trips) == [(datetime(2014, 4, 16, 0, 3), 40.75, -73.99)]

    def test_lat_out_of_range(self):
        report = IngestReport()
        trips = parse_trips(_csv(['"4/16/2014 0:03:00",95.0,-73.99']), report=report)
        assert _records(trips) == []
        assert report.row_errors[0].message == "lat out of range: 95.0"
        assert report.row_errors[0].line == 2

    def test_empty_file(self):
        report = IngestReport()
        assert _records(parse_trips(io.StringIO(""), report=report)) == []
        assert report.row_errors == []

    def test_strict_aborts(self):
        with pytest.raises(DataError, match="line 2"):
            parse_trips(_csv(["garbage,1,2"]), policy="strict")

    def test_strict_keeps_the_rows_before(self):
        text = _csv(['"4/16/2014 0:01:00",40.7,-74.0', '"4/16/2014 0:02:00",40.7,-74.0',
                     "bad,1,2", '"4/16/2014 0:03:00",40.7,-74.0']).getvalue()
        report, want_report = IngestReport(), IngestReport()
        with pytest.raises(DataError, match="line 4"):
            parse_trips(io.StringIO(text), policy="strict", report=report)
        with pytest.raises(DataError, match="line 4"):
            ingest_oracle.parse_trips(io.StringIO(text), policy="strict", report=want_report)
        assert report.to_dict() == want_report.to_dict()
        assert report.parsed == 2 and report.dropped_parse == 1

    def test_skip_keeps_order(self):
        trips = parse_trips(_csv([
            '"4/16/2014 0:05:00",40.7,-74.0',
            "bad,1,2",
            '"4/16/2014 0:01:00",40.8,-73.9',
        ]))
        assert [t.minute for t, _, _ in _records(trips)] == [5, 1]

    def test_utc_offset_keeps_wall_clock(self):
        stream = io.StringIO("ts,Lat,Lon\n2014-04-16 00:03:00-0400,40.75,-73.99\n")
        fmt = TripFormat(time_column="ts", timestamp_format="%Y-%m-%d %H:%M:%S%z")
        assert _records(parse_trips(stream, fmt)) == [(datetime(2014, 4, 16, 0, 3), 40.75, -73.99)]

    def test_custom_columns(self):
        stream = io.StringIO("ts,latitude,longitude\n2014-04-16 00:03:00,40.75,-73.99\n")
        fmt = TripFormat(time_column="ts", lat_column="latitude",
                         lon_column="longitude",
                         timestamp_format="%Y-%m-%d %H:%M:%S")
        assert len(parse_trips(stream, fmt)) == 1

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text('\ufeffDate/Time,Lat,Lon\n"4/16/2014 0:03:00",40.75,-73.99\n',
                        encoding="utf-8")
        assert _records(parse_trips(path)) == [(datetime(2014, 4, 16, 0, 3), 40.75, -73.99)]


def _strptime_us(stamp, fmt):
    """Microseconds of ``datetime.strptime(stamp, fmt)``, or ``_BAD_US`` where
    it raises."""
    try:
        return ingest._to_us(datetime.strptime(stamp, fmt))
    except ValueError:
        return ingest._BAD_US


_DIGITS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
           "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
_STAMP_CHANGES = ("unpadded", "space-padded", "digits", "value", "separator", "trailing")


@st.composite
def _stamps(draw, fmt):
    """A datetime written in ``fmt`` (zero-padded), then up to three changes:
    a field unpadded, space-padded, in other decimal digits or set to any
    number to 99 (a year to 99,999); a separator dropped, doubled or
    replaced by whitespace or other text; trailing text."""
    t = draw(st.datetimes(min_value=datetime(1000, 1, 1)))
    text = [t.strftime(part) for part in re.split(r"(%[YmdHMS])", fmt) if part]
    fields = [i for i, part in enumerate(text) if part.isdigit()]
    seps = [i for i, part in enumerate(text) if not part.isdigit()]
    for _ in range(draw(st.integers(0, 3))):
        change = draw(st.sampled_from(_STAMP_CHANGES))
        i, j = draw(st.sampled_from(fields)), draw(st.sampled_from(seps))
        if change == "unpadded":
            text[i] = str(int(text[i]))
        elif change == "space-padded":
            text[i] = f"{int(text[i]):2d}"
        elif change == "digits":
            text[i] = text[i].translate(str.maketrans(_DIGITS[0], draw(st.sampled_from(_DIGITS))))
        elif change == "value":
            text[i] = str(draw(st.integers(0, 99_999 if len(text[i]) == 4 else 99)))
        elif change == "separator":
            text[j] = draw(st.sampled_from(["", " ", "\t\n ", "x", text[j] * 2]))
        else:
            text.append(draw(st.sampled_from([" ", "\n", "0", "x"])))
    return "".join(text)


class TestCompiledStampFormat:
    """The parser :func:`ingest._stamp_parser` builds from a format, which
    reads split formats a half at a time, gives the value of strptime on the
    whole stamp, or ``_BAD_US`` where strptime raises."""

    formats = ("%m/%d/%Y %H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S")

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_strptime(self, data):
        fmt = data.draw(st.sampled_from(self.formats))
        stamp = data.draw(_stamps(fmt))
        assert ingest._stamp_parser(fmt)(stamp) == _strptime_us(stamp, fmt)

    @pytest.mark.parametrize("fmt, stamp", [
        ("%m/%d/%Y %H:%M:%S", "4/6/2014 0:3:0"),             # single digits
        ("%m/%d/%Y %H:%M:%S", "4/ 6/2014 0:03:00"),          # space-padded day
        ("%m/%d/%Y %H:%M:%S", " 4/16/2014 0:03:00"),         # space before the month
        ("%m/%d/%Y %H:%M:%S", "2/29/2013 0:00:00"),          # Feb 29, not a leap year
        ("%m/%d/%Y %H:%M:%S", "2/29/2012 0:00:00"),
        ("%m/%d/%Y %H:%M:%S", "4/16/2014 0:00:60"),          # leap seconds
        ("%m/%d/%Y %H:%M:%S", "4/16/2014 0:00:61"),
        ("%m/%d/%Y %H:%M:%S", "4/16/2014 24:00:00"),
        ("%m/%d/%Y %H:%M:%S", "4/16/2014 0:03:00 UTC"),      # trailing text
        ("%m/%d/%Y %H:%M:%S", "4/16/2014 \t\n 0:03:00"),     # whitespace run
        ("%m/%d/%Y %H:%M:%S", "4/16/20140:03:00"),           # whitespace missing
        ("%m/%d/%Y %H:%M:%S", "4/1\u0666/\u0662\u0660\u0661\u0664 \u0660:03:00"),
        ("%m/%d/%Y %H:%M:%S", "\u0664/16/2014 0:03:00"),    # not in %m's pattern
        ("%Y-%m-%d %H:%M:%S", "2014-04-16 00:03:00"),
        ("%Y-%m-%d %H:%M:%S", "2014-4-6 0:3:0"),
        ("%Y-%m-%d %H:%M:%S", "2014-04-31 00:00:00"),
        ("%Y-%m-%d %H:%M:%S", "0000-01-01 00:00:00"),
        ("%Y-%m-%d %H:%M:%S", "12014-04-16 00:03:00"),
        ("%Y-%m-%dT%H:%M:%S", "2014-04-16t00:03:00"),        # case ignored
        ("%Y-%m-%dT%H:%M:%S", " 2014-04-16T00:03:00"),       # leading whitespace
        ("%Y-%m-%d %H:%M", "2014-04- 1 9:05"),               # first whitespace in the date
        ("%d %b %Y %H:%M", "16 Apr 2014 9:05"),              # not split
        ("%d.%m.%Y (%H|%M)", "16.04.2014 (00|03)"),           # regex characters
        ("%d.%m.%Y (%H|%M)", "16x04.2014 (00|03)"),
        ("%H:%M", "23:59"),                                   # absent fields default
        ("%m/%d", "2/29"),
    ])
    def test_cases(self, fmt, stamp):
        assert ingest._stamp_parser(fmt)(stamp) == _strptime_us(stamp, fmt)

    @pytest.mark.parametrize("ts_format, date_fmt, stamps", [
        ("%m/%d/%Y %H:%M:%S", "%m/%d/%Y",
         ["4/16/2014 0:03:00", "4/16/2014 \t\n 0:04:00", "4/17/2014 0:03:00"]),
        ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d",
         ["2014-04-16T00:03:00", "2014-04-16t00:04:00", "2014-04-17T00:03:00"]),
    ], ids=["default", "iso"])
    def test_split_formats_parse_each_half_once(self, monkeypatch, ts_format, date_fmt, stamps):
        strptime_us, calls = ingest._strptime_us, []

        def spy(text, fmt, since=ingest._EPOCH):
            calls.append(fmt)
            return strptime_us(text, fmt, since)

        monkeypatch.setattr(ingest, "_strptime_us", spy)
        parse = ingest._stamp_parser(ts_format)
        assert [parse(s) for s in stamps] == [_strptime_us(s, ts_format) for s in stamps]
        assert sorted(calls) == sorted([date_fmt] * 2 + ["%H:%M:%S"] * 2)

    @pytest.mark.parametrize("fmt", ["%Y-%m-%d %H:%M:%S%z", "%y-%m-%d", "%Y%%", "%d %b %Y"])
    def test_other_directives_take_strptime(self, fmt):
        parse = ingest._stamp_parser(fmt)
        written = datetime(2014, 4, 16, 9, 5, 7, tzinfo=timezone(timedelta(hours=-4))).strftime(fmt)
        for stamp in (written, written + "x", "4/16/2014 9:05:07"):
            assert parse(stamp) == _strptime_us(stamp, fmt)

    @pytest.mark.parametrize("fmt", ["%Y %Y", "%Y %", "%Q"])
    def test_malformed_format_raises(self, fmt):
        with pytest.raises(DataError, match="^timestamp_format .* is malformed"):
            ingest._stamp_parser(fmt)
        report = IngestReport()
        with pytest.raises(DataError, match="^timestamp_format"):
            parse_trips(_csv(["2014 2014,40.75,-73.99"]), TripFormat(timestamp_format=fmt),
                        report=report)
        assert report.row_errors == []


class TestAssignZone:
    zones = [
        make_zone("A", polygon=square(0, 0)),
        make_zone("B", polygon=square(1, 0)),
    ]

    def test_strict_containment(self):
        assert assign_zone((1.5, 0.5), self.zones) == "B"

    def test_shared_edge_lowest_id(self):
        assert assign_zone((1.0, 0.5), self.zones) == "A"

    def test_outside_drop(self):
        assert assign_zone((5.0, 5.0), self.zones) is None

    def test_outside_nearest(self):
        zones = [make_zone("A", centroid=(0.0, 1.0)), make_zone("B", centroid=(0.0, 2.0))]
        assert assign_zone((0.0, 0.0), zones, policy="nearest") == "A"

    def test_no_zones(self):
        with pytest.raises(DataError):
            assign_zone((0, 0), [])


def _trip(h, m, lat=0.5, lon=0.5):
    return (datetime(2014, 4, 16, h, m), lat, lon)


class TestBinCounts:
    zones = [make_zone("A", polygon=square(0, 0))]

    def test_floor_convention(self):
        panel = bin_counts(_trips([_trip(0, 3), _trip(0, 14), _trip(0, 16)]), self.zones)
        assert panel.values[0, 0] == 2
        assert panel.values[0, 1] == 1

    def test_boundary_goes_to_next_bin(self):
        panel = bin_counts(_trips([(datetime(2014, 4, 16, 0, 15, 0), 0.5, 0.5)]),
                           self.zones)
        assert panel.values[0, 1] == 1
        assert panel.values[0, 0] == 0

    def test_one_day_96_bins(self):
        panel = bin_counts(_trips([_trip(12, 0)]), self.zones)
        assert panel.T == 96

    def test_27_zones_full_day(self):
        zones = [make_zone(f"tad{i:02d}", polygon=square(i, 0)) for i in range(27)]
        rng = np.random.default_rng(3)
        trips = [(datetime(2014, 4, 16, int(h), int(m)), 0.5, float(z) + 0.5)
                 for h, m, z in zip(rng.integers(0, 24, 200),
                                    rng.integers(0, 60, 200),
                                    rng.integers(0, 27, 200))]
        panel = bin_counts(_trips(trips), zones)
        assert (panel.k, panel.T) == (27, 96)
        assert panel.values.sum() == 200

    def test_conservation_and_drops(self):
        report = IngestReport()
        trips = [_trip(0, 3), _trip(0, 4, lat=9.0, lon=9.0)]
        panel = bin_counts(_trips(trips), self.zones, report=report)
        assert panel.values.sum() == report.assigned == 1
        assert report.dropped_unassigned == 1

    def test_order_independence(self):
        rng = np.random.default_rng(4)
        trips = [_trip(int(h), int(m)) for h, m in
                 zip(rng.integers(0, 24, 50), rng.integers(0, 60, 50))]
        a = bin_counts(_trips(trips), self.zones)
        shuffled = list(trips)
        rng.shuffle(shuffled)
        b = bin_counts(_trips(shuffled), self.zones)
        assert np.array_equal(a.values, b.values)

    def test_bad_bin_minutes(self):
        with pytest.raises(DataError):
            bin_counts(_trips([_trip(0, 1)]), self.zones, bin_minutes=7)

    def test_drop_over_centroid_zones_is_data_error(self):
        # no zone has a polygon to hold a trip, so drop would assign none
        zones = [make_zone("A", centroid=(0.5, 0.5)), make_zone("B", centroid=(2.0, 0.5))]
        with pytest.raises(DataError, match="^assign_policy drop assigns no trip"):
            bin_counts(_trips([_trip(0, 1)]), zones)
        with pytest.raises(DataError, match="^assign_policy drop assigns no trip"):
            assign_zone((0.5, 0.5), zones)
        panel = bin_counts(_trips([_trip(0, 1)]), zones, assign_policy="nearest")
        assert panel.values[0].sum() == 1


class TestZoneLoaders:
    def test_geojson(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "properties": {"zone_id": "A"},
                "geometry": {"type": "Polygon",
                             "coordinates": [list(square(0, 0))]},
            }],
        }
        path = tmp_path / "zones.geojson"
        import json
        path.write_text(json.dumps(doc))
        zones = load_zones_geojson(path)
        assert zones[0].zone_id == "A"
        assert zones[0].centroid == (0.5, 0.5)

    def test_centroid_csv(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text("zone_id,lon,lat\nA,1.0,2.0\nB,3.0,4.0\n")
        zones = load_zones_centroid_csv(path)
        assert [z.zone_id for z in zones] == ["A", "B"]
        assert zones[1].centroid == (3.0, 4.0)

    def test_geojson_zone_error_names_the_file(self, tmp_path):
        path = tmp_path / "zones.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [{
            "type": "Feature", "properties": {"zone_id": "A"},
            "geometry": {"type": "Polygon",
                         "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1]]]}}]}))
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: zone A: polygon ring "
                                            "is not closed$"):
            load_zones_geojson(path)

    def test_centroid_csv_zone_error_names_the_file(self, tmp_path):
        path = tmp_path / "zones.csv"
        path.write_text("zone_id,lon,lat\nA,1.0,2.0\nB,nan,4.0\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: bad centroid row .*"
                                            r"zone B: centroid \(nan, 4.0\) is not finite$"):
            load_zones_centroid_csv(path)

    def test_geojson_missing_zone_id(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text('{"type": "FeatureCollection", "features": [{"properties": {}}]}')
        with pytest.raises(DataError, match="zone_id"):
            load_zones_geojson(path)


class TestTrips:
    def test_columns_are_read_only(self):
        trips = _trips([_trip(0, 3)])
        with pytest.raises(ValueError):
            trips.lat[0] = 1.0

    def test_unequal_columns_rejected(self):
        with pytest.raises(DataError, match="equal length"):
            Trips(time=[datetime(2014, 4, 16)], lat=[0.5, 0.6], lon=[0.5])


class TestZoneValidation:
    @pytest.mark.parametrize("kwargs", [
        {"polygon": [(0, 0), (1, 0), (float("nan"), 1), (0, 0)]},
        {"polygon": [(0, 0), (float("inf"), 0), (1, 1), (0, 0)]},
        {"centroid": (float("nan"), 1.0)},
    ], ids=["nan_vertex", "inf_vertex", "nan_centroid"])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(DataError, match="finite"):
            make_zone("A", **kwargs)

    def test_repeated_vertex_dropped(self):
        # a kept zero-length edge would put every point on a's boundary
        a = make_zone("a", polygon=[(0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
        assert a.polygon == tuple(square(0, 0))
        assert a.centroid == (0.5, 0.5)
        assert not point_in_ring(50, 50, a.polygon)
        assert assign_zone((10.5, 10.5), [a, make_zone("b", polygon=square(10, 10))]) == "b"

    def test_too_few_distinct_vertices_rejected(self):
        with pytest.raises(DataError, match="distinct"):
            make_zone("A", polygon=[(0, 0), (1, 0), (1, 0), (0, 0)])


# -- columnar ingest against the scalar oracle ---------------------------

def _oracle_zones(rng):
    """Zones covering every assignment case, in a scrambled order.

    A 3 x 2 block of unit squares (shared edges and vertices, horizontal
    edges), a triangle overlapping three of them, a jittered quad beside
    the block, and centroid-only zones placed so that some points are
    equidistant from two centroids.
    """
    zones = [make_zone(f"s{r}{c}", polygon=square(c, r)) for r in range(2) for c in range(3)]
    zones.append(make_zone("m_tri", polygon=[(0.5, 0.5), (2.5, 0.25), (1.5, 1.75), (0.5, 0.5)]))
    q = [(4 + rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)),
         (5 + rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)),
         (5 + rng.uniform(-0.2, 0.2), 1 + rng.uniform(-0.2, 0.2)),
         (4 + rng.uniform(-0.2, 0.2), 1 + rng.uniform(-0.2, 0.2))]
    zones.append(make_zone("j", polygon=q + q[:1]))
    zones += [make_zone("c_lo", centroid=(8.0, 0.0)), make_zone("c_hi", centroid=(8.0, 2.0)),
              make_zone("b_left", centroid=(6.0, 1.0)), make_zone("d_right", centroid=(10.0, 1.0))]
    return [zones[i] for i in rng.permutation(len(zones))]


def _oracle_points(rng, zones, n):
    """(lon, lat) points: random ones in and around the zones, vertices,
    edge points (horizontal edges included), points within 1e-13 of an
    edge on either side, and centroid-equidistant points."""
    pts = list(zip(rng.uniform(-1.0, 11.0, n), rng.uniform(-1.0, 3.0, n)))
    for z in zones:
        if z.polygon is None:
            continue
        ring = z.polygon
        for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
            for f in (0.0, 0.25, 0.5, rng.uniform()):
                x, y = x0 + f * (x1 - x0), y0 + f * (y1 - y0)
                pts += [(x, y), (x, y + 1e-13), (x, y - 1e-13), (x + 1e-13, y), (x - 3e-12, y)]
    pts += [(8.0, 1.0), (9.0, 1.0), (7.0, 1.0)] + _rounding_ties(zones, rng)
    return [(float(x), float(y)) for x, y in pts]


def _rounding_ties(zones, rng, n=200_000):
    """Points near the bisector of centroids b_left and c_lo whose nearest
    centroid depends on how the squared distances are rounded: Python's
    ``**`` and a plain product disagree on which is closer."""
    lat0 = sum(z.centroid[1] for z in zones) / len(zones)
    scale = math.cos(math.radians(lat0))
    (ax, ay), (bx, by) = (6.0 * scale, 1.0), (8.0 * scale, 0.0)
    t = rng.uniform(-0.3, 0.3, n)
    lon = ((ax + bx) / 2 - t * (by - ay)) / scale
    lat = (ay + by) / 2 + t * (bx - ax)

    def closer_to_a(square):
        px = lon * scale
        return (square(ax - px) + square(ay - lat)) < (square(bx - px) + square(by - lat))

    flips = closer_to_a(lambda v: np.float_power(v, 2.0)) != closer_to_a(np.square)
    return list(zip(lon[flips], lat[flips]))


def _oracle_csv(rng, points, start):
    """A trips CSV over ``points`` with bad rows of every kind mixed in;
    returns the text and the number of good rows."""
    good = []
    for i, (lon, lat) in enumerate(points):
        t = start + timedelta(minutes=int(rng.integers(-90, 2 * 1440 + 90)),
                              seconds=int(rng.integers(0, 60)))
        if i % 97 == 0:
            t = start
        elif i % 97 == 1:
            t = start + timedelta(days=2)
        good.append(f'"{t.month}/{t.day}/{t.year} {t.hour}:{t.minute:02d}:{t.second:02d}",'
                    f'{lat!r},{lon!r},B0')
    bad = [
        '"2014-04-16 08:15:00",40.75,-73.99,B1',     # wrong timestamp format
        '"4/16/2014 9:05:00",40.76',                 # short row
        '"4/16/2014 9:05:00"',                       # shorter row
        '"4/16/2014 9:06:00",nan,-73.98,B2',         # nan latitude
        '"4/16/2014 9:07:00",40.76,east,B3',         # non-numeric longitude
        '"4/16/2014 9:08:00",140.76,-73.97,B4',      # latitude out of range
        '"4/16/2014 9:09:00",40.76,-190.0,B4',       # longitude out of range
        '"4/16/2014\n9:10:00",40.76,-73.97,B5',      # multi-line timestamp (parses)
        '"4/16/2014 9:12:00","40.7\n6",-73.97,B5',   # multi-line latitude
        ' ',                                         # whitespace-only line
        '',                                          # blank line
        '\n',                                        # two blank lines
        '\n"4/16/2014 9:11:00",,-73.97,B6',          # bad row after a blank line
    ]
    rows = good + bad * 3
    rows = [rows[i] for i in rng.permutation(len(rows))]
    # a good row whose last field spans lines shifts every later line number
    rows.insert(len(rows) // 2, '"4/16/2014 12:00:00",0.5,0.5,"multi\nline\nbase"')
    # blank lines straight after the header, then a bad row
    rows = ["", "", bad[0]] + rows
    return "Date/Time,Lat,Lon,Base\n" + "\n".join(rows) + "\n\n", len(good) + 1


class TestOracleEquivalence:
    """Columnar parse, assignment and binning give the scalar oracle's
    values, reports and errors exactly."""

    start = datetime(2014, 4, 16)

    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        zones = _oracle_zones(rng)
        text, n_good = _oracle_csv(rng, _oracle_points(rng, zones, 1500), self.start)
        return zones, text, n_good

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parse_matches_oracle(self, seed):
        _, text, n_good = self._inputs(seed)
        report, want_report = IngestReport(), IngestReport()
        trips = parse_trips(io.StringIO(text), report=report)
        want = ingest_oracle.parse_trips(io.StringIO(text), report=want_report)
        assert _records(trips) == [tuple(r) for r in want]
        assert report.to_dict() == want_report.to_dict()
        assert len(trips) == n_good + 3 and report.dropped_parse == 3 * 10 + 1

    def test_repeated_column_reads_the_last(self):
        text = 'Date/Time,Lat,Lon,Lat\n"4/16/2014 0:03:00",1.0,2.0,3.0\n"4/16/2014 0:04:00",1.0,2.0\n'
        report, want_report = IngestReport(), IngestReport()
        trips = parse_trips(io.StringIO(text), report=report)
        want = ingest_oracle.parse_trips(io.StringIO(text), report=want_report)
        assert _records(trips) == [tuple(r) for r in want] == [(datetime(2014, 4, 16, 0, 3), 3.0, 2.0)]
        assert report.to_dict() == want_report.to_dict()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_strict_aborts_at_the_same_line(self, seed):
        _, text, _ = self._inputs(seed)
        report, want_report = IngestReport(), IngestReport()
        with pytest.raises(DataError) as got:
            parse_trips(io.StringIO(text), policy="strict", report=report)
        with pytest.raises(DataError) as want:
            ingest_oracle.parse_trips(io.StringIO(text), policy="strict", report=want_report)
        assert str(got.value) == str(want.value)
        assert report.to_dict() == want_report.to_dict()

    @pytest.mark.parametrize("block_rows", [1, 2, 7])
    def test_block_edges(self, monkeypatch, block_rows):
        """Bad rows, blank lines and multi-line records on block edges."""
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
        for seed in (0, 1, 2):
            self.test_parse_matches_oracle(seed)
        for seed in (0, 1):
            self.test_strict_aborts_at_the_same_line(seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("assign_policy", ["drop", "nearest"])
    @pytest.mark.parametrize("explicit_range", [True, False], ids=["range", "default_range"])
    def test_panel_matches_oracle(self, seed, assign_policy, explicit_range):
        zones, text, _ = self._inputs(seed)
        trips = parse_trips(io.StringIO(text))
        records = ingest_oracle.parse_trips(io.StringIO(text))
        day_range = (self.start, self.start + timedelta(days=2)) if explicit_range else None
        report, want_report = IngestReport(), IngestReport()
        panel = bin_counts(trips, zones, day_range=day_range, assign_policy=assign_policy,
                           report=report)
        want = ingest_oracle.bin_counts(records, zones, day_range=day_range,
                                        assign_policy=assign_policy, report=want_report)
        assert panel.zone_ids == want.zone_ids and panel.origin == want.origin
        assert np.array_equal(panel.values, want.values)
        assert report.to_dict() == want_report.to_dict()
        assert report.assigned > 0
        assert (report.dropped_outside_range > 0) == explicit_range
        assert (report.dropped_unassigned > 0) == (assign_policy == "drop")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_assignment_matches_oracle_point_by_point(self, seed):
        rng = np.random.default_rng(seed)
        zones = _oracle_zones(rng)
        points = _oracle_points(rng, zones, 300)
        for policy in ("drop", "nearest"):
            for pt in points:
                assert assign_zone(pt, zones, policy) == \
                    ingest_oracle.assign_zone(pt, zones, policy), (pt, policy)
        for z in zones:
            if z.polygon is not None:
                for px, py in points:
                    assert point_in_ring(px, py, z.polygon) == \
                        ingest_oracle.point_in_ring(px, py, z.polygon)

    def test_edge_cases_are_present(self):
        zones = _oracle_zones(np.random.default_rng(0))
        pts = _oracle_points(np.random.default_rng(0), zones, 0)
        hits = [[z.zone_id for z in zones if z.polygon is not None
                 and ingest_oracle.point_in_ring(x, y, z.polygon)] for x, y in pts]
        assert any(len(h) >= 2 for h in hits)             # shared edges and overlaps
        assert any(len(h) == 0 for h in hits)             # outside every polygon
        # equidistant from c_lo and c_hi: the lower id wins
        assert ingest_oracle.assign_zone((8.0, 1.0), zones, "nearest") == "c_hi"


# -- numpy's reader against csv.reader ----------------------------------

_GOOD_ROW = '"4/16/2014 0:03:00",40.7,-73.9,B0'
_BAD_ROW = '"4/16/2014 0:03:00",95,-73.9,B0'   # numpy reads it; the lat is out of range


def _parse_both(text, fmt=TripFormat(), policy="skip"):
    """(records or error, report) of ``parse_trips`` and of the oracle on
    ``text``, each read as from a file opened with ``newline=""``. A file
    that csv cannot tokenize reads as the error "unreadable" on both sides."""
    out = []
    for parse in (parse_trips, ingest_oracle.parse_trips):
        report = IngestReport()
        try:
            got = parse(io.StringIO(text, newline=""), fmt, policy=policy, report=report)
        except csv.Error:
            got = "unreadable"
        except DataError as e:
            got = "unreadable" if str(e).startswith("cannot read") else str(e)
        else:
            got = _records(got) if isinstance(got, Trips) else [tuple(r) for r in got]
        out.append((got, report.to_dict()))
    return out


def _assert_reads_as_oracle(monkeypatch, text, fmt=TripFormat()):
    for block_rows in (1, 2, 3, 256):
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
        for policy in ("skip", "strict"):
            got, want = _parse_both(text, fmt, policy)
            assert got == want, (block_rows, policy)


class TestNumpyReader:
    """A block is read by numpy's C reader only where that gives what
    ``csv.reader`` and ``float`` give: every case reads as the oracle does,
    at block sizes that put each line at a block's start, middle and end."""

    cases = {
        "text_after_quote": ['"4/16/2014 0:03:00"x,40.7,-73.9,B0',
                             '"4/16/2014 0:03:00","40.7"5,-73.9,"B"0'],
        "doubled_quotes": ['"4/16/""2014 0:03:00",40.7,-73.9,B0',
                           '"4/16/2014 0:03:00",40.7,-73.9,"B""0"', 'a""b,40.7,-73.9,B0'],
        "hash": ['"4/16/2014 0:03:00",40.7#1,-73.9,B0', "4/16/2014 0:03:00#,40.7,-73.9,B0",
                 '"4/16/2014 0:03:00",40.7,-73.9,B#0', "#4/16/2014 0:03:00,40.7,-73.9,B0"],
        "nul": ['"4/16/2014 0:03:00\0",40.7,-73.9,B0', '"4/16/2014 0:03:00",40.7\0,-73.9,B0',
                '"4/16/2014 0:03:00",40.7,-73.9,B0\0'],
        "underscores": ['"4/16/2014 0:03:00",4_0.7,-7_3.9,B0', '"4/16/2014 0:03:00",40_1,-73.9,B0'],
        "fullwidth": ['"4/16/2014 0:03:00",４０.７,-73.9,B0'],
        "spaces": ['"4/16/2014 0:03:00", 40.7 ,\xa0-73.9　,B0',
                   '"4/16/2014 0:03:00",\x1c40.7,-73.9\x1f,B0', " 4/16/2014 0:03:00,40.7,-73.9,B0"],
        "nan_inf": ['"4/16/2014 0:03:00",nan,-73.9,B0', '"4/16/2014 0:03:00",40.7,-inf,B0',
                    '"4/16/2014 0:03:00",1e400,Infinity,B0'],
        "blank_lines": ["", "", _BAD_ROW, " "],
        "spanning_record": ['"4/16/2014 0:03:00",40.7,-73.9,"multi\nline"',
                            '"4/16/2014\n0:03:00",40.7,-73.9,B0'],
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("case", list(cases))
    def test_reads_as_oracle(self, monkeypatch, case, eol):
        lines = ["Date/Time,Lat,Lon,Base", _GOOD_ROW, _GOOD_ROW]
        for record in self.cases[case]:
            lines += [record.replace("\n", eol), _GOOD_ROW, _BAD_ROW]
        _assert_reads_as_oracle(monkeypatch, eol.join(lines) + eol)

    def test_lat_column_is_lon_column(self, monkeypatch):
        rows = [_GOOD_ROW, _BAD_ROW, '"4/16/2014 0:03:00",-33.5,east,B0', _GOOD_ROW]
        _assert_reads_as_oracle(monkeypatch, "\n".join(["Date/Time,Lat,Lon,Base"] + rows) + "\n",
                                TripFormat(lon_column="Lat"))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_files(self, data):
        field = st.sampled_from
        stamp = field(['"4/16/2014 0:03:00"', "4/16/2014 0:04:00", '"4/16/2014 0:03:00\0"',
                       "4/16/2014 0:03:00#", '"4/1""6/2014 0:03:00"', '"4/16/2014\n0:03:00"',
                       "\x1c4/16/2014 0:03:00", '""', '"', ""])
        coord = field(["40.7", '"-73.9"', "120", " 40.7 ", "4_0.7", "４０", "nan", "-inf",
                       "1e400", "\x1c40.7", "40.7\x1f", "40.7\0", "\xa040.7", "40.7#", "", "east",
                       '"40.7"5', '"4""0"', '"40\n.7"', "95", "-190", '"1,2"'])
        base = field(["B0", '"B""0"', '"multi\nline"', "x#y", '"open', '"a\r\nb"', "\0", ""])
        rows = data.draw(st.lists(st.one_of(
            st.tuples(stamp, coord, coord, base).map(",".join),
            field(["", " ", '"4/16/2014 0:03:00",40.7'])), max_size=8))
        eol = data.draw(field(["\n", "\r\n", "\r"]))
        text = eol.join(["Date/Time,Lat,Lon,Base"] + rows) + data.draw(field([eol, ""]))
        for block_rows in (1, 2, 3, 256):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "_BLOCK_ROWS", block_rows)
                for policy in ("skip", "strict"):
                    got, want = _parse_both(text, policy=policy)
                    assert got == want, (block_rows, policy)

    def test_clean_block_is_read_by_numpy(self):
        lines = [_GOOD_ROW + "\n", _BAD_ROW + "\n", '"4/16/2014 0:04:00","-33.5",120,"B""1"\n']
        stamps, lat, lon = ingest._numpy_block(lines, (0, 1, 2))
        assert stamps.tolist() == ["4/16/2014 0:03:00", "4/16/2014 0:03:00", "4/16/2014 0:04:00"]
        assert lat.tolist() == [40.7, 95.0, -33.5] and lon.tolist() == [-73.9, -73.9, 120.0]

    @pytest.mark.parametrize("line", [
        "\n",                                         # a blank line
        '"4/16/2014\n',                               # a record that goes on
        '"4/16/2014 0:03:00\0",40.7,-73.9,B0\n',      # NUL
        '"4/16/2014 0:03:00",\x1c40.7,-73.9,B0\n',    # a separator float() does not strip
        '"4/16/2014 0:03:00",4_0.7,-73.9,B0\n',       # numpy raises
    ], ids=["blank", "open_quote", "nul", "file_separator", "underscore"])
    def test_other_blocks_go_to_csv(self, line):
        assert ingest._numpy_block([_GOOD_ROW + "\n", line], (0, 1, 2)) is None

    def test_field_over_csv_limit_goes_to_csv(self):
        huge = f'"4/16/2014 0:03:00",40.7,-73.9,"{"x" * csv.field_size_limit()}"\n'
        assert ingest._numpy_block([huge, _GOOD_ROW + "\n"], (0, 1, 2)) is None
