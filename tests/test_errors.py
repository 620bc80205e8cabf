"""Every reader of an input file reports a file it cannot open, decode,
tokenize or parse as a DataError naming the file, never a traceback; a config
file is a ConfigError. Every CSV reader accepts a UTF-8 byte-order mark."""

import re

import pytest

from stardemand.cli import load_config
from stardemand.errors import ConfigError, DataError
from stardemand.estimators import read_model_json
from stardemand.ingest import (
    load_zones_centroid_csv, load_zones_geojson, make_zone, parse_trips,
)
from stardemand.panel import make_panel, read_panel_csv, write_panel_csv
from stardemand.weights import centroid_rings, read_adjacency_csv, read_stack, write_stack

TRIPS_HEADER = b"Date/Time,Lat,Lon,Base\n4/1/2014 0:11:00,40.769,-73.9549,B02512\n"


@pytest.mark.parametrize("name,content,read", [
    ("trips.csv", TRIPS_HEADER + "4/1/2014 0:17:00,40.7267,-74.0345,Bé\n".encode("latin-1"),
     parse_trips),
    ("trips.csv", TRIPS_HEADER + b'4/1/2014 0:17:00,40.7267,-74.0345,"' + b"x" * 200_000 + b'"\n',
     parse_trips),
    ("trips.csv", TRIPS_HEADER + b'4/1/2014 0:17:00,40.7267,-74.0345,"' + b"x" * 200_000 + b'"\n'
     + TRIPS_HEADER.splitlines(keepends=True)[1], parse_trips),
    ("panel.csv", b"zone_id,bin_0,bin_1\nA\xff,1,2\n", read_panel_csv),
    ("zones.geojson", b'{"type": "FeatureCollection", "name": "\xe9", "features": []}',
     load_zones_geojson),
    ("zones.csv", b"zone_id,lon,lat\nA\xe9,0,0\n", load_zones_centroid_csv),
    ("adj.csv", b"zone_a,zone_b\nA,B\xe9\n", lambda path: read_adjacency_csv(path, ["A", "B"])),
    ("manifest.json", b'{"files": ["w\xe9.csv"]}', lambda path: read_stack(path.parent)),
    ("model.json", None, read_model_json),
], ids=["trips_latin1", "trips_huge_field", "trips_huge_field_mid_block", "panel",
        "zones_geojson", "zones_csv", "adjacency", "stack_manifest", "model_missing"])
def test_unreadable_input_is_data_error(tmp_path, name, content, read):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError, match=f"^cannot read .*{re.escape(str(path))}"):
        read(path)


def test_undecodable_config_is_config_error(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_bytes(b"ingest:\n  trips: trips\xff.csv\n")
    with pytest.raises(ConfigError, match=f"^invalid YAML in {re.escape(str(path))}"):
        load_config(path)


def _stack_dir(path):
    zones = [make_zone(z, centroid=(i, 0)) for i, z in enumerate("ABC")]
    write_stack(centroid_rings(zones, 2), path.parent)
    return path.parent


@pytest.mark.parametrize("name,write,read", [
    ("trips.csv", lambda p: p.write_bytes(TRIPS_HEADER),
     lambda p: parse_trips(p).lat.tolist()),
    ("panel.csv", lambda p: write_panel_csv(make_panel(["A", "B"], [[1, 2], [3, 4]]), p),
     lambda p: (read_panel_csv(p).zone_ids, read_panel_csv(p).values.tolist())),
    ("zones.csv", lambda p: p.write_text("zone_id,lon,lat\nA,1,2\n"),
     load_zones_centroid_csv),
    ("adj.csv", lambda p: p.write_text("zone_a,zone_b\nA,B\n"),
     lambda p: read_adjacency_csv(p, ["A", "B"]).edges),
    ("w0.csv", _stack_dir,
     lambda p: [m.tolist() for m in read_stack(p.parent).matrices]),
], ids=["trips", "panel", "zones_csv", "adjacency", "stack_matrix"])
def test_byte_order_mark_is_read_past(tmp_path, name, write, read):
    path = tmp_path / name
    write(path)
    want = read(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read(path) == want
