"""Seeded benchmark inputs: the 3 x 9 zone tessellation, an April-2014-shaped
trip CSV with its exact expected ingest output, and the CLI configs.

Nothing here calls the code under test to decide what the right answer is:
the trip generator places every pick-up strictly inside a known zone (or in
an explicit outside-all-zones band) and every unparsable row on a known
line, so the expected ``panel.csv`` and ``ingest_report.json`` counts follow
from construction alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# 3 columns (west -> east) x 9 rows (south -> north) of quadrilateral zones,
# rotated like Manhattan's street grid.
N_COLS = 3
N_ROWS = 9
K_ZONES = N_COLS * N_ROWS
ORIGIN_LONLAT = (-74.012, 40.702)
CELL_DEG = (0.0115, 0.0195)   # cell width (along cols) and height (along rows)
ROTATION_DEG = 29.0
VERTEX_JITTER = 0.12          # interior vertex offset, in cell units
INSIDE_MARGIN = 0.06          # trips keep this far from zone edges, in cell units

# April 2014 file shape.
APRIL_ROWS = 564_516
APRIL_DAYS = 30
BASES = ("B02512", "B02598", "B02617", "B02682", "B02764")
OUTSIDE_SHARE = 0.2           # trips in the outside-all-zones band
BAD_ROW_SHARE = 0.0005        # unparsable rows
BIN_MINUTES = 15
WINDOW = ("2014-04-16", "2014-04-17 12:30")   # the non-rush config's series
WINDOW_MINUTES = (15 * 1440, 16 * 1440 + 750)  # minutes since April 1 00:00


def zone_ids() -> list[str]:
    """Zone ids of the tessellation; the same ids the synthetic generators use."""
    return [f"z{i:02d}" for i in range(K_ZONES)]


# -- tessellation ---------------------------------------------------------

def _to_lonlat(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lattice coordinates (u along columns, v along rows, in cells) to degrees."""
    a = math.radians(ROTATION_DEG)
    x = u * CELL_DEG[0]
    y = v * CELL_DEG[1]
    lon = ORIGIN_LONLAT[0] + x * math.cos(a) - y * math.sin(a)
    lat = ORIGIN_LONLAT[1] + x * math.sin(a) + y * math.cos(a)
    return lon, lat


@dataclass(frozen=True)
class Tessellation:
    """Lattice vertices in cell units; zone r * N_COLS + c is the quad with
    corners (c, r), (c+1, r), (c+1, r+1), (c, r+1)."""

    u: np.ndarray   # (N_ROWS + 1) x (N_COLS + 1)
    v: np.ndarray

    def corners(self, zone: int) -> np.ndarray:
        """4 x 2 lattice corners of a zone, counter-clockwise."""
        r, c = divmod(zone, N_COLS)
        idx = [(r, c), (r, c + 1), (r + 1, c + 1), (r + 1, c)]
        return np.array([(self.u[i, j], self.v[i, j]) for i, j in idx])

    def ring_lonlat(self, zone: int) -> list[list[float]]:
        q = self.corners(zone)
        lon, lat = _to_lonlat(q[:, 0], q[:, 1])
        ring = [[float(x), float(y)] for x, y in zip(lon, lat)]
        return ring + [ring[0]]

    def edges(self) -> list[tuple[str, str]]:
        """Rook contiguity: zones sharing a lattice edge."""
        ids = zone_ids()
        out = []
        for r in range(N_ROWS):
            for c in range(N_COLS):
                z = r * N_COLS + c
                if c + 1 < N_COLS:
                    out.append((ids[z], ids[z + 1]))
                if r + 1 < N_ROWS:
                    out.append((ids[z], ids[z + N_COLS]))
        return out


def make_tessellation(seed: int) -> Tessellation:
    """Lattice with seeded jitter on interior vertices; the outer boundary
    stays a straight-edged rectangle so the outside band is easy to place."""
    rng = np.random.default_rng([seed, 1])
    v, u = np.mgrid[0:N_ROWS + 1, 0:N_COLS + 1].astype(float)
    interior = np.zeros(u.shape, dtype=bool)
    interior[1:-1, 1:-1] = True
    u[interior] += rng.uniform(-VERTEX_JITTER, VERTEX_JITTER, interior.sum())
    v[interior] += rng.uniform(-VERTEX_JITTER, VERTEX_JITTER, interior.sum())
    tess = Tessellation(u=u, v=v)
    for z in range(K_ZONES):
        q = tess.corners(z)
        e = np.roll(q, -1, axis=0) - q
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if not np.all(cross > 0):
            raise ValueError(f"zone {z} is not a convex counter-clockwise quad")
    return tess


def write_tessellation(tess: Tessellation, directory: Path) -> tuple[Path, Path]:
    """Write ``zones.geojson`` (``zone_id`` properties) and ``adjacency.csv``."""
    directory.mkdir(parents=True, exist_ok=True)
    ids = zone_ids()
    doc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"zone_id": ids[z]},
         "geometry": {"type": "Polygon", "coordinates": [tess.ring_lonlat(z)]}}
        for z in range(K_ZONES)
    ]}
    zones_path = directory / "zones.geojson"
    zones_path.write_text(json.dumps(doc))
    adj_path = directory / "adjacency.csv"
    adj_path.write_text("zone_a,zone_b\n" + "".join(f"{a},{b}\n" for a, b in tess.edges()))
    return zones_path, adj_path


def bilinear(q: np.ndarray, s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points of a convex quad at bilinear parameters (s, t) in [0, 1]^2;
    q holds the corners as returned by :meth:`Tessellation.corners`."""
    w = [(1 - s) * (1 - t), s * (1 - t), s * t, (1 - s) * t]
    u = sum(wi * q[i, 0] for i, wi in enumerate(w))
    v = sum(wi * q[i, 1] for i, wi in enumerate(w))
    return u, v


# -- April-shaped trips ---------------------------------------------------

@dataclass
class TripFixture:
    """What the generated trip CSV must ingest to."""

    counts: np.ndarray          # K_ZONES x n_bins expected panel
    parsed: int
    assigned: int
    dropped_parse: int
    dropped_outside_range: int
    dropped_unassigned: int
    bad_lines: list[int]        # CSV line numbers (header is line 1)
    lon: np.ndarray             # rounded coordinates as written, per data row
    lat: np.ndarray
    zone: np.ndarray            # containing zone per row, -1 outside all zones

    def expected_report(self) -> dict:
        return {
            "parsed": self.parsed,
            "assigned": self.assigned,
            "dropped_parse": self.dropped_parse,
            "dropped_outside_range": self.dropped_outside_range,
            "dropped_unassigned": self.dropped_unassigned,
        }


def _diurnal_weights() -> np.ndarray:
    """Per-minute pick-up intensity: a night trough and two peaks."""
    h = np.arange(1440) / 60.0
    w = (0.25 + np.exp(-0.5 * ((h - 8.5) / 1.5) ** 2)
         + 1.3 * np.exp(-0.5 * ((h - 18.5) / 2.5) ** 2))
    return w / w.sum()


def _timestamp_table() -> list[str]:
    """``M/D/YYYY H:MM:SS`` for every minute of April 2014."""
    return [f"4/{d + 1}/2014 {m // 60}:{m % 60:02d}:00"
            for d in range(APRIL_DAYS) for m in range(1440)]


_BAD_ROWS = (
    '"2014-04-{d:02d} 08:15:00","40.7500","-73.9900","B02512"',   # wrong timestamp format
    '"4/{d}/2014 9:05:00","","-73.9800","B02598"',                # missing latitude
    '"4/{d}/2014 17:40:00","40.7600","east","B02617"',            # non-numeric longitude
    '"4/{d}/2014 12:00:00","140.7600","-73.9700","B02682"',       # latitude out of range
)


def make_trips(seed: int, directory: Path, rows: int = APRIL_ROWS) -> TripFixture:
    """Write ``trips.csv`` shaped like ``uber-raw-data-apr14.csv``.

    Rows are grouped by base and sorted by time within a base, as in the
    public file. Coordinates are written with four decimals; inside trips
    sit at least INSIDE_MARGIN cells from every zone edge, far more than the
    rounding moves them.
    """
    rng = np.random.default_rng([seed, 2])
    tess = make_tessellation(seed)

    n_bad = max(len(_BAD_ROWS), int(round(rows * BAD_ROW_SHARE)))
    n_good = rows - n_bad
    minute = (rng.integers(0, APRIL_DAYS, n_good) * 1440
              + rng.choice(1440, size=n_good, p=_diurnal_weights()))
    base = rng.integers(0, len(BASES), n_good)
    order = np.lexsort((minute, base))
    minute, base = minute[order], base[order]

    # zone popularity is skewed like real demand; -1 marks the outside band
    popularity = rng.lognormal(0.0, 0.8, K_ZONES)
    outside = rng.random(n_good) < OUTSIDE_SHARE
    zone = np.where(outside, -1, rng.choice(K_ZONES, size=n_good, p=popularity / popularity.sum()))
    s = rng.uniform(INSIDE_MARGIN, 1 - INSIDE_MARGIN, n_good)
    t = rng.uniform(INSIDE_MARGIN, 1 - INSIDE_MARGIN, n_good)
    u = np.empty(n_good)
    v = np.empty(n_good)
    for z in range(K_ZONES):
        sel = zone == z
        u[sel], v[sel] = bilinear(tess.corners(z), s[sel], t[sel])
    # outside band: east of the lattice, beyond a full margin
    u[outside] = N_COLS + INSIDE_MARGIN + s[outside] * 1.5
    v[outside] = t[outside] * N_ROWS
    lon, lat = _to_lonlat(u, v)
    lon = np.round(lon, 4)
    lat = np.round(lat, 4)

    # unparsable rows land at distinct random positions among the data rows
    bad_pos = np.sort(rng.choice(rows, size=n_bad, replace=False))
    is_bad = np.zeros(rows, dtype=bool)
    is_bad[bad_pos] = True

    # rows are formatted in chunks while writing, so the fixture never holds
    # the file in memory and the process peak RSS stays the ingest pass's own
    stamps = _timestamp_table()
    bad_kind = rng.integers(0, len(_BAD_ROWS), n_bad)
    bad_day = rng.integers(1, APRIL_DAYS + 1, n_bad)
    n_bad_before = np.concatenate(([0], np.cumsum(is_bad)))
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "trips.csv", "w", newline="") as fh:
        fh.write('"Date/Time","Lat","Lon","Base"\n')
        for first in range(0, rows, 1 << 15):
            last = min(rows, first + (1 << 15))
            b0, b1 = n_bad_before[first], n_bad_before[last]
            g0, g1 = first - b0, last - b1
            good = zip(minute[g0:g1].tolist(), lat[g0:g1].tolist(),
                       lon[g0:g1].tolist(), base[g0:g1].tolist())
            bad = zip(bad_kind[b0:b1].tolist(), bad_day[b0:b1].tolist())
            lines = []
            for flag in is_bad[first:last].tolist():
                if flag:
                    kind, day = next(bad)
                    lines.append(_BAD_ROWS[kind].format(d=day) + "\n")
                else:
                    mi, la, lo, b = next(good)
                    lines.append(f'"{stamps[mi]}","{la:.4f}","{lo:.4f}","{BASES[b]}"\n')
            fh.writelines(lines)

    lo_m, hi_m = WINDOW_MINUTES
    in_win = (minute >= lo_m) & (minute < hi_m)
    hit = in_win & (zone >= 0)
    counts = np.zeros((K_ZONES, (hi_m - lo_m) // BIN_MINUTES), dtype=np.int64)
    np.add.at(counts, (zone[hit], (minute[hit] - lo_m) // BIN_MINUTES), 1)
    return TripFixture(
        counts=counts, parsed=n_good, assigned=int(hit.sum()),
        dropped_parse=n_bad, dropped_outside_range=int((~in_win).sum()),
        dropped_unassigned=int((in_win & (zone < 0)).sum()),
        bad_lines=(bad_pos + 2).tolist(),
        lon=lon, lat=lat, zone=zone,
    )


INGEST_CONFIG = """\
output_dir: out
ingest:
  trips: trips.csv
  zones: zones.geojson
  bin_minutes: {bin_minutes}
  parse_policy: skip
  assign_policy: drop
  day_range: ["{lo}", "{hi}"]
"""


def write_ingest_config(directory: Path) -> None:
    (directory / "ingest.yaml").write_text(
        INGEST_CONFIG.format(bin_minutes=BIN_MINUTES, lo=WINDOW[0], hi=WINDOW[1]))


# -- grid inputs ----------------------------------------------------------

GRID_CONFIG = """\
output_dir: out
panel: panel.csv
stacks:
  w: stack
split: {{t1: {t1}, t2: {t2}, t_end: {t_end}}}
standardize: true
grid:
  models: {models}
  p: {p}
  eta: {eta}
  include_var: true
"""


def write_grid_config(directory: Path, split: tuple[int, int, int], name: str = "grid.yaml",
                      models=("star", "lasso_star"), p=(1, 2, 3, 4),
                      eta=(1, 2, 3, 4, 5, 6)) -> None:
    t1, t2, t_end = split
    (directory / name).write_text(GRID_CONFIG.format(
        t1=t1, t2=t2, t_end=t_end, models=list(models), p=list(p), eta=list(eta)))


def zone_permutation(seed: int, k: int) -> np.ndarray:
    """Seeded zone order for a grid workload's panel and stack files."""
    return np.random.default_rng([seed, 3]).permutation(k)
