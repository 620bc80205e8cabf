import csv
import io
import re
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardemand.errors import ConfigError, DataError
from stardemand.estimators import LassoConfig
from stardemand.forecast import ScenarioGrid
from stardemand.ingest import Trips, bin_counts, check_bin_minutes, make_zone
from stardemand.panel import (
    KIND_REAL, ModelOrder, SplitSpec, make_panel, read_panel_csv, standardize,
    write_panel_csv,
)
from stardemand.synth import (
    KIND_STAR, ProcessSpec, random_centroid_stack, random_sparse_star_spec, synthetic_zone_ids,
)
from stardemand.weights import adjacency_rings, centroid_rings, make_adjacency

from conftest import traced_peak
from panel_oracle import write_panel_csv_per_value


class TestMakePanel:
    def test_valid_27x96(self):
        vals = np.arange(27 * 96).reshape(27, 96) % 7
        p = make_panel([f"tad{i}" for i in range(27)], vals)
        assert p.k == 27 and p.T == 96

    def test_all_zero_single_zone(self):
        p = make_panel(["only"], [[0, 0, 0]])
        assert p.values.sum() == 0

    def test_ragged_rows(self):
        for zone_ids, rows in ((["a", "b"], [[0] * 96, [0] * 95]), (["a"], [["x", 1]])):
            with pytest.raises(DataError, match="ragged"):
                make_panel(zone_ids, rows)

    def test_duplicate_zone_ids(self):
        with pytest.raises(DataError, match="duplicate"):
            make_panel(["a", "a"], [[1], [2]])

    def test_negative_raw_counts(self):
        with pytest.raises(DataError, match="negative"):
            make_panel(["a"], [[-1, 2]])

    def test_real_kind_allows_negatives(self):
        p = make_panel(["a"], [[-1.5, 2.0]], kind=KIND_REAL)
        assert p.values[0, 0] == -1.5

    def test_values_immutable(self):
        p = make_panel(["a"], [[1, 2, 3]])
        with pytest.raises(ValueError):
            p.values[0, 0] = 9


class TestSplit:
    def test_invariant(self):
        with pytest.raises(DataError):
            SplitSpec(t1=5, t2=5, t_end=10)


def _star_spec(length=10, burn_in=0, k=2):
    return ProcessSpec(kind=KIND_STAR, k=k, length=length, sigma=1.0, seed=0, burn_in=burn_in,
                       initial=np.zeros((2, 1)), order=ModelOrder(1, 1),
                       star_coefficients=np.zeros((2, 1)))


_ZONES = [make_zone(z, centroid=(i, 0)) for i, z in enumerate("ABC")]
_TRIPS = Trips(time=[datetime(2014, 4, 1, 0, 5)], lat=[0.0], lon=[0.0])

# every count a value type takes: (field, error class, build from the value,
# a valid value, the least valid value)
COUNTS = {
    "ModelOrder.p": ("p", DataError, lambda v: ModelOrder(v, 1), 2, 1),
    "ModelOrder.eta": ("eta", DataError, lambda v: ModelOrder(1, v), 2, 1),
    "SplitSpec.t1": ("t1", DataError, lambda v: SplitSpec(v, 80, 120), 40, 1),
    "SplitSpec.t2": ("t2", DataError, lambda v: SplitSpec(1, v, 120), 80, 1),
    "SplitSpec.t_end": ("t_end", DataError, lambda v: SplitSpec(1, 2, v), 120, 1),
    "LassoConfig.n_lambdas": ("n_lambdas", ConfigError, lambda v: LassoConfig(n_lambdas=v), 3, 1),
    "ProcessSpec.length": ("length", DataError, lambda v: _star_spec(length=v), 10, 1),
    "ProcessSpec.burn_in": ("burn_in", DataError, lambda v: _star_spec(burn_in=v), 5, 0),
    "centroid_rings.eta_max": ("eta_max", DataError, lambda v: centroid_rings(_ZONES, v), 2, 1),
    "adjacency_rings.eta_max": ("eta_max", DataError, lambda v: adjacency_rings(
        make_adjacency("ABC", [("A", "B")]), v), 2, 1),
    "check_bin_minutes": ("bin_minutes", DataError, check_bin_minutes, 15, 1),
    "bin_counts.bin_minutes": ("bin_minutes", DataError, lambda v: bin_counts(
        _TRIPS, _ZONES, bin_minutes=v, assign_policy="nearest"), 15, 1),
    "make_panel.bin_minutes": ("bin_minutes", DataError, lambda v: make_panel(
        ["a"], [[1.0]], bin_minutes=v), 15, 1),
    "ScenarioGrid.p_values": ("p_values", DataError, lambda v: ScenarioGrid(
        p_values=(1, v), eta_values=(1,), stacks=(), split=SplitSpec(40, 80, 120)), 2, 1),
    "ScenarioGrid.eta_values": ("eta_values", DataError, lambda v: ScenarioGrid(
        p_values=(1,), eta_values=(v,), stacks=(), split=SplitSpec(40, 80, 120)), 2, 1),
    "ProcessSpec.k": ("k", DataError, lambda v: _star_spec(k=v), 2, 1),
    "synthetic_zone_ids.k": ("k", DataError, synthetic_zone_ids, 3, 1),
    "random_centroid_stack.k": ("k", DataError, lambda v: random_centroid_stack(v, 1), 3, 1),
    "random_sparse_star_spec.k": ("k", DataError, lambda v: random_sparse_star_spec(
        v, ModelOrder(1, 1), random_centroid_stack(3, 1), sigma=1.0, length=10, seed=0), 3, 1),
}


@pytest.mark.parametrize("site", COUNTS)
@pytest.mark.parametrize("bad", ["fraction", "bool", "numpy_bool", "string", "below_minimum"])
def test_counts_checked_by_one_rule(site, bad):
    """Every count of the library's value types is an int (a numpy int too,
    never a bool) of at least its minimum; anything else raises the type's
    own error naming the field, not a numpy TypeError deep in a fit."""
    field, error, build, valid, minimum = COUNTS[site]
    value = {"fraction": 2.5, "bool": True, "numpy_bool": np.True_, "string": "3",
             "below_minimum": minimum - 1}[bad]
    with pytest.raises(error, match=rf"^{field} must .*\bint\b.*, got {re.escape(repr(value))}$"):
        build(value)


@pytest.mark.parametrize("site", COUNTS)
def test_numpy_int_is_a_count(site):
    _, _, build, valid, _ = COUNTS[site]
    build(np.int64(valid))


class TestStandardize:
    def test_two_point_population_sd(self):
        p = make_panel(["a"], [[2, 4]])
        out, std = standardize(p, (0, 2))
        assert np.allclose(out.values, [[-1.0, 1.0]])
        assert std.mean[0] == 3.0 and std.sd[0] == 1.0

    def test_zero_variance(self):
        p = make_panel(["a"], [[5, 5, 5]])
        with pytest.raises(DataError, match="zero-variance"):
            standardize(p, (0, 3))

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        p = make_panel(["a", "b"], rng.integers(0, 50, (2, 30)))
        out, std = standardize(p, (0, 20))
        back = out.values * std.sd[:, None] + std.mean[:, None]
        assert np.max(np.abs(back - p.values)) < 1e-12

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, row, salt):
        vals = np.array([row], dtype=float)
        if vals.std() <= 0:
            return
        p = make_panel(["z"], vals, kind=KIND_REAL)
        out, std = standardize(p, (0, len(row)))
        back = out.values * std.sd[:, None] + std.mean[:, None]
        scale = max(1.0, np.max(np.abs(vals)))
        assert np.max(np.abs(back - vals)) < 1e-12 * scale


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    p = make_panel(["a", "b", "c"], rng.normal(size=(3, 12)), kind=KIND_REAL)
    path = tmp_path / "panel.csv"
    write_panel_csv(p, path)
    with open(path) as fh:
        assert fh.readline().startswith("zone_id,bin_0,bin_1")
    q = read_panel_csv(path)
    assert q.zone_ids == p.zone_ids
    assert np.array_equal(q.values, p.values)


AWKWARD_VALUES = [-0.0, 999999999999999.0, 1e15, -1e15, 1e16, 1e-310, 5e-324, 1e300,
                  -1e300, 2.0, -3.0, 0.1, -2.5, 123456789.5]


def _same_bytes_as_oracle(panel, tmp_path):
    write_panel_csv(panel, tmp_path / "got.csv")
    write_panel_csv_per_value(panel, tmp_path / "want.csv")
    return (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("zone_id", ["", ",", '"', "cr\rx", "nl\nx", " sp", "z00"],
                         ids=["empty", "comma", "quote", "cr", "lf", "leading_space", "plain"])
def test_csv_bytes_match_per_value_writer(tmp_path, zone_id):
    """Integral values below 1e15 are written as ints, the rest as repr;
    the id is quoted exactly where csv.writer quotes it."""
    p = make_panel([zone_id, "b"], [AWKWARD_VALUES, AWKWARD_VALUES[::-1]], kind=KIND_REAL)
    assert _same_bytes_as_oracle(p, tmp_path)


@pytest.mark.parametrize("kind", ["counts", "normal"])
def test_csv_bytes_match_per_value_writer_on_whole_panels(tmp_path, kind):
    """An all-integer panel of ingest's shape, and a real-valued one."""
    rng = np.random.default_rng(4)
    vals = (rng.poisson(3.0, size=(27, 146)).astype(float) if kind == "counts"
            else rng.normal(size=(27, 300)))
    p = make_panel([f"z{i:02d}" for i in range(27)], vals, kind=KIND_REAL)
    assert _same_bytes_as_oracle(p, tmp_path)


def test_csv_read_holds_no_copy_of_the_file(tmp_path):
    """The rows are read as they stream. At the grid-month shape the read
    peaks at 2.8 times the panel's values (the rows, the panel built from
    them and one row's fields), where holding the file's lines whole for
    numpy's reader peaked at 7.1 times."""
    rng = np.random.default_rng(3)
    p = make_panel([f"z{i:02d}" for i in range(27)], rng.normal(size=(27, 2880)),
                   kind=KIND_REAL)
    path = tmp_path / "panel.csv"
    write_panel_csv(p, path)
    q, peak = traced_peak(lambda: read_panel_csv(path))
    assert np.array_equal(q.values, p.values)
    assert peak < 4 * p.values.nbytes


@pytest.mark.parametrize("rows,zone", [("A,1,2,3\nB,4,5,6\n", "A"), ("A,1\nB,2\n", "A"),
                                       ("A,1,2\nB,3,4,5\n", "B")],
                         ids=["longer", "shorter", "one_longer"])
def test_csv_row_length_must_match_header(tmp_path, rows, zone):
    """The header names two bins; a row with any other count is rejected,
    not read as a panel of another length."""
    path = tmp_path / "panel.csv"
    path.write_text("zone_id,bin_0,bin_1\n" + rows)
    with pytest.raises(DataError, match=f"row of zone {zone} has"):
        read_panel_csv(path)


@pytest.mark.parametrize("rows", [
    "A\0,1,2\nB,3,4\n",              # NUL, which numpy drops from a string's end
    "A,\x1c1,2\n",                    # a separator numpy strips and float() rejects
    '"A,1",1,2\nB,3,4\n',             # a quoted comma
    'A,1,2\n\nB,3,4\n',               # a blank line
    '"A\nB",1,2\n',                   # a record spanning lines
    "A,1#,2\n#B,3,4\n",               # comment characters
    'A,"1",2\nB,"3"4,5\n',            # quotes, text after a closing quote
    "A,1_0,2\nB,４, 5 \n",            # underscores, fullwidth digits, spaces
    "A,1,2\r\nB,3,4\r\n",
    "A,1,2\rB,3,4\r",
], ids=["nul", "file_separator", "quoted_comma", "blank_line", "spanning", "hash", "quotes",
        "float_forms", "crlf", "cr"])
def test_csv_reads_as_rows(tmp_path, rows):
    """Each row reads as ``csv.reader`` and ``np.array(..., dtype=float)``
    read it, where numpy's reader would read it alone or not at all."""
    path = tmp_path / "panel.csv"
    text = "zone_id,bin_0,bin_1\n" + rows
    path.write_text(text, newline="")
    records = [r for r in csv.reader(io.StringIO(text, newline=""))][1:]
    try:
        want = [(r[0], np.array(r[1:], dtype=float)) for r in records if r]
    except ValueError:
        with pytest.raises(DataError, match="bad value in row A"):
            read_panel_csv(path)
        return
    got = read_panel_csv(path)
    assert got.zone_ids == tuple(z for z, _ in want)
    assert np.array_equal(got.values, np.array([v for _, v in want]))
