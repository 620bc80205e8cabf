import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stardemand.errors import DataError
from stardemand.panel import (
    KIND_REAL, SplitSpec, make_panel, read_panel_csv, standardize,
    write_panel_csv,
)


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
