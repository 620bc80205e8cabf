import numpy as np
import pytest

from stardemand.errors import DataError
from stardemand.ingest import make_zone
from stardemand.weights import (
    WeightStack, adjacency_rings, centroid_rings, make_adjacency,
    read_adjacency_csv, read_stack, row_normalize, validate_stack, write_stack,
)

from conftest import replace_first_cell
from ring_oracle import adjacency_ring, centroid_ranks, centroid_ring, ring_matrices


class TestCentroidRings:
    def test_line_rings(self, line_zones):
        # origin A at x=0: B (d=1) is ring 1, C (d=3) is ring 2
        stack = centroid_rings(line_zones, 3)
        assert np.array_equal(stack.matrices[1][0], [0, 1, 0])
        assert np.array_equal(stack.matrices[2][0], [0, 0, 1])
        # origin C at x=3: B (d=2) ring 1, A (d=3) ring 2
        assert np.array_equal(stack.matrices[1][2], [0, 1, 0])
        assert np.array_equal(stack.matrices[2][2], [1, 0, 0])

    def test_eta_one_is_identity_only(self, line_zones):
        stack = centroid_rings(line_zones, 1)
        assert stack.eta_max == 1
        assert np.array_equal(stack.matrices[0], np.eye(3))

    def test_tie_broken_by_zone_id(self):
        zones = [
            make_zone("origin", centroid=(0.0, 0.0)),
            make_zone("far_b", centroid=(1.0, 0.0)),
            make_zone("far_a", centroid=(1.0, 0.0)),  # same centroid as far_b
        ]
        stack = centroid_rings(zones, 3)
        i = stack.zone_ids.index("origin")
        ring1 = np.flatnonzero(stack.matrices[1][i] > 0)
        assert stack.zone_ids[ring1[0]] == "far_a"

    def test_too_many_rings(self, line_zones):
        with pytest.raises(DataError):
            centroid_rings(line_zones, 4)

    def test_near_equal_partition(self):
        # 26 others into 5 rings -> sizes 6,5,5,5,5 with the extra up front
        rng = np.random.default_rng(7)
        zones = [make_zone(f"z{i:02d}", centroid=tuple(rng.random(2)))
                 for i in range(27)]
        stack = centroid_rings(zones, 6)
        sizes = [int(np.count_nonzero(stack.matrices[l][0])) for l in range(1, 6)]
        assert sizes == [6, 5, 5, 5, 5]

    def test_scaling_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.random((6, 2))
        zones1 = [make_zone(f"z{i}", centroid=tuple(p)) for i, p in enumerate(pts)]
        zones2 = [make_zone(f"z{i}", centroid=tuple(p * 37.5)) for i, p in enumerate(pts)]
        s1 = centroid_rings(zones1, 4)
        s2 = centroid_rings(zones2, 4)
        for a, b in zip(s1.matrices, s2.matrices):
            assert np.array_equal(a, b)


class TestAdjacencyRings:
    def test_path_graph(self):
        g = make_adjacency(["A", "B", "C"], [("A", "B"), ("B", "C")])
        stack = adjacency_rings(g, 3)
        assert np.array_equal(stack.matrices[1][0], [0, 1, 0])
        assert np.array_equal(stack.matrices[2][0], [0, 0, 1])

    def test_star_graph_uniform_ring(self):
        g = make_adjacency(["A", "B", "C", "D"],
                           [("A", "B"), ("A", "C"), ("A", "D")])
        stack = adjacency_rings(g, 2)
        assert np.allclose(stack.matrices[1][0], [0, 1 / 3, 1 / 3, 1 / 3])

    def test_disconnected_zone_zero_rows(self):
        g = make_adjacency(["A", "B", "Z"], [("A", "B")])
        stack = adjacency_rings(g, 3)
        zi = stack.zone_ids.index("Z")
        for l in (1, 2):
            assert np.all(stack.matrices[l][zi] == 0)

    def test_relabel_invariance(self):
        edges = [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")]
        ids = ["A", "B", "C", "D"]
        g1 = adjacency_rings(make_adjacency(ids, edges), 3)
        relabel = {"A": "C", "B": "D", "C": "A", "D": "B"}
        g2 = adjacency_rings(
            make_adjacency(ids, [(relabel[a], relabel[b]) for a, b in edges]), 3)
        perm = [g2.zone_ids.index(relabel[z]) for z in g1.zone_ids]
        for m1, m2 in zip(g1.matrices, g2.matrices):
            assert np.allclose(m1, m2[np.ix_(perm, perm)])

    def test_self_loop_rejected(self):
        with pytest.raises(DataError, match="self-loop"):
            make_adjacency(["A"], [("A", "A")])

    def test_duplicate_zone_id_rejected(self):
        # both A's would take the last one's ring, leaving the first all zero
        with pytest.raises(DataError, match="duplicate zone ids A$"):
            make_adjacency(["A", "B", "A"], [("A", "B")])


class TestRingOracle:
    """Both schemes against the pair-by-pair oracle, on tied distances,
    repeated and out-of-order zone ids, and graphs with isolated zones."""

    @pytest.mark.parametrize("seed", range(12))
    def test_centroid_rings(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 25))
        # a small integer lattice: many tied distances and shared centroids
        pts = rng.integers(0, 4, size=(k, 2)) * 0.7 if seed % 3 else rng.random((k, 2))
        ids = [f"{'abc'[rng.integers(0, 3)]}{i}" for i in rng.permutation(k)]
        if seed % 4 == 1 and k > 2:
            ids[2] = ids[0]
        zones = [make_zone(z, centroid=tuple(p)) for z, p in zip(ids, pts)]
        rank = centroid_ranks(pts, ids)
        for eta_max in range(1, k + 1):
            stack = centroid_rings(zones, eta_max)
            want = ring_matrices(centroid_ring(rank, eta_max), eta_max)
            assert all(np.array_equal(a, b) for a, b in zip(stack.matrices, want, strict=True))

    @pytest.mark.parametrize("seed", range(12))
    def test_adjacency_rings(self, seed):
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(1, 25))
        ids = [f"Z{i}" for i in rng.permutation(k)]
        density = (0.05, 0.15, 0.4)[seed % 3]
        edges = [(ids[i], ids[j]) for i in range(k) for j in range(i + 1, k)
                 if rng.random() < density]
        graph = make_adjacency(ids, edges)
        for eta_max in range(1, k + 2):
            stack = adjacency_rings(graph, eta_max)
            want = ring_matrices(adjacency_ring(ids, edges, eta_max), eta_max)
            assert all(np.array_equal(a, b) for a, b in zip(stack.matrices, want, strict=True))


class TestRowNormalize:
    def test_basic(self):
        assert np.allclose(row_normalize(np.array([[0, 1, 1, 0.]])), [[0, .5, .5, 0]])

    def test_zero_row_unchanged(self):
        assert np.array_equal(row_normalize(np.zeros((1, 4))), np.zeros((1, 4)))

    def test_single_entry(self):
        assert np.allclose(row_normalize(np.array([[2, 0, 0, 0.]])), [[1, 0, 0, 0]])

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            row_normalize(np.array([[-1.0, 2.0]]))


class TestValidateStack:
    def test_w0_not_identity(self):
        bad = WeightStack(matrices=(np.ones((2, 2)) / 2,), scheme="centroid",
                          zone_ids=("a", "b"))
        report = {c["check"]: c["ok"] for c in validate_stack(bad)}
        assert not report["w0_identity"]

    def test_valid_27_zone_stack(self):
        rng = np.random.default_rng(9)
        zones = [make_zone(f"z{i:02d}", centroid=tuple(rng.random(2)))
                 for i in range(27)]
        stack = centroid_rings(zones, 6)
        assert all(c["ok"] for c in validate_stack(stack))

    def test_bad_row_sum(self):
        m1 = np.array([[0.0, 0.98], [1.0, 0.0]])
        bad = WeightStack(matrices=(np.eye(2), m1), scheme="centroid",
                          zone_ids=("a", "b"))
        report = {c["check"]: c["ok"] for c in validate_stack(bad)}
        assert not report["row_sum"]

    def test_nan_weight(self, line_stack):
        m1 = np.array(line_stack.matrices[1])
        m1[0, 1] = np.nan
        bad = WeightStack(matrices=(line_stack.matrices[0], m1) + line_stack.matrices[2:],
                          scheme="centroid", zone_ids=line_stack.zone_ids)
        report = {c["check"]: c["ok"] for c in validate_stack(bad)}
        assert not report["finite"]

    def test_zone_in_its_own_ring(self, tmp_path, line_stack):
        # zone A as its own ring-1 neighbour would give it two identical
        # design columns, own lag and ring-1 lag
        m1 = np.array(line_stack.matrices[1])
        m1[0] = [1.0, 0.0, 0.0]
        bad = WeightStack(matrices=(line_stack.matrices[0], m1) + line_stack.matrices[2:],
                          scheme="centroid", zone_ids=line_stack.zone_ids)
        report = {c["check"]: c["ok"] for c in validate_stack(bad)}
        assert not report["disjoint_rings"]
        assert all(ok for check, ok in report.items() if check != "disjoint_rings")
        write_stack(bad, tmp_path / "stack")
        with pytest.raises(DataError, match="disjoint_rings"):
            read_stack(tmp_path / "stack")

    def test_ring_partition_bound(self):
        rng = np.random.default_rng(10)
        zones = [make_zone(f"z{i}", centroid=tuple(rng.random(2))) for i in range(9)]
        stack = centroid_rings(zones, 5)
        k = 9
        for i in range(k):
            total = sum(int(np.count_nonzero(stack.matrices[l][i]))
                        for l in range(1, stack.eta_max))
            assert total == k - 1  # eta_max-1 <= k-1, so rings cover all others


def test_stack_round_trip(tmp_path, line_stack):
    write_stack(line_stack, tmp_path / "stack")
    back = read_stack(tmp_path / "stack")
    assert back.scheme == line_stack.scheme
    assert back.zone_ids == line_stack.zone_ids
    for a, b in zip(back.matrices, line_stack.matrices):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("cell", ["nan", "inf", "abc", ""])
def test_read_stack_rejects_bad_cells(tmp_path, line_stack, cell):
    write_stack(line_stack, tmp_path / "stack")
    replace_first_cell(tmp_path / "stack" / "w1.csv", cell)
    with pytest.raises(DataError):
        read_stack(tmp_path / "stack")


@pytest.mark.parametrize("manifest", ["{}", '{"files": ["w9.csv"], "scheme": "c", '
                                            '"zone_ids": ["A", "B", "C"]}', "[1]"] + [
    f'{{"files": ["w0.csv", "w1.csv", "w2.csv"], "scheme": {scheme}, '
    f'"zone_ids": ["A", "B", "C"]}}' for scheme in ('["a"]', "1.5", "true", '""', '"zzz"')])
def test_read_stack_rejects_bad_manifest(tmp_path, line_stack, manifest):
    write_stack(line_stack, tmp_path / "stack")
    (tmp_path / "stack" / "manifest.json").write_text(manifest)
    with pytest.raises(DataError):
        read_stack(tmp_path / "stack")


def test_read_stack_rejects_duplicate_zone_ids(tmp_path, line_stack):
    write_stack(line_stack, tmp_path / "stack")
    manifest = tmp_path / "stack" / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"C"', '"A"'))
    with pytest.raises(DataError, match="duplicate zone ids A$"):
        read_stack(tmp_path / "stack")


def test_adjacency_csv(tmp_path):
    path = tmp_path / "adj.csv"
    path.write_text("zone_a,zone_b\nA,B\nB,C\n")
    g = read_adjacency_csv(path, ["A", "B", "C"])
    assert g.edges == {frozenset(("A", "B")), frozenset(("B", "C"))}
