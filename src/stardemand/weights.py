"""Neighborhood weight stacks for spatio-temporal regression.

A stack is an ordered collection of row-normalized k x k matrices; lag 0
is always the identity (each zone is its own order-0 neighborhood), lag
l >= 1 holds the l-th ring of neighbors for each origin zone.

Two ring schemes are provided: centroid-distance ranking and adjacency
hop count (breadth-first on a shared-boundary graph). Each fills one
k x k array ring[i, j], the ring of zone j around origin i, from which
every matrix of the stack is built.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, open_input, write_json
from .panel import _frozen, unique_zone_ids

SCHEME_CENTROID = "centroid"
SCHEME_ADJACENCY = "adjacency"

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WeightStack:
    """Row-normalized neighborhood matrices W(0)..W(eta_max - 1)."""

    matrices: tuple[np.ndarray, ...]
    scheme: str
    zone_ids: tuple[str, ...]

    @property
    def eta_max(self) -> int:
        return len(self.matrices)

    @property
    def k(self) -> int:
        return len(self.zone_ids)


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected zone adjacency; edges are pairs of zone ids."""

    zone_ids: tuple[str, ...]
    edges: frozenset[frozenset]


def make_adjacency(zone_ids: Sequence[str], edges: Iterable[tuple[str, str]]) -> AdjacencyGraph:
    zone_ids = unique_zone_ids(zone_ids, "adjacency graph")
    known = set(zone_ids)
    norm = set()
    for a, b in edges:
        a, b = str(a), str(b)
        if a == b:
            raise DataError(f"self-loop on zone {a}")
        if a not in known or b not in known:
            raise DataError(f"edge ({a}, {b}) references unknown zone")
        norm.add(frozenset((a, b)))
    return AdjacencyGraph(zone_ids=zone_ids, edges=frozenset(norm))


def row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Divide each nonzero row by its sum; zero rows pass through."""
    matrix = np.asarray(matrix, dtype=float)
    if np.any(matrix < 0):
        raise DataError("negative entry in weight matrix")
    sums = matrix.sum(axis=1, keepdims=True)
    safe = np.where(sums > 0, sums, 1.0)
    return matrix / safe


def _stack(ring: np.ndarray, zone_ids, eta_max: int, scheme: str) -> WeightStack:
    """W(l) = row_normalize(ring == l) for l < eta_max, where ring[i, j] is
    the ring of zone j around origin i: 0 for i itself, -1 for none."""
    return WeightStack(
        matrices=tuple(_frozen(row_normalize(ring == l)) for l in range(eta_max)),
        scheme=scheme,
        zone_ids=tuple(zone_ids),
    )


def centroid_rings(zones, eta_max: int) -> WeightStack:
    """Ring stack from centroid-distance ranking.

    For each origin the other k-1 zones are sorted by ascending centroid
    distance (ties by zone id) and partitioned into eta_max - 1 contiguous
    groups whose sizes differ by at most one; earlier groups take the
    extra element.
    """
    zone_ids = [z.zone_id for z in zones]
    k = len(zone_ids)
    if k < 1:
        raise DataError("need at least one zone")
    if eta_max < 1:
        raise DataError("eta_max must be >= 1")
    if eta_max - 1 > k - 1:
        raise DataError(f"eta_max={eta_max} needs at least {eta_max - 1} other zones, have {k - 1}")

    cents = np.array([z.centroid for z in zones], dtype=float)
    gap = cents[None, :] - cents[:, None]             # gap[i, j] = centroid j - centroid i
    dist = np.hypot(gap[..., 0], gap[..., 1])
    np.fill_diagonal(dist, -1.0)                      # each origin ranks first
    id_rank = np.unique(zone_ids, return_inverse=True)[1]
    order = np.lexsort((np.broadcast_to(id_rank, (k, k)), dist))
    ring = np.full((k, k), -1)
    np.fill_diagonal(ring, 0)
    if eta_max > 1:
        for l, cols in enumerate(np.array_split(order[:, 1:], eta_max - 1, axis=1), start=1):
            np.put_along_axis(ring, cols, l, axis=1)
    return _stack(ring, zone_ids, eta_max, SCHEME_CENTROID)


def adjacency_rings(graph: AdjacencyGraph, eta_max: int) -> WeightStack:
    """Ring stack from hop distance on the adjacency graph.

    Zones at hop l populate ring l for 1 <= l <= eta_max - 1; unreachable
    zones and hops >= eta_max get zero weight (empty rings stay all-zero).
    The breadth-first frontier of every origin advances at once.
    """
    if eta_max < 1:
        raise DataError("eta_max must be >= 1")
    k = len(graph.zone_ids)
    index = {z: i for i, z in enumerate(graph.zone_ids)}
    adjacent = np.zeros((k, k), dtype=bool)
    for a, b in graph.edges:
        adjacent[index[a], index[b]] = adjacent[index[b], index[a]] = True
    reached = np.eye(k, dtype=bool)
    ring = np.where(reached, 0, -1)
    frontier = reached
    for hop in range(1, eta_max):
        frontier = (frontier @ adjacent) & ~reached
        ring[frontier] = hop
        reached |= frontier
    return _stack(ring, graph.zone_ids, eta_max, SCHEME_ADJACENCY)


def validate_stack(stack: WeightStack) -> list[dict]:
    """Check every stack invariant; returns one diagnostic dict per check."""
    k = stack.k
    report = []

    def add(check, ok, detail=""):
        report.append({"check": check, "ok": bool(ok), "detail": detail})

    shapes_ok = all(m.shape == (k, k) for m in stack.matrices)
    add("shape", shapes_ok, "" if shapes_ok else f"expected {k}x{k} matrices")
    if not shapes_ok:
        return report

    nonfinite = [l for l, m in enumerate(stack.matrices) if not np.all(np.isfinite(m))]
    add("finite", not nonfinite,
        f"non-finite entries in lags {nonfinite}" if nonfinite else "")

    add("w0_identity", np.array_equal(stack.matrices[0], np.eye(k)),
        "W0 not identity" if not np.array_equal(stack.matrices[0], np.eye(k)) else "")

    neg = [(l, tuple(np.argwhere(m < 0)[0])) for l, m in enumerate(stack.matrices) if np.any(m < 0)]
    add("nonnegative", not neg, f"negative entries at {neg}" if neg else "")

    bad_rows = []
    for l, m in enumerate(stack.matrices):
        sums = m.sum(axis=1)
        for i, s in enumerate(sums):
            if s != 0 and abs(s - 1.0) > ROW_SUM_TOL:
                bad_rows.append((l, i, float(s)))
    add("row_sum", not bad_rows, f"rows not summing to 0 or 1: {bad_rows}" if bad_rows else "")

    # ring 0, the zone itself, counts as taken
    overlaps = [(int(i), int(j)) for i, j in
                np.argwhere((np.array(stack.matrices) > 0).sum(axis=0) > 1)]
    add("disjoint_rings", not overlaps,
        f"(origin, zone) pairs in multiple rings: {overlaps}" if overlaps else "")
    return report


# -- serialization ------------------------------------------------------

def write_stack(stack: WeightStack, directory) -> None:
    """One k x k CSV per lag plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for l, m in enumerate(stack.matrices):
        with open(directory / f"w{l}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            for row in m:
                w.writerow([repr(float(v)) for v in row])
    manifest = {
        "scheme": stack.scheme,
        "eta_max": stack.eta_max,
        "zone_ids": list(stack.zone_ids),
        "files": [f"w{l}.csv" for l in range(stack.eta_max)],
    }
    write_json(directory / "manifest.json", manifest)


def read_stack(directory) -> WeightStack:
    """Read a stack written by :func:`write_stack`; raises DataError when
    the files are malformed or the stack fails :func:`validate_stack`. A
    matrix file may start with a UTF-8 byte-order mark."""
    directory = Path(directory)
    with open_input(directory / "manifest.json", "stack manifest") as fh:
        manifest = json.load(fh)
    try:
        mats = []
        for name in manifest["files"]:
            with open_input(directory / name, "weight matrix", newline="",
                            encoding="utf-8-sig") as fh:
                mats.append(np.array([[float(x) for x in row] for row in csv.reader(fh)]))
        stack = WeightStack(
            matrices=tuple(_frozen(m) for m in mats),
            scheme=manifest["scheme"],
            zone_ids=unique_zone_ids(manifest["zone_ids"], f"weight stack in {directory}"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed weight stack in {directory}: {e!r}") from None
    if not mats:
        raise DataError(f"weight stack in {directory} lists no matrices")
    failed = [c for c in validate_stack(stack) if not c["ok"]]
    if failed:
        raise DataError(f"invalid weight stack in {directory}: {failed}")
    return stack


def read_adjacency_csv(path, zone_ids: Sequence[str]) -> AdjacencyGraph:
    """Edge list CSV `zone_a,zone_b` (header optional); the file may start
    with a UTF-8 byte-order mark."""
    edges = []
    with open_input(path, "adjacency", newline="", encoding="utf-8-sig") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip() == "zone_a":
                continue
            if len(row) < 2:
                raise DataError(f"{path}: bad adjacency row {row}")
            edges.append((row[0].strip(), row[1].strip()))
    return make_adjacency(zone_ids, edges)
