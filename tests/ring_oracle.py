"""Pair-by-pair ring assignment: the reference the production weight
stacks (``weights.centroid_rings`` and ``weights.adjacency_rings``) are
compared against.

A centroid ring follows from the rank of a zone among the origin's other
zones, counted one pair of tuples at a time, and the running total of the
group sizes. An adjacency ring is an all-pairs shortest hop count
(Floyd-Warshall). Neither sorts a row or walks a frontier the way the
production code does. Both return ``ring[i, j]``, the ring of zone j
around origin i: 0 for i itself, -1 for none.
"""

import numpy as np


def centroid_ranks(centroids, zone_ids) -> np.ndarray:
    """rank[i, j]: how many of origin i's other zones come before zone j by
    (distance, zone id, position); -1 on the diagonal."""
    cents = np.asarray(centroids, dtype=float)
    k = len(zone_ids)
    rank = np.full((k, k), -1)
    for i in range(k):
        keys = [(np.hypot(*(cents[j] - cents[i])), zone_ids[j], j) for j in range(k)]
        for j in range(k):
            if j != i:
                rank[i, j] = sum(keys[m] < keys[j] for m in range(k) if m != i)
    return rank


def centroid_ring(rank: np.ndarray, eta_max: int) -> np.ndarray:
    """Ranks cut into eta_max - 1 groups whose sizes differ by at most one,
    the larger groups first."""
    k = len(rank)
    ring = np.full((k, k), -1)
    np.fill_diagonal(ring, 0)
    if eta_max > 1:
        base, extra = divmod(k - 1, eta_max - 1)
        ends = np.cumsum([base + (g < extra) for g in range(eta_max - 1)])
        for i in range(k):
            for j in range(k):
                if j != i:
                    ring[i, j] = 1 + int(np.sum(rank[i, j] >= ends))
    return ring


def adjacency_ring(zone_ids, edges, eta_max: int) -> np.ndarray:
    """Shortest hop counts below eta_max; farther and unreachable zones get -1."""
    k = len(zone_ids)
    index = {z: i for i, z in enumerate(zone_ids)}
    hops = np.full((k, k), np.inf)
    np.fill_diagonal(hops, 0.0)
    for a, b in edges:
        hops[index[a], index[b]] = hops[index[b], index[a]] = 1.0
    for m in range(k):
        hops = np.minimum(hops, hops[:, [m]] + hops[[m], :])
    return np.where(hops < eta_max, hops, -1).astype(int)


def ring_matrices(ring: np.ndarray, eta_max: int) -> list[np.ndarray]:
    """W(l): weight 1/n on each of the n zones of origin i's ring l."""
    out = []
    for l in range(eta_max):
        member = (ring == l).astype(float)
        out.append(member / np.maximum(member.sum(axis=1, keepdims=True), 1.0))
    return out
