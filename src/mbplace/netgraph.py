"""Network graph representation and all-pairs shortest-path metrics.

Nodes are dense integers ``0..n-1``. Graphs are undirected with nonnegative
edge weights; parallel edges collapse to the minimum weight and self-loops
are dropped. Distances come from one Bellman-Ford relaxation over every
source at once: each round folds, for every source row still changing, the
minimum of ``d(s,u) + w(u,v)`` over the edges into ``v``, and the matrix is
mirrored so it is exactly symmetric. The rows hold the same floats a
Dijkstra run per source gives, since both are the least left-to-right sum
over all walks (the weights are nonnegative and float rounding is
monotone). ``compute_apsp`` returns the matrix as one read-only float64
array. A disconnected pair holds ``inf``, and ``instance.feasible`` reads
an infinite detour as no route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .exceptions import DomainError, GeoUnavailable, PlacementError

EARTH_RADIUS_KM = 6371.0

METRICS = ("weight", "hops", "geo")


def is_number(x) -> bool:
    """A real number that is not a bool (a JSON ``true`` loads as one)."""
    # float and int first: they skip the slower abstract-class check.
    return isinstance(x, (float, int, Real)) and not isinstance(x, bool)


def is_int(x) -> bool:
    """An integer that is not a bool (a JSON ``true`` would pass as id 1)."""
    return isinstance(x, (int, Integral)) and not isinstance(x, bool)


@dataclass(frozen=True)
class Node:
    id: int
    label: str | None = None
    lat: float | None = None
    lon: float | None = None

    @property
    def has_coords(self) -> bool:
        return self.lat is not None and self.lon is not None


class Network:
    """Undirected weighted graph over nodes ``0..n-1``."""

    def __init__(self, nodes: list[Node], edges):
        self.nodes: list[Node] = list(nodes)
        for i, node in enumerate(self.nodes):
            if not is_int(node.id) or node.id != i:
                raise ValueError(f"node ids must be dense 0..n-1, got {node.id} at {i}")
            if not (node.lat is None or is_number(node.lat)) or \
                    not (node.lon is None or is_number(node.lon)):
                raise DomainError(f"node {i}: coordinates must be numbers, "
                                  f"got ({node.lat!r}, {node.lon!r})")
        n = len(self.nodes)
        canonical: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            if not (is_int(u) and is_int(v) and 0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) references unknown node")
            if not is_number(w) or not w >= 0:
                raise DomainError(f"edge ({u},{v}) weight must be a number >= 0, got {w!r}")
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            w = float(w)
            if key not in canonical or w < canonical[key]:
                canonical[key] = w
        self.edges: list[tuple[int, int, float]] = [
            (u, v, canonical[(u, v)]) for (u, v) in sorted(canonical)
        ]

    @classmethod
    def from_edges(cls, num_nodes: int, edges) -> "Network":
        return cls([Node(i) for i in range(num_nodes)], edges)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges


def geo_distance(p1: tuple[float, float], p2: tuple[float, float]) -> float:
    """Great-circle (haversine) distance in kilometers between (lat, lon) points."""
    for lat, lon in (p1, p2):
        if not (-90.0 <= lat <= 90.0):
            raise DomainError(f"latitude {lat} outside [-90, 90]")
        if not (-180.0 <= lon <= 180.0):
            raise DomainError(f"longitude {lon} outside [-180, 180]")
    lat1, lon1 = map(math.radians, p1)
    lat2, lon2 = map(math.radians, p2)
    sin_dlat = math.sin((lat2 - lat1) / 2.0)
    sin_dlon = math.sin((lon2 - lon1) / 2.0)
    h = sin_dlat * sin_dlat + math.cos(lat1) * math.cos(lat2) * sin_dlon * sin_dlon
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def compute_apsp(net: Network, metric: str = "weight") -> np.ndarray:
    """All-pairs shortest paths under the chosen metric, as a read-only
    n x n float64 array; a disconnected pair holds ``inf``.

    ``weight`` uses the stored edge weights, ``hops`` counts edges, and
    ``geo`` replaces every edge weight with the great-circle distance of its
    endpoints before the shortest-path pass (raises GeoUnavailable when a
    node lacks coordinates).
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    n = net.num_nodes
    if n == 0:
        raise ValueError("network is empty")
    if metric == "hops":
        weights = [1.0] * net.num_edges
    elif metric == "geo":
        for node in net.nodes:
            if not node.has_coords:
                raise GeoUnavailable(f"node {node.id} ({node.label!r}) has no coordinates")
        weights = [
            geo_distance((net.nodes[u].lat, net.nodes[u].lon),
                         (net.nodes[v].lat, net.nodes[v].lon))
            for u, v, _ in net.edges
        ]
    else:
        weights = [w for _, _, w in net.edges]
    mat = np.full((n, n), np.inf)
    np.fill_diagonal(mat, 0.0)
    if net.edges:
        _relax(mat, np.array([(u, v) for u, v, _ in net.edges], dtype=np.intp),
               np.array(weights))
    # Below the diagonal take the mirrored upper triangle: d(u,v) == d(v,u) bit-exactly.
    dist = np.where(np.tri(n, k=-1, dtype=bool), mat.T, mat)
    dist.setflags(write=False)
    return dist


def _relax(mat: np.ndarray, ends: np.ndarray, weights: np.ndarray) -> None:
    """Bellman-Ford over every source row of ``mat`` at once, in place.

    ``ends`` holds the undirected edges as ``(u, v)`` rows, each pair once.
    The first round, the one-edge walks, is set directly. Each further round
    sets ``mat[s, v]`` to the least of itself and ``mat[s, u] + w`` over the
    edges ``u -> v``, and relaxes again only the rows that changed, since a
    row depends only on itself. A shortest walk needs at most ``n - 1``
    edges, so the ``n``-th round changes nothing. A row that then reaches u
    but not v over a finite edge u -> v has a distance that overflowed:
    DomainError.
    """
    n = mat.shape[0]
    tails = np.concatenate([ends[:, 0], ends[:, 1]])
    heads = np.concatenate([ends[:, 1], ends[:, 0]])
    weights = np.concatenate([weights, weights])
    mat[tails, heads] = 0.0 + weights  # as the round would sum it: -0.0 becomes 0.0
    order = np.argsort(heads, kind="stable")
    tails, heads, weights = tails[order], heads[order], weights[order]
    cols, starts = np.unique(heads, return_index=True)
    rows = np.arange(n)
    with np.errstate(over="ignore"):  # a sum past the largest float is caught below
        for _ in range(n - 1):
            block = mat[rows]
            old = block[:, cols]
            relaxed = np.minimum.reduceat(block[:, tails] + weights, starts, axis=1)
            changed = (relaxed < old).any(axis=1)
            if not changed.any():
                break
            block[:, cols] = np.minimum(old, relaxed)
            rows = rows[changed]
            mat[rows] = block[changed]
        else:
            raise PlacementError(f"shortest paths still changing after {n} rounds")
    if np.isinf(mat).any():  # no overflow without an inf: skip the edge scan
        finite = np.isfinite(weights)
        if (np.isfinite(mat[:, tails[finite]]) & np.isinf(mat[:, heads[finite]])).any():
            raise DomainError("a shortest path length exceeds the largest float")
