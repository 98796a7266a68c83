"""Successive-shortest-path min-cost flow over exact rational arithmetic.

Capacities and costs are Fractions, so flow values are exact and the
weighted module's stopping guard compares them without tolerances.
The network is held as parallel per-arc lists: ``arcs`` (the head),
``residual`` and ``cost``. Arc ``a ^ 1`` is the twin of arc ``a``, so the
flow on a forward arc is the residual of its twin. Arc costs must be
nonnegative, so shortest paths use Dijkstra with Johnson node potentials
that start at zero (Edmonds & Karp 1972). ``weighted.solve_fractional``
meets this by adding one constant to every source arc's cost, which is exact
there because each simple source path has one cost-bearing arc, its first.
The heap breaks ties between equal distances by node index, so the node
numbering a caller chooses fixes which of several cheapest paths is taken.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

ZERO = Fraction(0)


class FlowNetwork:
    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.arcs: list[int] = []
        self.residual: list[Fraction] = []
        self.cost: list[Fraction] = []
        self.out: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_arc(self, u: int, v: int, cap: Fraction, cost: Fraction = ZERO) -> int:
        """Adds u->v (capacity cap, unit cost >= 0, both Fractions) plus its
        residual twin; returns the forward arc index (twin is index+1)."""
        idx = len(self.arcs)
        self.arcs += (v, u)
        self.residual += (cap, ZERO)
        self.cost += (cost, -cost)
        self.out[u].append(idx)
        self.out[v].append(idx + 1)
        return idx

    def _dijkstra(self, source: int, potential):
        dist: list[Fraction | None] = [None] * self.num_nodes
        prev_arc: list[int | None] = [None] * self.num_nodes
        dist[source] = ZERO
        heap: list[tuple[Fraction, int]] = [(ZERO, source)]
        done = [False] * self.num_nodes
        while heap:
            du, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for ai in self.out[u]:
                v = self.arcs[ai]
                if done[v] or self.residual[ai] <= 0:
                    continue
                nd = du + self.cost[ai] + potential[u] - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    prev_arc[v] = ai
                    heapq.heappush(heap, (nd, v))
        return dist, prev_arc

    def min_cost_max_flow(self, source: int, sink: int) -> None:
        """Push flow until no residual path remains, always along the current
        cheapest path. Runs once, on a network that carries no flow yet."""
        potential = [ZERO] * self.num_nodes
        while True:
            dist, prev_arc = self._dijkstra(source, potential)
            if dist[sink] is None:
                return
            for v in range(self.num_nodes):
                if dist[v] is not None:
                    potential[v] += dist[v]
            path = []
            v = sink
            while v != source:
                path.append(prev_arc[v])
                v = self.arcs[prev_arc[v] ^ 1]
            bottleneck = min(self.residual[ai] for ai in path)
            for ai in path:
                self.residual[ai] -= bottleneck
                self.residual[ai ^ 1] += bottleneck
