"""Successive-shortest-path min-cost flow over exact rational arithmetic.

Capacities and costs are Fractions, so flow values and objectives are exact;
the weighted module's stopping guard compares them without tolerances.
The network is held as parallel per-arc lists: ``arcs`` (the head),
``residual`` and ``cost``. Arc ``a ^ 1`` is the twin of arc ``a``, so the
flow on a forward arc is the residual of its twin. Every arc runs from a
lower to a higher node, so the initial residual network is a DAG in node
order and one pass over the nodes gives exact initial potentials (the
construction has negative arc costs out of the source). Shortest paths then
use Dijkstra with Johnson node potentials.
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

    def add_arc(self, u: int, v: int, cap, cost=ZERO) -> int:
        """Adds u->v (capacity cap, unit cost) plus its residual twin; returns
        the forward arc index (twin is index+1). Raises ValueError unless
        u < v, which the one-pass initial potentials rely on."""
        if not u < v:
            raise ValueError(f"arc {u}->{v} must run from a lower to a higher node")
        idx = len(self.arcs)
        cost = Fraction(cost)
        self.arcs += (v, u)
        self.residual += (Fraction(cap), ZERO)
        self.cost += (cost, -cost)
        self.out[u].append(idx)
        self.out[v].append(idx + 1)
        return idx

    def _initial_potentials(self, source: int) -> list[Fraction | None]:
        """Exact shortest distances from ``source`` before any flow: every
        arc with residual runs to a higher node, so each node is final
        before it is scanned in index order."""
        dist: list[Fraction | None] = [None] * self.num_nodes
        dist[source] = ZERO
        for u in range(self.num_nodes):
            if dist[u] is None:
                continue
            for ai in self.out[u]:
                if self.residual[ai] > 0:
                    v = self.arcs[ai]
                    nd = dist[u] + self.cost[ai]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
        return dist

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
                if done[v] or self.residual[ai] <= 0 or potential[v] is None:
                    continue
                nd = du + self.cost[ai] + potential[u] - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    prev_arc[v] = ai
                    heapq.heappush(heap, (nd, v))
        return dist, prev_arc

    def min_cost_max_flow(self, source: int, sink: int) -> Fraction:
        """Push flow until no residual path remains, always along the current
        cheapest path; returns the total cost. Runs once, on a network
        that carries no flow yet."""
        potential = self._initial_potentials(source)
        total_cost = ZERO
        while True:
            dist, prev_arc = self._dijkstra(source, potential)
            if dist[sink] is None:
                return total_cost
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
                total_cost += bottleneck * self.cost[ai]
