"""Reference copies of the engine paths that the optimised ones replaced,
kept for the differential tests in ``test_differential.py``.

``Assignment`` is the list-based engine: ``mu[p]`` is the box of pair p or
None, and ``find_augmenting_path`` is a breadth-first search over the pairs
of each box in ascending index that returns an ``AugmentingPath``.
Its ``add_middlebox`` takes every augmenting path, the length-1 ones
included, from that search and applies it through the checked
``apply_augmenting_path``. ``greedy_step`` is the eager greedy: it
evaluates every undeployed candidate in ascending id on a clone of the
engine.

``generalized_greedy`` is the eager weighted greedy: every step solves the
fractional LP of each unopened candidate, in ascending id, through
``mbplace.weighted.solve_fractional``.

``build_slots`` is the piecewise slot-graph builder of the weighted
rounding: it walks each request's share of a machine's load slot by slot,
with the room left in the current slot, where
``mbplace.weighted._build_slots`` reads the slot range off the cumulative
load.

``compute_apsp`` runs one heap Dijkstra per source, with the metric weights
and the mirroring of ``mbplace.netgraph.compute_apsp``.

``max_assignment_for_n`` is the per-step oracle as a fresh branch and bound
per call, with only the bounds ``0 < value <= min(|P|, n * kappa)`` and the
capacity prune of ``best_of_size`` (no coverage prune); ``max_served_series``
calls it for every greedy step, where ``mbplace.oracle.max_served_series``
certifies a step from the trace's bounds and searches only between them.

``FlowNetwork`` is the arc-object min-cost flow: each ``_Arc`` holds its
capacity and flow, the residual is their difference, and the initial
potentials come from a general Bellman-Ford, so it accepts negative costs.
It offers the interface of ``mbplace._flow.FlowNetwork`` that
``solve_fractional`` reads. ``solve_fractional_unshifted`` builds the
fractional LP's network on it with the unshifted source-arc costs
``-1/demand``, where ``mbplace.weighted.solve_fractional`` adds one constant
to every source arc so that ``_flow`` sees no negative cost.

``weighted_cover_exists`` is the weighted oracle's assignment search on an
explicit stack, where ``mbplace.oracle._weighted_cover_exists`` recurses.

``scenario_pairs`` and ``scenario_kept`` are the documented scenario
streams drawn one scalar ``random()`` at a time: one per potential pair in
lexicographic order, or one per SNDlib demand, where ``mbplace.ingest``
draws each stream in one call.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from builders import pairs_of
from mbplace import matching
from mbplace.exceptions import AlreadyActive, Infeasible, PlacementError, Stalled
from mbplace.ingest import scenario_rng
from mbplace.netgraph import geo_distance
from mbplace.weighted import ZERO, FractionalAssignment, Preprocessed, solve_fractional

UNASSIGNED = None


class InvalidPath(PlacementError):
    """An augmenting path violates alternation or endpoint conditions."""


@dataclass(frozen=True)
class AugmentingPath:
    """Alternating path (m_0, p_0, m_1, p_1, ..., p_k).

    ``middleboxes[i] -- pairs[i]`` are the new assignment edges and
    ``pairs[i] -- middleboxes[i+1]`` the released ones; the final pair is
    free before application.
    """

    middleboxes: tuple[int, ...]
    pairs: tuple[int, ...]

    def __post_init__(self):
        if len(self.middleboxes) != len(self.pairs) or not self.pairs:
            raise InvalidPath("path must alternate middlebox/pair and be nonempty")


class Assignment:
    """List-based pair -> middlebox assignment with per-middlebox loads."""

    def __init__(self, fs, capacity: int, mu=None, load=None):
        self.fs = fs
        self.pairs_of = pairs_of(fs)
        self.capacity = capacity
        self.mu: list[int | None] = [UNASSIGNED] * fs.num_pairs if mu is None else list(mu)
        self.load: dict[int, int] = {} if load is None else dict(load)
        self.num_assigned = sum(m is not UNASSIGNED for m in self.mu)

    @classmethod
    def of(cls, engine) -> "Assignment":
        """A reference engine holding the assignment of ``engine``."""
        return cls(engine.fs, engine.capacity, engine.mu, engine.load)

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(sorted(self.load))

    def assignment(self) -> dict[int, int]:
        """Pair -> box for every served pair, in ascending pair order."""
        return {p: m for p, m in enumerate(self.mu) if m is not UNASSIGNED}

    def clone(self) -> "Assignment":
        return Assignment(self.fs, self.capacity, self.mu, self.load)

    def add_middlebox(self, m: int) -> int:
        """Deploy m and re-maximize with BFS paths only; returns the gain."""
        if m in self.load:
            raise AlreadyActive(f"middlebox {m} is already deployed")
        if m not in self.pairs_of:
            raise ValueError(f"{m} is not a candidate location")
        self.load[m] = 0
        gained = 0
        while self.load[m] < self.capacity:
            path = self.find_augmenting_path(m)
            if path is None:
                break
            apply_augmenting_path(self, path)
            gained += 1
        return gained

    def find_augmenting_path(self, start: int) -> AugmentingPath | None:
        """Shortest augmenting path from ``start`` to a free pair, or None.

        Neighbors are explored in ascending pair index, which makes the
        returned path deterministic.
        """
        if start not in self.load:
            raise ValueError(f"start {start} is not an active middlebox")
        if self.load[start] >= self.capacity:
            raise ValueError(f"start {start} has no free capacity")
        parent_of_pair: dict[int, int] = {}
        parent_of_mb: dict[int, int] = {}
        queue = deque([start])
        seen_mb = {start}
        while queue:
            x = queue.popleft()
            for p in self.pairs_of[x]:
                if p in parent_of_pair:
                    continue
                parent_of_pair[p] = x
                owner = self.mu[p]
                if owner is UNASSIGNED:
                    return _reconstruct(start, p, parent_of_pair, parent_of_mb)
                if owner not in seen_mb:
                    seen_mb.add(owner)
                    parent_of_mb[owner] = p
                    queue.append(owner)
        return None


def _reconstruct(start, free_pair, parent_of_pair, parent_of_mb) -> AugmentingPath:
    mbs: list[int] = []
    prs: list[int] = []
    p = free_pair
    while True:
        x = parent_of_pair[p]
        mbs.append(x)
        prs.append(p)
        if x == start:
            break
        p = parent_of_mb[x]
    mbs.reverse()
    prs.reverse()
    return AugmentingPath(tuple(mbs), tuple(prs))


def apply_augmenting_path(engine: Assignment, path: AugmentingPath) -> None:
    """Flip the path's edges after checking that it is one: it starts at an
    active middlebox with free capacity, ends at a free pair, uses feasible
    edges only, and each inner pair is assigned to the next middlebox.
    Grows the assignment by exactly one pair; raises InvalidPath otherwise."""
    mbs, prs = path.middleboxes, path.pairs
    k = len(prs)
    if mbs[0] not in engine.load or engine.load[mbs[0]] >= engine.capacity:
        raise InvalidPath("path must start at an active middlebox with free capacity")
    if engine.mu[prs[-1]] is not UNASSIGNED:
        raise InvalidPath("path must end at a free pair")
    for i in range(k):
        if mbs[i] not in engine.load:
            raise InvalidPath(f"middlebox {mbs[i]} is not active")
        if not engine.fs.masks[mbs[i]] >> prs[i] & 1:
            raise InvalidPath(f"pair {prs[i]} is not feasible for middlebox {mbs[i]}")
        if i + 1 < k and engine.mu[prs[i]] != mbs[i + 1]:
            raise InvalidPath(
                f"pair {prs[i]} is not currently assigned to middlebox {mbs[i + 1]}"
            )
    for m, p in zip(mbs, prs):
        engine.mu[p] = m
    engine.load[mbs[0]] += 1
    engine.num_assigned += 1


def greedy_step(engine: Assignment):
    """One eager greedy iteration: returns (chosen, gain), mutates the engine.

    Candidates are tried in ascending id, skipping those whose bound
    min(capacity, |S_m|, free pairs) cannot beat the running best; only a
    strictly larger gain replaces the best, so ties go to the smallest id.
    """
    fs = engine.fs
    num_free = fs.num_pairs - engine.num_assigned
    if num_free == 0:
        raise ValueError("all pairs are already assigned")
    best_gain, best_m, best_state = 0, None, None
    for m in fs.candidates:
        if m in engine.load or min(engine.capacity, len(engine.pairs_of[m]), num_free) <= best_gain:
            continue
        trial = engine.clone()
        gained = trial.add_middlebox(m)
        if gained > best_gain:
            best_gain, best_m, best_state = gained, m, trial
    if best_m is None:
        raise Stalled(f"no candidate can serve any of the {num_free} remaining pairs")
    engine.mu = best_state.mu
    engine.load = best_state.load
    engine.num_assigned = best_state.num_assigned
    return best_m, best_gain


def greedy_run(fs, capacity: int):
    """Eager greedy from an empty engine until every pair is served.

    Returns (states, stalled): ``states[i]`` is (chosen, gain, mu, load)
    after step i, and ``stalled`` tells whether the next step raised
    Stalled.
    """
    engine = Assignment(fs, capacity)
    states = []
    while engine.num_assigned < fs.num_pairs:
        try:
            chosen, gain = greedy_step(engine)
        except Stalled:
            return states, True
        states.append((chosen, gain, list(engine.mu), dict(engine.load)))
    return states, False


def phi(M, fs, capacity: int) -> int:
    """Maximum number of pairs assignable to middlebox set M."""
    state = Assignment(fs, capacity)
    for m in sorted(set(M)):
        state.add_middlebox(m)
    return state.num_assigned


def generalized_greedy(prep: Preprocessed) -> tuple[list[int], FractionalAssignment]:
    """Open locations by maximum fractional gain until ``f(S) > n - 1``.

    Ties break to the smallest node id. Raises Infeasible when the full
    candidate set still leaves the guard unsatisfied.
    """
    n = len(prep.kept)
    universe = prep.fs.candidates
    chosen: list[int] = []
    best_frac = FractionalAssignment({})
    current = ZERO
    while len(chosen) < len(universe) and current <= n - 1:
        best_gain = None
        best_u = None
        best_candidate_frac = None
        for u in universe:
            if u in chosen:
                continue
            frac = solve_fractional(chosen + [u], prep)
            g = frac.objective - current
            if best_gain is None or g > best_gain:
                best_gain, best_u, best_candidate_frac = g, u, frac
        chosen.append(best_u)
        current = best_candidate_frac.objective
        best_frac = best_candidate_frac
    if current <= n - 1:
        raise Infeasible(
            f"all {len(universe)} candidates open but fractional objective "
            f"{float(current):.6g} <= {n - 1}"
        )
    return chosen, best_frac


def build_slots(frac: FractionalAssignment, prep: Preprocessed):
    """Slot graph: machine i gets ceil(sum_j x_ij) unit slots, filled with its
    requests in non-increasing demand order; returns job -> slot adjacency."""
    per_machine: dict[int, list[int]] = {}
    for (u, j), v in frac.x.items():
        per_machine.setdefault(u, []).append(j)
    slot_owner: list[int] = []
    job_slots: dict[int, list[int]] = {}
    for u in sorted(per_machine):
        jobs = sorted(per_machine[u], key=lambda j: (-prep.demands[j], j))
        total = sum((frac.x[(u, j)] for j in jobs), ZERO)
        count = math.ceil(total) if total > 0 else 0
        first = len(slot_owner)
        slot_owner.extend([u] * count)
        room = Fraction(1)
        cursor = first
        for j in jobs:
            rest = frac.x[(u, j)]
            while rest > 0:
                if room == 0:
                    cursor += 1
                    room = Fraction(1)
                piece = min(room, rest)
                job_slots.setdefault(j, []).append(cursor)
                room -= piece
                rest -= piece
    return slot_owner, job_slots


def _dijkstra(adj, source: int, n: int) -> np.ndarray:
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = [False] * n
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def compute_apsp(net, metric: str = "weight") -> np.ndarray:
    """The distance matrix, one Dijkstra run per source."""
    n = net.num_nodes
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in net.edges:
        if metric == "hops":
            w = 1.0
        elif metric == "geo":
            w = geo_distance((net.nodes[u].lat, net.nodes[u].lon),
                             (net.nodes[v].lat, net.nodes[v].lon))
        adj[u].append((v, w))
        adj[v].append((u, w))
    mat = np.empty((n, n))
    for s in range(n):
        mat[s] = _dijkstra(adj, s, n)
    iu = np.triu_indices(n, k=1)
    mat[(iu[1], iu[0])] = mat[iu]
    np.fill_diagonal(mat, 0.0)
    return mat


@dataclass
class _Arc:
    to: int
    cap: Fraction
    cost: Fraction
    flow: Fraction = ZERO

    @property
    def residual(self) -> Fraction:
        return self.cap - self.flow


@dataclass
class FlowNetwork:
    """Successive shortest paths over ``_Arc`` objects; ``residual`` is a
    list read off the arcs, so ``solve_fractional`` can take the flow on an
    arc from the residual of its twin."""

    num_nodes: int
    arcs: list[_Arc] = field(default_factory=list)
    out: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        self.out = [[] for _ in range(self.num_nodes)]

    @property
    def residual(self) -> list[Fraction]:
        return [arc.residual for arc in self.arcs]

    def add_arc(self, u: int, v: int, cap, cost=ZERO) -> int:
        idx = len(self.arcs)
        self.arcs.append(_Arc(v, Fraction(cap), Fraction(cost)))
        self.arcs.append(_Arc(u, ZERO, -Fraction(cost)))
        self.out[u].append(idx)
        self.out[v].append(idx + 1)
        return idx

    def _bellman_ford(self, source: int) -> list[Fraction | None]:
        dist: list[Fraction | None] = [None] * self.num_nodes
        dist[source] = ZERO
        for _ in range(self.num_nodes - 1):
            changed = False
            for u in range(self.num_nodes):
                if dist[u] is None:
                    continue
                for ai in self.out[u]:
                    arc = self.arcs[ai]
                    if arc.residual > 0:
                        nd = dist[u] + arc.cost
                        if dist[arc.to] is None or nd < dist[arc.to]:
                            dist[arc.to] = nd
                            changed = True
            if not changed:
                break
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
                arc = self.arcs[ai]
                v = arc.to
                if done[v] or arc.residual <= 0 or potential[v] is None:
                    continue
                nd = du + arc.cost + potential[u] - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    prev_arc[v] = ai
                    heapq.heappush(heap, (nd, v))
        return dist, prev_arc

    def min_cost_max_flow(self, source: int, sink: int) -> Fraction:
        """Push flow until no residual path remains, always along the current
        cheapest path; returns the total cost."""
        potential = self._bellman_ford(source)
        total_cost = ZERO
        while True:
            if potential[sink] is None:
                break
            dist, prev_arc = self._dijkstra(source, potential)
            if dist[sink] is None:
                break
            for v in range(self.num_nodes):
                if dist[v] is not None:
                    potential[v] += dist[v]
            bottleneck = None
            v = sink
            while v != source:
                arc = self.arcs[prev_arc[v]]
                bottleneck = arc.residual if bottleneck is None else min(bottleneck, arc.residual)
                v = self.arcs[prev_arc[v] ^ 1].to
            v = sink
            while v != source:
                ai = prev_arc[v]
                self.arcs[ai].flow += bottleneck
                self.arcs[ai ^ 1].flow -= bottleneck
                total_cost += bottleneck * self.arcs[ai].cost
                v = self.arcs[ai ^ 1].to
        return total_cost


def solve_fractional_unshifted(active, prep: Preprocessed) -> FractionalAssignment:
    """The fractional LP with source arc j costing ``-1/p_j``, on the same
    node numbering as ``mbplace.weighted.solve_fractional``: source, the
    kept requests some active box serves, the boxes ascending, then the sink."""
    active = tuple(sorted(set(active)))
    jobs = [j for j in prep.kept if any(u in prep.fs.candidates_of[j] for u in active)]
    if not jobs:
        return FractionalAssignment({})
    net = FlowNetwork(2 + len(jobs) + len(active))
    sink = net.num_nodes - 1
    edge_arcs = {}
    for pos, j in enumerate(jobs):
        p = prep.demands[j]
        net.add_arc(0, 1 + pos, p, -1 / p)
        for i, u in enumerate(active):
            if u in prep.fs.candidates_of[j]:
                edge_arcs[(u, j)] = net.add_arc(1 + pos, 1 + len(jobs) + i, p)
    for i in range(len(active)):
        net.add_arc(1 + len(jobs) + i, sink, prep.kappa)
    net.min_cost_max_flow(0, sink)
    return FractionalAssignment({(u, j): net.arcs[ai].flow / prep.demands[j]
                                 for (u, j), ai in edge_arcs.items() if net.arcs[ai].flow > 0})


def best_of_size(fs, capacity: int, universe, n: int, floor: int, cap: int):
    """(best n-subset assignment serving more than ``floor`` pairs or None,
    subsets grown), depth-first in lexicographic order; a frame is done when
    too few candidates remain or full boxes in every slot cannot beat the
    best, and the search stops once the best reaches ``cap``."""
    best_value, best_state, explored = floor, None, 0
    stack = [(matching.Assignment(fs, capacity), 0, n)]
    while stack:
        state, idx, slots = stack[-1]
        if (len(universe) - idx < slots or best_value >= cap
                or state.num_assigned + slots * capacity <= best_value):
            stack.pop()
            continue
        stack[-1] = state, idx + 1, slots
        trial = state.clone()
        trial.add_middlebox(universe[idx])
        explored += 1
        if slots > 1:
            stack.append((trial, idx + 1, slots - 1))
        elif trial.num_assigned > best_value:
            best_value, best_state = trial.num_assigned, trial
    return best_state, explored


def max_assignment_for_n(inst, fs, n: int):
    """(value, witness set, witness assignment, explored) of the most pairs
    any n boxes serve."""
    universe = list(fs.candidates)
    n = min(n, len(universe))
    best, explored = None, 0
    if n > 0:
        best, explored = best_of_size(fs, inst.capacity, universe, n, 0,
                                      min(inst.num_pairs, n * inst.capacity))
    witness = best or matching.Assignment(fs, inst.capacity)
    return witness.num_assigned, witness.active, witness.assignment(), explored


def max_served_series(inst, fs, steps) -> list[int]:
    """phi_opt(n) for every step n of a greedy trace, one search per step."""
    return [max_assignment_for_n(inst, fs, n)[0] for n in range(1, len(steps) + 1)]


def weighted_cover_exists(members, demands, candidates_of, kappa: Fraction) -> dict | None:
    """Exhaustive assignment search with a residual-capacity bound, hardest
    request first. Depth-first on an explicit stack: ``stack[k]`` is the
    index of the next candidate to try for the k-th request."""
    residual = {m: kappa for m in {u for j in members for u in candidates_of[j]}}
    if len(residual) * kappa < sum(demands[j] for j in members):
        return None
    order = sorted(members, key=lambda j: (-demands[j], j))
    chosen: dict[int, int] = {}
    stack = [0]
    while stack:
        k = len(stack) - 1
        if k == len(order):
            return dict(chosen)
        j, i = order[k], stack[k]
        us = candidates_of[j]
        while i < len(us) and not (us[i] in residual and residual[us[i]] >= demands[j]):
            i += 1
        if i == len(us):
            stack.pop()
            if stack:  # undo the choice of the request before
                q = order[k - 1]
                residual[chosen.pop(q)] += demands[q]
            continue
        residual[us[i]] -= demands[j]
        chosen[j] = us[i]
        stack[k] = i + 1
        stack.append(0)
    return None


def scenario_pairs(seed: int, replication: int, n: int, p: float) -> list[tuple[int, int]]:
    """The pairs (s, t), s < t, of n nodes whose draw is below p: one
    ``random()`` of ``scenario_rng(seed, replication)`` per pair, in
    lexicographic order."""
    rng = scenario_rng(seed, replication)
    return [(s, t) for s in range(n) for t in range(s + 1, n) if rng.random() < p]


def scenario_kept(seed: int, replication: int, demands, p: float) -> list:
    """The demands whose draw is below p: one ``random()`` of
    ``scenario_rng(seed, replication)`` per demand, in order."""
    rng = scenario_rng(seed, replication)
    return [d for d in demands if rng.random() < p]
