"""Independent brute-force oracles used only by the test suite.

Each oracle recomputes a quantity along a completely different route than
the production code: Floyd-Warshall vs. the all-source relaxation, exhaustive
assignment enumeration vs. augmenting paths, networkx max-flow on the
capacity-clone graph, scipy's LP solver vs. the flow reduction, and a
scalar ``math.isclose`` loop vs. the vectorised feasibility relation.

The last helpers read a quantity off a solver object for the tests that
check it: a path's edge count, a middlebox's free capacity, an engine's
served pairs, a weighted marginal gain, a weighted problem's deleted
entries and a rounded solution's largest load.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


def floyd_warshall(num_nodes: int, edges) -> np.ndarray:
    """Textbook O(n^3) all-pairs shortest paths."""
    d = np.full((num_nodes, num_nodes), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in edges:
        d[u, v] = min(d[u, v], w)
        d[v, u] = min(d[v, u], w)
    for k in range(num_nodes):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def haversine_reference(p1, p2, radius=6371.0) -> float:
    """Second implementation straight from the closed formula (atan2 form)."""
    lat1, lon1 = map(math.radians, p1)
    lat2, lon2 = map(math.radians, p2)
    a = (math.sin((lat2 - lat1) / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2)
    return 2 * radius * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def exhaustive_phi(members, fs, capacity: int) -> int:
    """Maximum assignable pairs by memoized enumeration over load states."""
    members = sorted(set(members))
    pos = {m: i for i, m in enumerate(members)}
    options = [
        tuple(u for u in fs.candidates_of[p] if u in pos)
        for p in range(fs.num_pairs)
    ]
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def best(p: int, loads: tuple[int, ...]) -> int:
        if p == fs.num_pairs:
            return 0
        key = (p, loads)
        if key in memo:
            return memo[key]
        value = best(p + 1, loads)  # leave pair p unassigned
        for u in options[p]:
            i = pos[u]
            if loads[i] < capacity:
                grown = loads[:i] + (loads[i] + 1,) + loads[i + 1:]
                value = max(value, 1 + best(p + 1, grown))
        memo[key] = value
        return value

    return best(0, (0,) * len(members))


def maxflow_phi(members, fs, capacity: int) -> int:
    """phi via networkx max-flow on the unit-capacity clone reduction."""
    import networkx as nx

    g = nx.DiGraph()
    members = sorted(set(members))
    for m in members:
        for c in range(capacity):
            g.add_edge("s", ("clone", m, c), capacity=1)
            for p in range(fs.num_pairs):
                if fs.contains(m, p):
                    g.add_edge(("clone", m, c), ("pair", p), capacity=1)
    for p in range(fs.num_pairs):
        g.add_edge(("pair", p), "t", capacity=1)
    if "s" not in g or "t" not in g:
        return 0
    return nx.maximum_flow_value(g, "s", "t")


def lp_max_fractional(active, demands, candidates_of, kappa) -> float:
    """LP optimum of the maximum fractional assignment via scipy (HiGHS)."""
    from scipy.optimize import linprog

    active = sorted(set(active))
    entries = [(u, j) for j in range(len(demands))
               for u in candidates_of[j] if u in set(active)]
    if not entries:
        return 0.0
    col = {e: i for i, e in enumerate(entries)}
    num = len(entries)
    rows = []
    rhs = []
    for j in range(len(demands)):
        row = [0.0] * num
        hit = False
        for u in candidates_of[j]:
            if (u, j) in col:
                row[col[(u, j)]] = 1.0
                hit = True
        if hit:
            rows.append(row)
            rhs.append(1.0)
    for u in active:
        row = [0.0] * num
        hit = False
        for (uu, j), i in col.items():
            if uu == u:
                row[i] = float(demands[j])
                hit = True
        if hit:
            rows.append(row)
            rhs.append(float(kappa))
    res = linprog(c=[-1.0] * num, A_ub=rows, b_ub=rhs, bounds=[(0.0, 1.0)] * num,
                  method="highs")
    assert res.status == 0, res.message
    return -res.fun


def weighted_integral_feasible(members, demands, candidates_of, kappa) -> bool:
    """Exhaustive check: all requests integrally packable at capacity kappa."""
    kappa = Fraction(kappa)
    demands = [Fraction(d) for d in demands]
    order = sorted(range(len(demands)), key=lambda j: (-demands[j], j))
    loads: dict[int, Fraction] = {}

    def place(k: int) -> bool:
        if k == len(order):
            return True
        j = order[k]
        for u in candidates_of[j]:
            if u in set(members) and loads.get(u, Fraction(0)) + demands[j] <= kappa:
                loads[u] = loads.get(u, Fraction(0)) + demands[j]
                if place(k + 1):
                    return True
                loads[u] -= demands[j]
        return False

    return place(0)


def feasible_reference(members, d, candidates, stretch, route_limit) -> np.ndarray:
    """Scalar feasibility relation: ``ok[j, k]`` iff every member pair (a, b)
    of request j has ``d[a][u] + d[u][b] <= bound`` or ``math.isclose`` to it
    at rel_tol 1e-9, for u = candidates[k]; bound is stretch * d[a][b] (none
    for an infinite stretch) or the route limit."""
    ok = np.zeros((len(members), len(candidates)), dtype=bool)
    for j, nodes in enumerate(members):
        for k, u in enumerate(candidates):
            ok[j, k] = True
            for a, b in combinations(nodes, 2):
                via = float(d[a][u]) + float(d[u][b])
                if stretch is None:
                    bound = route_limit
                elif stretch == math.inf:  # inf * 0 would be NaN
                    bound = math.inf
                else:
                    bound = stretch * float(d[a][b])
                if not (via <= bound or math.isclose(via, bound, rel_tol=1e-9)):
                    ok[j, k] = False
    return ok


def num_edges(path) -> int:
    """Edges of an augmenting path (m_0, p_0, ..., p_k): k + 1 new, k released."""
    return 2 * len(path.pairs) - 1


def free_capacity(engine, m: int) -> int:
    return engine.capacity - engine.load[m]


def assigned_pairs(engine) -> frozenset[int]:
    """The pairs an engine serves."""
    return frozenset(p for p, m in enumerate(engine.mu) if m is not None)


def weighted_gain(i: int, active, prep) -> Fraction:
    """Marginal fractional objective of opening candidate i on top of ``active``."""
    from mbplace.weighted import solve_fractional

    base = solve_fractional(active, prep).objective
    return solve_fractional(tuple(active) + (i,), prep).objective - base


def deleted_entries(prep) -> tuple[tuple[int, int], ...]:
    """(candidate, request) entries of kept requests that violate the bound or
    point at an illegal location: those absent from ``prep.fs``."""
    return tuple((u, j) for j in prep.kept for u in prep.fs.candidates
                 if not prep.fs.contains(u, j))


def max_load(rounded) -> Fraction:
    return max(rounded.load.values(), default=Fraction(0))
