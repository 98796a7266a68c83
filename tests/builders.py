"""Instance builders shared across the test suite: seeded random instances
plus the two adversarial constructions (star detour, set-cover gadget) used
as generators only."""

from __future__ import annotations

import numpy as np

from mbplace.exceptions import Infeasible
from mbplace.instance import (
    FeasibilitySets,
    Pair,
    PlacementInstance,
    build_feasibility,
    feasible,
)
from mbplace.netgraph import Network, compute_apsp
from mbplace.weighted import Request, preprocess


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_connected_network(rng, num_nodes: int, extra_edge_prob: float = 0.3,
                             weights: str = "uniform") -> Network:
    """Random spanning tree plus extra edges; always connected.

    ``weights``: "uniform" floats in [0.5, 2), "integer" in 1..9, or
    "dyadic" multiples of 1/16 in [0.5, 2] whose path sums are exact in
    double precision.
    """
    edges = []
    for v in range(1, num_nodes):
        u = int(rng.integers(0, v))
        edges.append((u, v, _weight(rng, weights)))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < extra_edge_prob:
                edges.append((u, v, _weight(rng, weights)))
    return Network.from_edges(num_nodes, edges)


def _weight(rng, kind: str) -> float:
    if kind == "integer":
        return float(rng.integers(1, 10))
    if kind == "dyadic":
        return float(rng.integers(8, 33)) / 16.0
    return float(rng.uniform(0.5, 2.0))


def random_instance(rng, *, num_nodes=10, num_pairs=6, num_candidates=None,
                    capacity=2, stretch=1.5) -> PlacementInstance:
    net = random_connected_network(rng, num_nodes)
    all_pairs = [(s, t) for s in range(num_nodes) for t in range(s + 1, num_nodes)]
    picks = rng.choice(len(all_pairs), size=min(num_pairs, len(all_pairs)), replace=False)
    pairs = [Pair(*all_pairs[i]) for i in sorted(picks)]
    if num_candidates is None or num_candidates >= num_nodes:
        candidates = tuple(range(num_nodes))
    else:
        candidates = tuple(sorted(rng.choice(num_nodes, size=num_candidates, replace=False).tolist()))
    dist = compute_apsp(net)
    return PlacementInstance(net=net, dist=dist, pairs=pairs, candidates=candidates,
                             capacity=capacity, stretch=stretch)


def coverable_instance(rng, **kwargs) -> tuple:
    """Random instance whose pairs are all coverable; returns (inst, fs).

    Candidates always include every pair endpoint (an endpoint trivially
    satisfies any stretch bound), so build_feasibility cannot fail.
    """
    inst = random_instance(rng, **kwargs)
    endpoints = {p.s for p in inst.pairs} | {p.t for p in inst.pairs}
    merged = tuple(sorted(set(inst.candidates) | endpoints))
    inst = PlacementInstance(net=inst.net, dist=inst.dist, pairs=inst.pairs,
                             candidates=merged, capacity=inst.capacity,
                             stretch=inst.stretch)
    return inst, build_feasibility(inst)


#: Draws ``feasible_instance`` makes before it gives up on its kwargs.
MAX_DRAWS = 100


def feasible_instance(rng, **kwargs) -> tuple:
    """Coverable instance that is also fully servable (phi(U) == |P|),
    drawn again until it is.

    Raises ValueError, naming the kwargs, at the first draw when its pairs
    outnumber what every node together can serve, and after ``MAX_DRAWS``
    draws that all fall short."""
    from mbplace.matching import phi

    for _ in range(MAX_DRAWS):
        inst, fs = coverable_instance(rng, **kwargs)
        if inst.num_pairs > inst.capacity * inst.net.num_nodes:
            raise ValueError(f"feasible_instance({kwargs}): {inst.num_pairs} pairs exceed "
                             f"capacity {inst.capacity} x {inst.net.num_nodes} nodes")
        if phi(fs.candidates, fs, inst.capacity) == inst.num_pairs:
            return inst, fs
    raise ValueError(f"feasible_instance({kwargs}): no fully servable draw in {MAX_DRAWS}")


def raw_feasibility(inst):
    """Feasibility sets without the empty-candidate-set error (pairs that no
    candidate can serve simply stay free)."""
    return feasible([(p.s, p.t) for p in inst.pairs], inst.dist, inst.candidates,
                    inst.stretch, inst.route_limit)


def relation(num_pairs: int, pairs_of) -> FeasibilitySets:
    """Feasibility sets from explicit per-candidate pair lists ``{u: pairs}``."""
    return FeasibilitySets(num_pairs, {u: sum(1 << p for p in set(ps))
                                       for u, ps in sorted(pairs_of.items())})


def relation_of(candidates_of) -> FeasibilitySets:
    """Feasibility sets straight from explicit per-request candidate lists."""
    universe = sorted({u for c in candidates_of for u in c})
    return relation(len(candidates_of), {
        u: [j for j, c in enumerate(candidates_of) if u in c] for u in universe})


def manual_problem(candidates_of, demands, kappa):
    """Preprocessed weighted problem straight from explicit per-request
    candidate lists: request j is a pair of demand ``demands[j]``."""
    return preprocess([Request.pair(0, 1, d) for d in demands], relation_of(candidates_of),
                      kappa)


def pairs_of(fs: FeasibilitySets) -> dict[int, tuple[int, ...]]:
    """``{u: S_u}`` of a relation, each S_u as an ascending tuple."""
    return {u: tuple(p for p in range(fs.num_pairs) if mask >> p & 1)
            for u, mask in fs.masks.items()}


def candidates_of(fs: FeasibilitySets) -> list[tuple[int, ...]]:
    """The relation per request: ``candidates_of(fs)[p]`` is the ascending
    tuple of candidates whose S_u holds p."""
    return [tuple(u for u, mask in fs.masks.items() if mask >> p & 1)
            for p in range(fs.num_pairs)]


def star_instance(num_pairs: int, c: int, *, capacity: int, stretch: float) -> PlacementInstance:
    """Hub-detour construction: each pair (s_i, t_i) has a direct unit edge
    and hangs off the shared hub on two branches of combined length c, so
    routing through the hub has stretch exactly c (the split depths
    ceil(c/2) / floor(c/2) keep the direct edge from shortcutting either
    branch). All non-hub nodes are private to a single pair."""
    assert c >= 2
    edges = []
    node = 1  # node 0 is the hub
    pairs = []

    def branch(depth: int) -> int:
        nonlocal node
        prev = 0
        for _ in range(depth):
            nxt = node
            node += 1
            edges.append((prev, nxt, 1.0))
            prev = nxt
        return prev

    for _ in range(num_pairs):
        s = branch((c + 1) // 2)
        t = branch(c // 2)
        edges.append((s, t, 1.0))
        pairs.append(Pair(s, t))
    net = Network.from_edges(node, edges)
    dist = compute_apsp(net)
    return PlacementInstance(net=net, dist=dist, pairs=pairs,
                             candidates=tuple(range(node)), capacity=capacity,
                             stretch=stretch)


def star_instance_nodes(total_nodes: int, c: int, *, capacity: int,
                        stretch: float) -> PlacementInstance:
    """Star construction padded to an exact node count: full c-detour gadgets
    while they fit, then one smaller gadget (or a dangling filler node)."""
    edges = []
    node = 1
    pairs = []

    def gadget(length: int):
        nonlocal node
        ends = []
        for depth in ((length + 1) // 2, length // 2):
            prev = 0
            for _ in range(depth):
                nxt = node
                node += 1
                edges.append((prev, nxt, 1.0))
                prev = nxt
            ends.append(prev)
        edges.append((ends[0], ends[1], 1.0))
        pairs.append(Pair(ends[0], ends[1]))

    remaining = total_nodes - 1
    while remaining >= c:
        gadget(c)
        remaining -= c
    if remaining >= 2:
        gadget(remaining)
        remaining = 0
    while remaining > 0:
        edges.append((0, node, 1.0))
        node += 1
        remaining -= 1
    net = Network.from_edges(node, edges)
    dist = compute_apsp(net)
    return PlacementInstance(net=net, dist=dist, pairs=pairs,
                             candidates=tuple(range(node)), capacity=capacity,
                             stretch=stretch)


def set_cover_instance(universe_size: int, subsets, capacity=None) -> PlacementInstance:
    """Set-cover gadget: element pairs (v_s, v_t) joined through subset nodes;
    at stretch 1 a middlebox cover is exactly a set cover."""
    num_nodes = 2 * universe_size + len(subsets)
    edges = []
    for i, subset in enumerate(subsets):
        mid = 2 * universe_size + i
        for v in subset:
            edges.append((2 * v, mid, 1.0))
            edges.append((mid, 2 * v + 1, 1.0))
    net = Network.from_edges(num_nodes, edges)
    pairs = [Pair(2 * v, 2 * v + 1) for v in range(universe_size)]
    dist = compute_apsp(net)
    candidates = tuple(2 * universe_size + i for i in range(len(subsets)))
    return PlacementInstance(net=net, dist=dist, pairs=pairs, candidates=candidates,
                             capacity=capacity or universe_size, stretch=1.0)


def random_weighted_problem(rng, *, num_nodes=8, num_requests=6, group_prob=0.25,
                            kappa=None, stretch=2.0):
    """Random weighted instance; returns (requests, rfs, prep, kappa, dist).

    ``prep`` is None when a kept request has no feasible candidate, which
    ``preprocess`` rejects as Infeasible."""
    net = random_connected_network(rng, num_nodes)
    dist = compute_apsp(net)
    requests = []
    for _ in range(num_requests):
        if rng.random() < group_prob and num_nodes >= 3:
            size = int(rng.integers(3, min(5, num_nodes) + 1))
            nodes = rng.choice(num_nodes, size=size, replace=False).tolist()
            requests.append(Request.group(nodes, float(rng.uniform(0.5, 3.0))))
        else:
            s, t = rng.choice(num_nodes, size=2, replace=False).tolist()
            requests.append(Request.pair(s, t, float(rng.uniform(0.5, 3.0))))
    if kappa is None:
        kappa = float(rng.uniform(2.5, 6.0))
    rfs = feasible([r.nodes for r in requests], dist, range(num_nodes), stretch, None)
    try:
        prep = preprocess(requests, rfs, kappa)
    except Infeasible:
        prep = None
    return requests, rfs, prep, kappa, dist


def coverable_weighted_problem(rng, **kwargs):
    """random_weighted_problem, drawn again until every kept request has a
    feasible candidate (so ``prep`` is not None)."""
    while True:
        problem = random_weighted_problem(rng, **kwargs)
        if problem[2] is not None:
            return problem
