"""Metamorphic relations: the validated runs give the same answer on an
input changed in a way that cannot matter. phi and the fractional LP value
do not depend on how the pairs or requests are numbered, and both greedy
variants break ties by candidate id, so shuffling the pairs or requests must
leave the middlebox sequence, its gains and the LP value unchanged. Doubling
every edge weight (and a route limit) doubles every distance and bound
exactly in floating point, and an isolated candidate serves no pair, so
neither may change the unweighted run at all, its assignment included.
Renaming the nodes by a permutation sigma, on edge weights whose path sums
are exact (multiples of 1/16), renames every distance exactly, so it maps
each candidate's pairs to sigma of the candidate, and keeps phi of every
sigma-mapped set and the exact minimum. A sigma that keeps the candidates'
order also keeps every tie-break, so the run is the sigma-image of the
original, assignment included. Apart from the oracle minimum on desk-scale
instances, no relation needs an oracle, so all run at sizes the oracles
cannot reach.
"""

import dataclasses
import itertools

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from builders import (candidates_of, coverable_instance, random_connected_network, raw_feasibility,
                      rng_for)

from mbplace import PlacementError, solve_unweighted
from mbplace.exceptions import Infeasible
from mbplace.ingest import ScenarioConfig, generate_unweighted_scenario
from mbplace.instance import Pair, PlacementInstance, build_feasibility
from mbplace.matching import phi
from mbplace.netgraph import Network, compute_apsp
from mbplace.oracle import exact_min_middleboxes
from mbplace.weighted import Request, WeightedInstance, solve_weighted


def _greedy_run(inst):
    """(chosen, gain) per step, or the class of the error the run raised, and
    the pair -> middlebox assignment of a run that succeeded."""
    try:
        trace = solve_unweighted(inst, build_feasibility(inst))
    except PlacementError as exc:
        return type(exc), None
    return [(s.chosen, s.gain) for s in trace.steps], trace.engine.assignment()


def _weighted_run(winst):
    """(chosen, fractional objective), or the class of the error the run raised."""
    try:
        _, chosen, frac, _ = solve_weighted(winst)
    except PlacementError as exc:
        return type(exc)
    return chosen, frac.objective


def _weighted_instance(rng, num_nodes, num_requests, *, extra_edge_prob, kappa, stretch):
    net = random_connected_network(rng, num_nodes, extra_edge_prob)
    requests = []
    for _ in range(num_requests):
        if rng.random() < 0.25:
            nodes = rng.choice(num_nodes, size=3, replace=False).tolist()
            requests.append(Request.group(nodes, float(rng.uniform(0.5, 3.0))))
        else:
            s, t = rng.choice(num_nodes, size=2, replace=False).tolist()
            requests.append(Request.pair(s, t, float(rng.uniform(0.5, 3.0))))
    return WeightedInstance(net, compute_apsp(net), requests, tuple(range(num_nodes)), kappa,
                            stretch=stretch)


def _scale_case(num_nodes):
    """An at-scale instance: a random ``num_nodes``-node network with the
    scenario's pairs at p 0.3 and stretch 1.5 under the weight metric, and
    the generator that drew the network, for further draws."""
    rng = rng_for(num_nodes)
    net = random_connected_network(rng, num_nodes, extra_edge_prob=0.03)
    return rng, generate_unweighted_scenario(
        ScenarioConfig(topology="random", p=0.3, stretch=1.5, seed=num_nodes, metric="weight"),
        net)


class TestShuffledPairs:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_same_middleboxes_and_gains(self, seed, data):
        rng = rng_for(seed)
        inst, _ = coverable_instance(rng, num_nodes=int(rng.integers(6, 13)),
                                     num_pairs=int(rng.integers(3, 16)),
                                     capacity=int(rng.integers(1, 5)))
        shuffled = dataclasses.replace(inst, pairs=data.draw(st.permutations(inst.pairs)))
        assert _greedy_run(shuffled)[0] == _greedy_run(inst)[0]

    def test_same_middleboxes_and_gains_at_scale(self):
        rng, inst = _scale_case(120)
        order = rng.permutation(inst.num_pairs)
        shuffled = dataclasses.replace(inst, pairs=[inst.pairs[i] for i in order])
        run = _greedy_run(inst)[0]
        assert len(run) > 1
        assert _greedy_run(shuffled)[0] == run


class TestShuffledRequests:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_same_chosen_set_and_objective(self, seed, data):
        rng = rng_for(seed)
        winst = _weighted_instance(rng, int(rng.integers(5, 9)), int(rng.integers(1, 7)),
                                   extra_edge_prob=0.3, kappa=float(rng.uniform(2.5, 6.0)),
                                   stretch=2.0)
        shuffled = dataclasses.replace(winst,
                                       requests=data.draw(st.permutations(winst.requests)))
        assert _weighted_run(shuffled) == _weighted_run(winst)

    def test_same_chosen_set_and_objective_at_scale(self):
        rng = rng_for(100)
        winst = _weighted_instance(rng, 100, 12, extra_edge_prob=0.04, kappa=4.0,
                                   stretch=1.3)
        order = rng.permutation(len(winst.requests))
        shuffled = dataclasses.replace(winst, requests=[winst.requests[i] for i in order])
        run = _weighted_run(winst)
        assert isinstance(run, tuple) and len(run[0]) > 1
        assert _weighted_run(shuffled) == run


def _unweighted_case(seed):
    """A random instance whose pairs all have a candidate, under a stretch
    bound or under a route limit no shorter than its longest pair."""
    rng = rng_for(seed)
    inst, _ = coverable_instance(rng, num_nodes=int(rng.integers(6, 13)),
                                 num_pairs=int(rng.integers(3, 16)),
                                 capacity=int(rng.integers(1, 5)))
    if rng.random() < 0.5:
        longest = max(float(inst.dist[p.s, p.t]) for p in inst.pairs)
        inst = dataclasses.replace(inst, stretch=None,
                                   route_limit=longest * float(rng.uniform(1.0, 2.0)))
    return inst


def _doubled(inst):
    """``inst`` with every edge weight, and a route limit, times 2."""
    net = Network.from_edges(inst.net.num_nodes, [(u, v, 2 * w) for u, v, w in inst.net.edges])
    return dataclasses.replace(
        inst, net=net, dist=compute_apsp(net, inst.metric),
        route_limit=None if inst.route_limit is None else 2 * inst.route_limit)


def _with_isolated_candidate(inst):
    """``inst`` with one more node, linked to nothing, as its last candidate."""
    isolated = inst.net.num_nodes
    net = Network.from_edges(isolated + 1, inst.net.edges)
    extended = dataclasses.replace(inst, net=net, dist=compute_apsp(net, inst.metric),
                                   candidates=inst.candidates + (isolated,))
    assert build_feasibility(extended).masks[isolated] == 0
    return extended


class TestDoubledWeights:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_same_run_and_assignment(self, seed):
        inst = _unweighted_case(seed)
        assert _greedy_run(_doubled(inst)) == _greedy_run(inst)

    def test_same_run_and_assignment_at_scale(self):
        _, inst = _scale_case(110)
        run = _greedy_run(inst)
        assert len(run[0]) > 1
        assert _greedy_run(_doubled(inst)) == run


class TestIsolatedCandidate:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_same_run_and_assignment(self, seed):
        inst = _unweighted_case(seed)
        # One more candidate adds capacity, which could pass the pigeonhole check.
        assume(inst.num_pairs <= inst.capacity * len(inst.candidates))
        assert _greedy_run(_with_isolated_candidate(inst)) == _greedy_run(inst)

    def test_same_run_and_assignment_at_scale(self):
        _, inst = _scale_case(100)
        run = _greedy_run(inst)
        assert len(run[0]) > 1
        assert _greedy_run(_with_isolated_candidate(inst)) == run


def _dyadic_case(rng, num_nodes, pair_prob, num_candidates, capacity, stretch, extra_edge_prob):
    """An instance on dyadic edge weights over a strict subset of the nodes as
    candidates, keeping only the pairs some candidate serves."""
    net = random_connected_network(rng, num_nodes, extra_edge_prob, weights="dyadic")
    pairs = [Pair(s, t) for s, t in itertools.combinations(range(num_nodes), 2)
             if rng.random() < pair_prob]
    candidates = rng.choice(num_nodes, size=num_candidates, replace=False).tolist()
    inst = PlacementInstance(net=net, dist=compute_apsp(net), pairs=pairs,
                             candidates=candidates, capacity=capacity, stretch=stretch)
    served = [p for p, us in zip(inst.pairs, candidates_of(raw_feasibility(inst))) if us]
    return dataclasses.replace(inst, pairs=served)


def _order_keeping(rng, num_nodes, candidates) -> list[int]:
    """A random permutation of the nodes that maps the ascending candidates
    onto a random node set in ascending order."""
    images = sorted(rng.choice(num_nodes, size=len(candidates), replace=False).tolist())
    sigma = [-1] * num_nodes
    for u, v in zip(candidates, images):
        sigma[u] = v
    rest = rng.permutation(sorted(set(range(num_nodes)) - set(images))).tolist()
    for u in range(num_nodes):
        if sigma[u] < 0:
            sigma[u] = rest.pop()
    return sigma


def _relabel(inst, sigma):
    """``inst`` with node u renamed sigma[u]; pair i stays pair i."""
    net = Network.from_edges(inst.net.num_nodes,
                             [(sigma[u], sigma[v], w) for u, v, w in inst.net.edges])
    renamed = dataclasses.replace(inst, net=net, dist=compute_apsp(net),
                                  pairs=[Pair(sigma[p.s], sigma[p.t]) for p in inst.pairs],
                                  candidates=[sigma[u] for u in inst.candidates])
    assert np.array_equal(renamed.dist[np.ix_(sigma, sigma)], inst.dist)
    return renamed


def _renamed_run(inst, sigma):
    """``_greedy_run`` of ``inst`` with every node id renamed by sigma."""
    run, assignment = _greedy_run(inst)
    if assignment is None:
        return run, None
    return [(sigma[u], gain) for u, gain in run], {i: sigma[m] for i, m in assignment.items()}


def _desk_case(seed):
    rng = rng_for(seed)
    num_nodes = int(rng.integers(5, 11))
    inst = _dyadic_case(rng, num_nodes, float(rng.uniform(0.2, 0.6)),
                        int(rng.integers(2, min(num_nodes - 1, 8) + 1)),
                        int(rng.integers(2, 7)), float(rng.choice([1.0, 1.25, 1.5, 2.0])), 0.3)
    return rng, inst


class TestRelabelledNodes:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_order_keeping_sigma_maps_the_run(self, seed):
        rng, inst = _desk_case(seed)
        sigma = _order_keeping(rng, inst.net.num_nodes, inst.candidates)
        assert _greedy_run(_relabel(inst, sigma)) == _renamed_run(inst, sigma)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_any_sigma_keeps_phi_and_the_minimum(self, seed):
        rng, inst = _desk_case(seed)
        sigma = rng.permutation(inst.net.num_nodes).tolist()
        renamed = _relabel(inst, sigma)
        fs, renamed_fs = raw_feasibility(inst), raw_feasibility(renamed)
        assert renamed_fs.masks == {sigma[u]: mask for u, mask in fs.masks.items()}
        for k in range(len(inst.candidates) + 1):
            for subset in itertools.combinations(inst.candidates, k):
                assert phi([sigma[u] for u in subset], renamed_fs, inst.capacity) == \
                    phi(subset, fs, inst.capacity)

        def minimum(case, case_fs):
            try:
                return exact_min_middleboxes(case, case_fs).value
            except Infeasible:
                return Infeasible

        assert minimum(renamed, renamed_fs) == minimum(inst, fs)

    def test_order_keeping_sigma_maps_the_run_at_scale(self):
        rng = rng_for(100)
        inst = _dyadic_case(rng, 100, 0.3, 50, 30, 1.5, 0.03)
        sigma = _order_keeping(rng, 100, inst.candidates)
        run = _renamed_run(inst, sigma)
        assert len(run[0]) > 1
        assert _greedy_run(_relabel(inst, sigma)) == run
