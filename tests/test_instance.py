import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from builders import (
    coverable_instance,
    pairs_of,
    random_connected_network,
    random_instance,
    relation,
    rng_for,
    star_instance,
)
from oracles import feasible_reference

from mbplace.exceptions import Infeasible, InfeasiblePair, PlacementError
from mbplace.instance import (
    FeasibilitySets,
    Pair,
    PlacementInstance,
    build_feasibility,
    check_total_capacity,
    feasible,
    validate_assignment,
)
from mbplace.netgraph import Network, compute_apsp


def simple_instance(**overrides):
    net = Network.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 5.0)])
    kwargs = dict(net=net, dist=compute_apsp(net), pairs=[Pair(0, 3)],
                  candidates=(0, 1, 2, 3), capacity=2, stretch=1.5)
    kwargs.update(overrides)
    return PlacementInstance(**kwargs)


def test_pair_canonicalized_and_rejects_loops():
    assert Pair(3, 1) == Pair(1, 3)
    with pytest.raises(ValueError):
        Pair(2, 2)


def test_duplicate_pairs_warn_and_collapse():
    with pytest.warns(UserWarning):
        inst = simple_instance(pairs=[Pair(0, 3), Pair(3, 0)])
    assert inst.num_pairs == 1


def test_disconnected_pair_rejected():
    net = Network.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(InfeasiblePair):
        PlacementInstance(net=net, dist=compute_apsp(net), pairs=[Pair(0, 2)],
                          candidates=(0,), capacity=1, stretch=2.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        simple_instance(capacity=0)
    with pytest.raises(ValueError):
        simple_instance(stretch=0.9)
    with pytest.raises(ValueError):
        simple_instance(candidates=())
    with pytest.raises(ValueError):
        simple_instance(stretch=None)  # neither bound set


class TestIsFeasible:
    def test_endpoint_always_feasible(self):
        fs = build_feasibility(simple_instance(stretch=1.0))
        assert fs.contains(0, 0)
        assert fs.contains(3, 0)

    def test_star_center_feasible_exactly_at_cost_ratio(self):
        # Hub detour has stretch exactly c: feasible at rho=c, not below.
        at = build_feasibility(star_instance(4, 4, capacity=10, stretch=4.0))
        below = build_feasibility(star_instance(4, 4, capacity=10, stretch=3.9))
        for i in range(4):
            assert at.contains(0, i)
            assert not below.contains(0, i)

    def test_matches_direct_inequality_on_random_draws(self):
        rng = rng_for(11)
        hits = 0
        for _ in range(40):
            inst = random_instance(rng, num_nodes=8, num_pairs=5)
            fs = build_feasibility(inst)
            for _ in range(25):
                u = int(rng.integers(0, 8))
                i = int(rng.integers(0, len(inst.pairs)))
                p = inst.pairs[i]
                via = inst.dist.d(p.s, u) + inst.dist.d(u, p.t)
                naive = via <= inst.stretch * inst.dist.d(p.s, p.t) * (1 + 1e-9)
                assert fs.contains(u, i) == naive
                hits += 1
        assert hits == 1000


class TestFeasibleMatchesScalarReference:
    """``feasible`` against the scalar ``math.isclose`` loop of tests/oracles.py."""

    @staticmethod
    def tolerance_gadget():
        """Edge 0-1 of length 1; node 2 (3) joins both ends with edges of
        0.75 * (1 + 5e-10) (0.75 * (1 + 2e-9)), so at stretch 1.5 or route
        limit 1.5 its detour for pair (0, 1) is the bound times 1 + 5e-10
        (1 + 2e-9); node 4 is isolated (distance inf)."""
        inside, outside = 0.75 * (1 + 5e-10), 0.75 * (1 + 2e-9)
        net = Network.from_edges(5, [(0, 1, 1.0), (0, 2, inside), (1, 2, inside),
                                     (0, 3, outside), (1, 3, outside)])
        return compute_apsp(net)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stretch, limit", [(1.5, None), (None, 1.5)])
    def test_tolerance_edges_and_disconnected_candidate(self, stretch, limit):
        dist = self.tolerance_gadget()
        members = [(0, 1), (0, 1, 2), (0, 1, 3), (0, 1, 2, 3), (0, 4), (1, 2, 4)]
        got = feasible(members, dist, range(5), stretch, limit)
        assert np.array_equal(got, feasible_reference(members, dist.values, range(5),
                                                      stretch, limit))
        # 1 + 5e-10 is within the tolerance, 1 + 2e-9 is not, inf never is.
        assert got[0].tolist() == [True, True, True, False, False]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs_and_groups_in_both_modes(self, seed):
        rng = rng_for(900 + seed)
        net = random_connected_network(rng, 9, weights=["uniform", "integer", "dyadic"][seed % 3])
        dist = compute_apsp(Network.from_edges(10, net.edges))  # node 9 is isolated
        members = [tuple(rng.choice(10, size=int(rng.integers(2, 5)), replace=False).tolist())
                   for _ in range(30)]
        candidates = sorted(rng.choice(10, size=7, replace=False).tolist())
        for stretch, limit in [(1.0, None), (1.3, None), (2.0, None), (1e308, None),
                               (math.inf, None), (None, 2.0),
                               (None, float(rng.uniform(1.0, 6.0)))]:
            got = feasible(members, dist, candidates, stretch, limit)
            want = feasible_reference(members, dist.values, candidates, stretch, limit)
            assert np.array_equal(got, want)


class TestBuildFeasibility:
    def test_star_center_serves_every_pair(self):
        inst = star_instance(5, 3, capacity=10, stretch=3.0)
        fs = build_feasibility(inst)
        for cands in fs.candidates_of:
            assert 0 in cands

    def test_stretch_one_limits_to_shortest_path_nodes(self):
        net = Network.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (3, 2, 1.5)])
        inst = PlacementInstance(net=net, dist=compute_apsp(net), pairs=[Pair(0, 2)],
                                 candidates=(0, 1, 2, 3), capacity=1, stretch=1.0)
        fs = build_feasibility(inst)
        assert fs.candidates_of[0] == (0, 1, 2)  # node 3 is off the unique shortest path

    def test_matches_exhaustive_triple_loop(self):
        rng = rng_for(23)
        inst = random_instance(rng, num_nodes=15, num_pairs=10, capacity=3, stretch=1.6)
        fs = build_feasibility(inst)
        for u in inst.candidates:
            expected = tuple(
                i for i, p in enumerate(inst.pairs)
                if inst.dist.d(p.s, u) + inst.dist.d(u, p.t)
                <= inst.stretch * inst.dist.d(p.s, p.t) * (1 + 1e-9)
            )
            assert pairs_of(fs)[u] == expected

    def test_raises_when_pair_uncoverable(self):
        net = Network.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        tight = PlacementInstance(net=net, dist=compute_apsp(net), pairs=[Pair(0, 2)],
                                  candidates=(1,), capacity=1, stretch=None,
                                  route_limit=1.0)
        with pytest.raises(InfeasiblePair):
            build_feasibility(tight)

    def test_duality_of_directions(self):
        rng = rng_for(31)
        for _ in range(25):
            inst, fs = coverable_instance(rng, num_nodes=9, num_pairs=6)
            assert sum(len(v) for v in pairs_of(fs).values()) == \
                sum(len(c) for c in fs.candidates_of)
            for u, ps in pairs_of(fs).items():
                for p in ps:
                    assert u in fs.candidates_of[p]

    def test_monotone_in_stretch(self):
        rng = rng_for(37)
        for _ in range(25):
            inst = random_instance(rng, num_nodes=9, num_pairs=6, stretch=1.2)
            wider = PlacementInstance(net=inst.net, dist=inst.dist, pairs=inst.pairs,
                                      candidates=inst.candidates, capacity=inst.capacity,
                                      stretch=1.7)
            narrow = build_feasibility(inst).masks
            wide = build_feasibility(wider).masks
            for u in narrow:
                assert narrow[u] & ~wide[u] == 0


class TestRouteLimitPredicate:
    def test_limit_bounds_absolute_length(self):
        net = Network.from_edges(3, [(0, 1, 2.0), (1, 2, 2.0)])
        inst = PlacementInstance(net=net, dist=compute_apsp(net), pairs=[Pair(0, 2)],
                                 candidates=(0, 1, 2), capacity=1,
                                 stretch=None, route_limit=4.0)
        fs = build_feasibility(inst)
        assert fs.candidates_of[0] == (0, 1, 2)
        tighter = PlacementInstance(net=net, dist=compute_apsp(net), pairs=[Pair(0, 2)],
                                    candidates=(0, 1, 2), capacity=1,
                                    stretch=None, route_limit=3.9)
        with pytest.raises(InfeasiblePair):
            build_feasibility(tighter)


class TestTotalCapacityCheck:
    def test_pigeonhole_infeasible(self):
        net = Network.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        inst = PlacementInstance(net=net, dist=compute_apsp(net),
                                 pairs=[Pair(0, 1), Pair(1, 2)], candidates=(1,),
                                 capacity=1, stretch=3.0)
        fs = build_feasibility(inst)
        with pytest.raises(Infeasible):
            check_total_capacity(inst, fs)

    def test_empty_pairs_ok(self):
        inst = simple_instance(pairs=[])
        fs = build_feasibility(inst)
        check_total_capacity(inst, fs)

    def test_random_coverable_instances_pass(self):
        rng = rng_for(41)
        for _ in range(20):
            inst, fs = coverable_instance(rng, num_nodes=8, num_pairs=5, capacity=3)
            check_total_capacity(inst, fs)

    def test_uncoverable_pair_listed(self):
        net = Network.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        inst = PlacementInstance(net=net, dist=compute_apsp(net),
                                 pairs=[Pair(0, 1), Pair(0, 2)], candidates=(0,),
                                 capacity=2, stretch=2.0)
        fs = relation(2, {0: (0,)})
        with pytest.raises(Infeasible) as err:
            check_total_capacity(inst, fs)
        assert err.value.uncoverable == (Pair(0, 2),)


def test_manual_feasibility_sets_compute_reverse_direction():
    fs = relation(3, {5: (0, 2), 7: (1,)})
    assert fs.candidates_of == [(5,), (7,), (5,)]
    assert fs.contains(5, 2) and not fs.contains(7, 2)
    assert fs.edge_count() == 3


@st.composite
def matrices(draw):
    """A bool ``feasible`` matrix with its sorted candidates; the sizes reach
    0 pairs, 0 candidates and bitsets longer than one machine word."""
    candidates = sorted(draw(st.sets(st.integers(0, 60), max_size=8)))
    shape = (draw(st.integers(0, 140)), len(candidates))
    return draw(arrays(bool, shape)), candidates


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_relation_matches_its_matrix(case):
    ok, candidates = case
    fs = FeasibilitySets.from_matrix(ok, candidates)
    assert fs.num_pairs == len(ok)
    assert list(fs.masks) == candidates
    for k, u in enumerate(candidates):
        assert fs.masks[u] == sum(1 << p for p in np.flatnonzero(ok[:, k]).tolist())
    assert fs.candidates_of == [tuple(u for u, hit in zip(candidates, row) if hit) for row in ok]
    assert fs.uncovered() == np.flatnonzero(~ok.any(axis=1)).tolist()
    assert fs.edge_count() == int(ok.sum())


class TestValidateAssignment:
    """Path 0-1-2-3 with unit hops at stretch 1: a box serves a pair only on
    its shortest path."""

    MEMBERS = [(0, 3), (1, 2)]

    def check(self, assignment, claimed, load_limit=1):
        net = Network.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        validate_assignment(self.MEMBERS, [1, 1], assignment, claimed, compute_apsp(net),
                            1.0, None, required=range(2), load_limit=load_limit)

    def test_valid_solution_passes(self):
        self.check({0: 1, 1: 2}, {1: 1, 2: 1})

    @pytest.mark.parametrize("assignment, claimed, load_limit, message", [
        ({0: 1}, {1: 1}, 1, "is not served"),
        ({0: 1, 1: 0}, {0: 1, 1: 1}, 1, "infeasible at 0"),
        ({0: 1, 1: 1}, {1: 2}, 1, "load 2 > 1"),
        ({0: 1, 1: 2}, {1: 1, 2: 2}, 2, "bookkeeping mismatch at 2"),
        ({0: 1, 1: 2}, {1: 1, 2: 1, 3: 1}, 1, "bookkeeping mismatch at 3"),
    ])
    def test_each_violation_raises(self, assignment, claimed, load_limit, message):
        with pytest.raises(PlacementError, match=message):
            self.check(assignment, claimed, load_limit)
