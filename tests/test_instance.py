import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builders import (
    candidates_of,
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
    # No candidate gives a pair without a path a finite detour: the relation
    # leaves it uncovered.
    net = Network.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    inst = PlacementInstance(net=net, dist=compute_apsp(net), pairs=[Pair(0, 2)],
                             candidates=(0, 1, 2, 3), capacity=1, stretch=2.0)
    with pytest.raises(InfeasiblePair, match="no candidate satisfies the bound"):
        build_feasibility(inst)


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
        assert fs.masks[0] & 1
        assert fs.masks[3] & 1

    def test_star_center_feasible_exactly_at_cost_ratio(self):
        # Hub detour has stretch exactly c: feasible at rho=c, not below.
        at = build_feasibility(star_instance(4, 4, capacity=10, stretch=4.0))
        below = build_feasibility(star_instance(4, 4, capacity=10, stretch=3.9))
        for i in range(4):
            assert at.masks[0] >> i & 1
            assert not below.masks[0] >> i & 1

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
                via = inst.dist[p.s, u] + inst.dist[u, p.t]
                naive = via <= inst.stretch * inst.dist[p.s, p.t] * (1 + 1e-9)
                assert bool(fs.masks[u] >> i & 1) == naive
                hits += 1
        assert hits == 1000


def masks_of(ok, candidates) -> dict[int, int]:
    """``{u: S_u}`` of a bool ``ok[j, k]`` matrix, S_u as a bitset."""
    return {u: sum(1 << j for j in np.flatnonzero(ok[:, k]).tolist())
            for k, u in enumerate(candidates)}


class TestFeasibleMatchesScalarReference:
    """``feasible``'s masks against the scalar ``math.isclose`` loop of
    tests/oracles.py."""

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
        assert got.num_pairs == len(members)
        assert got.masks == masks_of(feasible_reference(members, dist, range(5), stretch,
                                                        limit), range(5))
        # 1 + 5e-10 is within the tolerance, 1 + 2e-9 is not, inf never is.
        assert [u for u, mask in got.masks.items() if mask & 1] == [0, 1, 2]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs_and_groups_in_both_modes(self, seed):
        rng = rng_for(900 + seed)
        net = random_connected_network(rng, 9, weights=["uniform", "integer", "dyadic"][seed % 3])
        dist = compute_apsp(Network.from_edges(10, net.edges))  # node 9 is isolated
        members = [tuple(rng.choice(10, size=int(rng.integers(2, 5)), replace=False).tolist())
                   for _ in range(30)]
        candidates = rng.choice(10, size=7, replace=False).tolist()  # unsorted
        for stretch, limit in [(1.0, None), (1.3, None), (2.0, None), (1e308, None),
                               (math.inf, None), (None, 2.0), (None, math.inf),
                               (None, float(rng.uniform(1.0, 6.0)))]:
            got = feasible(members, dist, candidates, stretch, limit)
            want = feasible_reference(members, dist, candidates, stretch, limit)
            assert got.num_pairs == len(members)
            assert list(got.masks) == sorted(candidates)
            assert got.masks == masks_of(want, candidates)


class TestBuildFeasibility:
    def test_star_center_serves_every_pair(self):
        inst = star_instance(5, 3, capacity=10, stretch=3.0)
        fs = build_feasibility(inst)
        for cands in candidates_of(fs):
            assert 0 in cands

    def test_stretch_one_limits_to_shortest_path_nodes(self):
        net = Network.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (3, 2, 1.5)])
        inst = PlacementInstance(net=net, dist=compute_apsp(net), pairs=[Pair(0, 2)],
                                 candidates=(0, 1, 2, 3), capacity=1, stretch=1.0)
        fs = build_feasibility(inst)
        assert candidates_of(fs)[0] == (0, 1, 2)  # node 3 is off the unique shortest path

    def test_matches_exhaustive_triple_loop(self):
        rng = rng_for(23)
        inst = random_instance(rng, num_nodes=15, num_pairs=10, capacity=3, stretch=1.6)
        fs = build_feasibility(inst)
        for u in inst.candidates:
            expected = tuple(
                i for i, p in enumerate(inst.pairs)
                if inst.dist[p.s, u] + inst.dist[u, p.t]
                <= inst.stretch * inst.dist[p.s, p.t] * (1 + 1e-9)
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
            cands = candidates_of(fs)
            assert sum(len(v) for v in pairs_of(fs).values()) == sum(len(c) for c in cands)
            for u, ps in pairs_of(fs).items():
                for p in ps:
                    assert u in cands[p]

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
        assert candidates_of(fs)[0] == (0, 1, 2)
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
        with pytest.raises(Infeasible):
            check_total_capacity(inst)

    def test_empty_pairs_ok(self):
        check_total_capacity(simple_instance(pairs=[]))

    def test_random_coverable_instances_pass(self):
        rng = rng_for(41)
        for _ in range(20):
            inst, _ = coverable_instance(rng, num_nodes=8, num_pairs=5, capacity=3)
            check_total_capacity(inst)


def test_manual_feasibility_sets_compute_reverse_direction():
    fs = relation(3, {5: (0, 2), 7: (1,)})
    assert candidates_of(fs) == [(5,), (7,), (5,)]
    assert fs.masks[5] >> 2 & 1 and not fs.masks[7] >> 2 & 1
    assert fs.edge_count() == 3


@st.composite
def relations(draw):
    """A number of pairs with one bitset per sorted candidate; the sizes reach
    0 pairs, 0 candidates and bitsets longer than one machine word."""
    num_pairs = draw(st.integers(0, 140))
    candidates = sorted(draw(st.sets(st.integers(0, 60), max_size=8)))
    masks = {u: draw(st.integers(0, (1 << num_pairs) - 1)) for u in candidates}
    return num_pairs, masks


@settings(max_examples=200, deadline=None)
@given(relations())
def test_relation_views_match_its_bits(case):
    num_pairs, masks = case
    fs = FeasibilitySets(num_pairs, masks)
    hits = [[u for u, mask in masks.items() if mask >> p & 1] for p in range(num_pairs)]
    assert fs.candidates == tuple(masks)
    assert candidates_of(fs) == [tuple(us) for us in hits]
    assert fs.uncovered() == [p for p, us in enumerate(hits) if not us]
    assert fs.edge_count() == sum(map(len, hits))


@st.composite
def validation_cases(draw):
    """Pairs and groups on a random 6-node network plus the isolated node
    6, a stretch or route-limit bound (finite or not), and an assignment of
    some requests to drawn boxes, repeated boxes included."""
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    net = random_connected_network(rng, 6, weights=draw(
        st.sampled_from(["uniform", "integer", "dyadic"])))
    dist = compute_apsp(Network.from_edges(7, net.edges))
    node = st.integers(0, 6)
    members = draw(st.lists(st.lists(node, min_size=2, max_size=4, unique=True).map(tuple),
                            min_size=1, max_size=8))
    stretch, limit = draw(st.one_of(
        st.sampled_from([(1.0, None), (1.3, None), (2.0, None), (math.inf, None),
                         (None, 0.0), (None, 2.0), (None, math.inf)]),
        st.floats(1.0, 6.0).map(lambda limit: (None, limit))))
    served = draw(st.lists(st.tuples(st.integers(0, len(members) - 1), node),
                           min_size=1, unique_by=lambda entry: entry[0]))
    return members, dict(served), dist, stretch, limit


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

    @staticmethod
    def check_against_reference(members, assignment, dist, stretch, limit):
        """Validate ``assignment`` at unit demands with its own loads: it must
        fail ``infeasible at u`` for the first assigned request the scalar
        reference rejects at its own box u, and pass when there is none.
        Returns the rejected (request, box) entries."""
        rejected = [(j, u) for j, u in assignment.items()
                    if not feasible_reference([members[j]], dist, [u], stretch, limit)[0, 0]]

        def run():
            validate_assignment(members, [1] * len(members), assignment,
                                Counter(assignment.values()), dist, stretch, limit,
                                required=assignment, load_limit=len(members))

        if rejected:
            j, u = rejected[0]
            with pytest.raises(PlacementError,
                               match=re.escape(f"request {j} {members[j]} infeasible at {u}")):
                run()
        else:
            run()
        return rejected

    def test_request_checked_at_its_own_box_only(self):
        net = Network.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        dist = compute_apsp(net)
        # (1, 2) is infeasible at its own box 0, though box 1, deployed for
        # (0, 3), would serve it.
        assert feasible_reference([(1, 2)], dist, [1], 1.0, None)[0, 0]
        assert self.check_against_reference(self.MEMBERS, {0: 1, 1: 0}, dist, 1.0, None) \
            == [(1, 0)]

    @settings(max_examples=150, deadline=None)
    @given(validation_cases())
    def test_infeasible_exactly_where_the_reference_rejects(self, case):
        self.check_against_reference(*case)
