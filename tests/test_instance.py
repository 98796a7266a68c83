import pytest

from builders import coverable_instance, random_instance, rng_for, star_instance

from mbplace.exceptions import Infeasible, InfeasiblePair, PlacementError
from mbplace.instance import (
    FeasibilitySets,
    Pair,
    PlacementInstance,
    build_feasibility,
    check_total_capacity,
    is_feasible,
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
        inst = simple_instance(stretch=1.0)
        assert is_feasible(0, Pair(0, 3), inst)
        assert is_feasible(3, Pair(0, 3), inst)

    def test_star_center_feasible_exactly_at_cost_ratio(self):
        # Hub detour has stretch exactly c: feasible at rho=c, not below.
        at = star_instance(4, 4, capacity=10, stretch=4.0)
        below = star_instance(4, 4, capacity=10, stretch=3.9)
        for p in at.pairs:
            assert is_feasible(0, p, at)
            assert not is_feasible(0, p, below)

    def test_matches_direct_inequality_on_random_draws(self):
        rng = rng_for(11)
        hits = 0
        for _ in range(40):
            inst = random_instance(rng, num_nodes=8, num_pairs=5)
            for _ in range(25):
                u = int(rng.integers(0, 8))
                p = inst.pairs[int(rng.integers(0, len(inst.pairs)))]
                via = inst.dist.d(p.s, u) + inst.dist.d(u, p.t)
                naive = via <= inst.stretch * inst.dist.d(p.s, p.t) * (1 + 1e-9)
                assert is_feasible(u, p, inst) == naive
                hits += 1
        assert hits == 1000


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
            assert fs.pairs_of[u] == expected

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
            assert sum(len(v) for v in fs.pairs_of.values()) == \
                sum(len(c) for c in fs.candidates_of)
            for u, ps in fs.pairs_of.items():
                for p in ps:
                    assert u in fs.candidates_of[p]

    def test_monotone_in_stretch(self):
        rng = rng_for(37)
        for _ in range(25):
            inst = random_instance(rng, num_nodes=9, num_pairs=6, stretch=1.2)
            wider = PlacementInstance(net=inst.net, dist=inst.dist, pairs=inst.pairs,
                                      candidates=inst.candidates, capacity=inst.capacity,
                                      stretch=1.7)
            narrow = {u: set(ps) for u, ps in _sets_or_empty(inst).items()}
            wide = {u: set(ps) for u, ps in _sets_or_empty(wider).items()}
            for u in narrow:
                assert narrow[u] <= wide[u]


def _sets_or_empty(inst):
    return {
        u: tuple(i for i, p in enumerate(inst.pairs) if is_feasible(u, p, inst))
        for u in inst.candidates
    }


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
        fs = FeasibilitySets(num_pairs=2, pairs_of={0: (0,)})
        with pytest.raises(Infeasible) as err:
            check_total_capacity(inst, fs)
        assert err.value.uncoverable == (Pair(0, 2),)


def test_manual_feasibility_sets_compute_reverse_direction():
    fs = FeasibilitySets(num_pairs=3, pairs_of={5: (0, 2), 7: (1,)})
    assert fs.candidates_of == [(5,), (7,), (5,)]
    assert fs.contains(5, 2) and not fs.contains(7, 2)
    assert fs.edge_count() == 3


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
