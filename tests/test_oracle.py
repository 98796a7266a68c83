from types import SimpleNamespace

import pytest

from builders import (
    candidates_of,
    coverable_instance,
    feasible_instance,
    manual_problem,
    random_weighted_problem,
    relation,
    rng_for,
    set_cover_instance,
    star_instance,
)
from oracles import weighted_integral_feasible

from mbplace.exceptions import Infeasible, TooLarge
from mbplace.instance import (
    Pair,
    PlacementInstance,
    build_feasibility,
)
from mbplace.matching import phi
from mbplace.netgraph import Network, compute_apsp
from mbplace.oracle import (
    ExactResult,
    exact_min_middleboxes,
    exact_weighted_min_middleboxes,
    max_assignment_for_n,
)


class TestExactMinMiddleboxes:
    def test_star_optimum_is_one(self):
        inst = star_instance(4, 3, capacity=4, stretch=3.0)
        fs = build_feasibility(inst)
        result = exact_min_middleboxes(inst, fs)
        assert result.value == 1
        assert result.witness_set == (0,)

    def test_empty_pairs_zero(self):
        net = Network.from_edges(2, [(0, 1, 1.0)])
        inst = PlacementInstance(net=net, dist=compute_apsp(net), pairs=[],
                                 candidates=(0, 1), capacity=1, stretch=1.5)
        assert exact_min_middleboxes(inst, build_feasibility(inst)).value == 0

    def test_too_large_guard(self):
        rng = rng_for(1)
        inst, fs = coverable_instance(rng, num_nodes=10, num_pairs=4)
        with pytest.raises(TooLarge):
            exact_min_middleboxes(inst, fs, limit=5)

    def test_infeasible_when_capacity_short(self):
        net = Network.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        inst = PlacementInstance(net=net, dist=compute_apsp(net),
                                 pairs=[Pair(0, 1), Pair(0, 2), Pair(1, 2)],
                                 candidates=(0,), capacity=1, stretch=3.0)
        with pytest.raises(Infeasible):
            exact_min_middleboxes(inst, build_feasibility(inst))

    def test_set_cover_gadget_exact(self):
        inst = set_cover_instance(6, [{0, 1, 2}, {3, 4, 5}, {0, 3}, {1, 4}, {2, 5}])
        fs = build_feasibility(inst)
        assert exact_min_middleboxes(inst, fs).value == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_revalidates_and_bounds_greedy(self, seed):
        from mbplace.greedy import greedy_place, greedy_approximation_bound

        rng = rng_for(300 + seed)
        inst, fs = feasible_instance(rng, num_nodes=9, num_pairs=7,
                                     capacity=int(rng.integers(2, 4)))
        result = exact_min_middleboxes(inst, fs)
        # witness achieves the optimum and satisfies every instance invariant
        assert len(result.witness_set) == result.value
        assert len(result.witness_assignment) == inst.num_pairs
        loads: dict[int, int] = {}
        for p_idx, m in result.witness_assignment.items():
            assert m in result.witness_set
            assert fs.masks[m] >> p_idx & 1
            loads[m] = loads.get(m, 0) + 1
        assert all(v <= inst.capacity for v in loads.values())
        assert phi(result.witness_set, fs, inst.capacity) == inst.num_pairs
        greedy_count = len(greedy_place(inst, fs).steps)
        assert result.value <= greedy_count
        assert greedy_count <= greedy_approximation_bound(inst.capacity, inst.num_pairs) * result.value


class TestMaxAssignmentForN:
    def test_zero_middleboxes(self):
        rng = rng_for(2)
        inst, fs = coverable_instance(rng, num_nodes=7, num_pairs=5)
        assert max_assignment_for_n(inst, fs, 0).value == 0

    def test_full_coverage_at_optimum_count(self):
        rng = rng_for(3)
        inst, fs = feasible_instance(rng, num_nodes=8, num_pairs=6, capacity=2)
        opt = exact_min_middleboxes(inst, fs).value
        for n in range(opt, len(fs.candidates) + 1):
            assert max_assignment_for_n(inst, fs, n).value == inst.num_pairs

    def test_anti_monotone_consistency(self):
        rng = rng_for(4)
        for _ in range(5):
            inst, fs = coverable_instance(rng, num_nodes=8, num_pairs=6,
                                          capacity=int(rng.integers(1, 3)))
            values = [max_assignment_for_n(inst, fs, n).value
                      for n in range(len(fs.candidates) + 1)]
            assert values == sorted(values)

    def test_matches_brute_force_phi_over_subsets(self):
        from itertools import combinations

        rng = rng_for(5)
        inst, fs = coverable_instance(rng, num_nodes=7, num_pairs=5, capacity=2)
        for n in range(0, 4):
            want = max(
                (phi(sub, fs, inst.capacity) for sub in combinations(fs.candidates, n)),
                default=0,
            )
            assert max_assignment_for_n(inst, fs, n).value == want

    def test_coverage_bound_prunes_frames_and_last_boxes(self):
        # S_0 = {0}, S_1 = {2}, S_2 = {1}, S_3 = {0}: two boxes serve at most
        # 2 of the 3 pairs, below the cap of 3. The subsets grown are {0},
        # {0, 1} (2 pairs, the best) and {1}. Then box 2 is not grown after
        # box 1 ({2} with S_2 holds 2 pairs), nor after box 0 (the frame's
        # pairs {0} with S_2 | S_3 are 2), and no subset starts at box 2
        # (S_2 | S_3 holds 2 pairs): a bound equal to the best cannot beat it.
        fs = relation(3, {0: (0,), 1: (2,), 2: (1,), 3: (0,)})
        result = max_assignment_for_n(SimpleNamespace(num_pairs=3, capacity=3), fs, 2)
        assert result == ExactResult(2, (0, 1), {0: 0, 2: 1}, 3)


class TestExactWeightedMinMiddleboxes:
    def test_single_request_single_box(self):
        assert exact_weighted_min_middleboxes(manual_problem([(3,)], [2.0], 2.0)).value == 1

    def test_capacity_pigeonhole_needs_second_box(self):
        with pytest.raises(Infeasible):
            exact_weighted_min_middleboxes(manual_problem([(3,), (3,)], [2.0, 2.0], 2.0))
        prep = manual_problem([(3, 4), (3, 4)], [2.0, 2.0], 2.0)
        assert exact_weighted_min_middleboxes(prep).value == 2

    def test_too_large_guards(self):
        with pytest.raises(TooLarge, match="^20 candidates exceed enumeration limit 12$"):
            exact_weighted_min_middleboxes(manual_problem([tuple(range(20))], [1.0], 5.0))
        many = manual_problem([(1,)] * 15, [1.0] * 15, 50.0)
        with pytest.raises(TooLarge, match="^15 requests exceed the weighted oracle's fixed "
                                           "limit of 14$"):
            exact_weighted_min_middleboxes(many)
        with pytest.raises(TooLarge, match="fixed limit of 14; raise it$"):
            exact_weighted_min_middleboxes(many, over="the setting {}; raise it")

    def test_candidates_of_rejected_requests_are_not_enumerated(self):
        # Request 1 (demand 5 > kappa 2) is rejected: its 19 candidates stay
        # out of the enumeration, so the limit of 12 is not met.
        prep = manual_problem([(0,), tuple(range(1, 20))], [1.0, 5.0], 2.0)
        assert exact_weighted_min_middleboxes(prep) == ExactResult(1, (0,), {0: 0}, 1)

    def test_sizes_below_total_demand_over_kappa_are_skipped(self):
        # Demand 7.5 at kappa 3 needs 3 boxes, so the 5 + 10 subsets of sizes
        # 1 and 2 are not enumerated: (0, 2, 3), the first 3-subset that
        # fits, is the 4th subset explored.
        prep = manual_problem([(0, 1, 4), (1, 2), (0, 2, 3), (3, 4), (2, 3, 4)],
                              [2.0, 2.0, 1.5, 1.0, 1.0], 3.0)
        result = exact_weighted_min_middleboxes(prep)
        assert result == ExactResult(3, (0, 2, 3), {0: 0, 1: 2, 2: 3, 3: 3, 4: 2}, 4)

    @pytest.mark.parametrize("seed", range(8))
    def test_value_is_minimal_and_witness_feasible(self, seed):
        from itertools import combinations

        rng = rng_for(500 + seed)
        requests, rfs, prep, kappa, _ = random_weighted_problem(
            rng, num_nodes=6, num_requests=4, kappa=4.0)
        demands = [r.demand for r in requests]
        cands = candidates_of(rfs)
        if prep is None:  # preprocess raised Infeasible on a request no candidate serves
            assert any(not c for c in cands)
            return
        result = exact_weighted_min_middleboxes(prep)
        assert weighted_integral_feasible(result.witness_set, demands, cands, kappa)
        for size in range(1, result.value):
            for sub in combinations(rfs.candidates, size):
                assert not weighted_integral_feasible(sub, demands, cands, kappa)


def test_explored_counter_populated():
    rng = rng_for(6)
    inst, fs = feasible_instance(rng, num_nodes=7, num_pairs=5, capacity=2)
    result = exact_min_middleboxes(inst, fs)
    assert result.explored >= 1
