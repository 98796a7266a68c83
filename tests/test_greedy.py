import math

import pytest

from builders import (
    coverable_instance,
    feasible_instance,
    relation,
    rng_for,
    set_cover_instance,
    star_instance,
)
from oracles import assigned_pairs

import mbplace
from mbplace import greedy
from mbplace.exceptions import PlacementError, Stalled
from mbplace.greedy import (
    greedy_place,
    greedy_step,
    incremental_extend,
    greedy_approximation_bound,
)
from mbplace.instance import Pair, PlacementInstance, build_feasibility
from mbplace.matching import Assignment, phi
from mbplace.netgraph import Network, compute_apsp
from mbplace.oracle import exact_min_middleboxes


def test_star_needs_single_hub_middlebox():
    inst = star_instance(5, 3, capacity=5, stretch=3.0)
    fs = build_feasibility(inst)
    trace = greedy_place(inst, fs)
    assert trace.middleboxes == [0]
    assert trace.complete


def test_empty_pairs_zero_iterations():
    net = Network.from_edges(2, [(0, 1, 1.0)])
    inst = PlacementInstance(net=net, dist=compute_apsp(net), pairs=[],
                             candidates=(0, 1), capacity=1, stretch=1.5)
    trace = greedy_place(inst, build_feasibility(inst))
    assert trace.steps == [] and trace.complete


def test_stalled_when_capacity_exhausted():
    fs = relation(3, {0: (0, 1, 2)})
    net = Network.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    inst = PlacementInstance(net=net, dist=compute_apsp(net),
                             pairs=[Pair(0, 1), Pair(1, 2), Pair(2, 3)],
                             candidates=(0,), capacity=2, stretch=5.0)
    with pytest.raises(Stalled):
        greedy_place(inst, fs)


class TestSolveUnweighted:
    def test_validated_run_is_the_greedy_run(self):
        inst, fs = feasible_instance(rng_for(5), num_nodes=10, num_pairs=12, capacity=3)
        trace = mbplace.solve_unweighted(inst, fs)
        assert trace.middleboxes == greedy_place(inst, fs).middleboxes and trace.complete

    def test_overcounted_load_fails_validation(self, monkeypatch):
        inst = star_instance(4, 3, capacity=4, stretch=3.0)
        real = greedy.greedy_place

        def overcount(inst, fs, budget=None):
            trace = real(inst, fs, budget)
            trace.engine.load[trace.middleboxes[-1]] += 1
            return trace

        monkeypatch.setattr(greedy, "greedy_place", overcount)
        with pytest.raises(PlacementError, match="mismatch at 0"):
            mbplace.solve_unweighted(inst, build_feasibility(inst))


class TestGreedyStep:
    def test_single_candidate_gain_is_capacity_cap(self):
        fs = relation(5, {7: (0, 1, 2, 3, 4)})
        engine = Assignment(fs, 3)
        chosen, gain = greedy_step(engine)
        assert (chosen, gain) == (7, 3)

    def test_argmax_over_two_candidates(self):
        fs = relation(5, {1: (0, 1, 2), 2: (3, 4)})
        engine = Assignment(fs, 5)
        chosen, gain = greedy_step(engine)
        assert (chosen, gain) == (1, 3)

    def test_tie_breaks_to_smallest_node_id(self):
        fs = relation(4, {4: (0, 1), 2: (2, 3), 9: (2, 3)})
        engine = Assignment(fs, 5)
        chosen, gain = greedy_step(engine)
        assert (chosen, gain) == (2, 2)

    @pytest.mark.parametrize("seed", range(15))
    def test_chosen_gain_matches_stateless_phi_argmax(self, seed):
        rng = rng_for(7000 + seed)
        inst, fs = coverable_instance(rng, num_nodes=8, num_pairs=6,
                                      capacity=int(rng.integers(1, 4)))
        engine = Assignment(fs, inst.capacity)
        chosen, gain = greedy_step(engine)
        base = 0
        gains = {m: phi([m], fs, inst.capacity) - base for m in fs.candidates}
        best = max(gains.values())
        assert gain == best
        assert chosen == min(m for m, g in gains.items() if g == best)


class TestTraceInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_phi_strictly_increasing_and_gains_non_increasing(self, seed):
        rng = rng_for(8000 + seed)
        inst, fs = feasible_instance(rng, num_nodes=10, num_pairs=8,
                                      capacity=int(rng.integers(1, 4)))
        trace = greedy_place(inst, fs)
        phis = [s.phi_after for s in trace.steps]
        gains = [s.gain for s in trace.steps]
        assert phis == sorted(set(phis))
        assert gains == sorted(gains, reverse=True)

    @pytest.mark.parametrize("seed", range(20))
    def test_no_relocation_and_no_preemption(self, seed):
        rng = rng_for(9000 + seed)
        inst, fs = feasible_instance(rng, num_nodes=10, num_pairs=8, capacity=2)
        trace = greedy_place(inst, fs, 0)
        prev_boxes: set = set()
        prev_pairs: frozenset = frozenset()
        while not trace.complete:
            trace = incremental_extend(trace, 1)
            boxes = set(trace.engine.load)
            pairs = assigned_pairs(trace.engine)
            assert prev_boxes < boxes
            assert prev_pairs <= pairs
            prev_boxes, prev_pairs = boxes, pairs


class TestDeterminismAndThreads:
    def test_identical_instance_identical_trace(self):
        traces = []
        for _ in range(2):
            rng = rng_for(4242)
            inst, fs = feasible_instance(rng, num_nodes=10, num_pairs=9, capacity=2)
            traces.append(greedy_place(inst, fs))
        assert traces[0].steps == traces[1].steps


class TestIncrementalExtend:
    def test_full_budget_equals_one_shot(self):
        rng = rng_for(2024)
        inst, fs = feasible_instance(rng, num_nodes=10, num_pairs=9, capacity=2)
        full = greedy_place(inst, fs)
        step_by_step = greedy_place(inst, fs, 0)
        step_by_step = incremental_extend(step_by_step, len(full.steps) + 5)
        assert step_by_step.steps == full.steps
        assert step_by_step.engine.mu == full.engine.mu

    def test_prefix_property(self):
        rng = rng_for(2025)
        inst, fs = feasible_instance(rng, num_nodes=10, num_pairs=10, capacity=2)
        full = greedy_place(inst, fs)
        prefix = greedy_place(inst, fs, 0)
        for k in range(1, len(full.steps) + 1):
            prefix = incremental_extend(prefix, 1)
            assert prefix.steps == full.steps[:k]

    def test_budgeted_place_is_the_prefix_and_its_engine(self):
        rng = rng_for(2027)
        inst, fs = feasible_instance(rng, num_nodes=10, num_pairs=10, capacity=2)
        full = greedy_place(inst, fs)
        for k in range(len(full.steps) + 2):
            budgeted = greedy_place(inst, fs, k)
            stepped = incremental_extend(greedy_place(inst, fs, 0), k)
            assert budgeted.steps == stepped.steps == full.steps[:k]
            assert budgeted.engine.mu == stepped.engine.mu
        with pytest.raises(ValueError):
            greedy_place(inst, fs, -1)

    def test_budget_one_picks_globally_best_location(self):
        inst = star_instance(4, 3, capacity=4, stretch=3.0)
        fs = build_feasibility(inst)
        trace = incremental_extend(greedy_place(inst, fs, 0), 1)
        assert trace.middleboxes == [0]
        assert trace.steps[0].gain == 4

    def test_zero_budget_adds_nothing(self):
        inst = star_instance(4, 3, capacity=4, stretch=3.0)
        trace = incremental_extend(greedy_place(inst, build_feasibility(inst), 0), 0)
        assert trace.steps == [] and trace.engine.num_assigned == 0
        with pytest.raises(ValueError):
            incremental_extend(trace, -1)

    def test_earlier_trace_not_mutated(self):
        rng = rng_for(2026)
        inst, fs = feasible_instance(rng, num_nodes=9, num_pairs=8, capacity=2)
        t1 = incremental_extend(greedy_place(inst, fs, 0), 1)
        snapshot = (list(t1.steps), list(t1.engine.mu))
        incremental_extend(t1, 3)
        assert (list(t1.steps), list(t1.engine.mu)) == snapshot


class TestApproximationGuarantee:
    @pytest.mark.parametrize("seed", range(15))
    def test_greedy_approximation_bound_on_random_batch(self, seed):
        rng = rng_for(10_000 + seed)
        inst, fs = feasible_instance(
            rng, num_nodes=int(rng.integers(8, 13)), num_pairs=int(rng.integers(4, 12)),
            capacity=int(rng.integers(2, 5)), stretch=float(rng.choice([1.5, 2.0])),
        )
        trace = greedy_place(inst, fs)
        opt = exact_min_middleboxes(inst, fs).value
        bound = greedy_approximation_bound(inst.capacity, inst.num_pairs)
        assert len(trace.steps) <= bound * opt
        assert opt <= len(trace.steps)

    def test_set_cover_gadget_respects_log_bound(self):
        # Classic greedy-vs-optimal gap instance: optimum 2, greedy may open
        # more, but never beyond the logarithmic bound.
        subsets = [
            {0, 1, 2, 3}, {4, 5, 6, 7},
            {0, 1}, {2, 3, 4, 5}, {6, 7},
        ]
        inst = set_cover_instance(8, subsets)
        fs = build_feasibility(inst)
        trace = greedy_place(inst, fs)
        opt = exact_min_middleboxes(inst, fs).value
        assert opt == 2
        assert len(trace.steps) <= (1 + math.log(min(inst.capacity, 8))) * opt


def test_greedy_approximation_bound_edge_cases():
    assert greedy_approximation_bound(1, 10) == 1.0
    assert greedy_approximation_bound(3, 0) == 1.0
    assert greedy_approximation_bound(4, 10) == pytest.approx(1 + math.log(4))
