"""Differential tests: the lazy greedy of both variants, the bitset engine
and its gain counter against the eager greedy and the list-based, BFS-only
reference engine in ``reference.py``.

Relations are drawn two ways: as arbitrary pair/candidate relations (pairs
no candidate serves and capacity shortfalls make greedy stall) and as
feasibility sets of seeded random networks. Every greedy step must choose
the same middlebox with the same gain and leave the same assignment and
loads, and a stall must come at the same step. After every greedy step the
counter must give every undeployed candidate the gain the reference would
deploy it with. The weighted greedy must
open the same locations with the same fractional objective and ``x``, and
fail with Infeasible on the same problems. The fractional LP must give the
same ``x`` and objective on the residual-list flow network as on the
arc-object reference network, the same ``x`` as with the unshifted source
costs ``-1/demand``, and its objective (the sum of ``x``) must be the
reference flow's profit. The slot graph read off cumulative loads must
equal the one built share piece by piece. The all-source shortest-path
relaxation must give a distance matrix bit-identical to one Dijkstra run per
source.

The per-step oracle series, which certifies a step from the greedy trace's
submodular bounds and prunes its searches by coverage, must give the values
of one plain branch and bound per step; its searches must find the same
witness in no more subsets, and the bounds it certifies from must hold on
the plain values. The weighted oracle's recursive assignment search must
find the same witness, in the same order, as the explicit-stack one, and
the weighted oracle through either the same value, witness and count of
subsets explored.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import cycle
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from builders import coverable_instance, coverable_weighted_problem, relation, rng_for

from mbplace import oracle, weighted
from mbplace.exceptions import Infeasible, Stalled
from mbplace.greedy import GreedyTrace, greedy_place, greedy_step, incremental_extend
from mbplace.matching import Assignment, count_gain, phi
from mbplace.netgraph import METRICS, Network, Node, compute_apsp
from mbplace.oracle import exact_min_middleboxes, max_assignment_for_n, max_served_series
from mbplace.weighted import (FractionalAssignment, Request, _build_slots, generalized_greedy,
                              preprocess, solve_fractional)


class Sizes(NamedTuple):
    """The two instance fields greedy and the oracles read."""

    num_pairs: int
    capacity: int


@st.composite
def relations(draw, max_pairs=30, max_candidates=12):
    """(FeasibilitySets, capacity) over an arbitrary relation; the pairs from
    index ``covered`` on have no candidate, so greedy stalls on them."""
    num_pairs = draw(st.integers(0, max_pairs))
    covered = draw(st.integers(0, num_pairs))
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=max_candidates, unique=True))
    pair_ids = st.integers(0, covered - 1) if covered else st.nothing()
    pairs_of = {u: tuple(draw(st.sets(pair_ids, max_size=covered))) for u in ids}
    return relation(num_pairs, pairs_of), draw(st.integers(1, 6))


@st.composite
def network_relations(draw, max_nodes=16):
    """(FeasibilitySets, capacity) of a seeded random network instance."""
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    num_nodes = draw(st.integers(4, max_nodes))
    inst, fs = coverable_instance(
        rng, num_nodes=num_nodes, num_pairs=draw(st.integers(1, 3 * num_nodes)),
        num_candidates=draw(st.integers(2, num_nodes)), capacity=draw(st.integers(1, 6)),
        stretch=draw(st.sampled_from([1.1, 1.3, 1.5, 2.0])),
    )
    return fs, inst.capacity


any_relation = st.one_of(relations(), network_relations())


@st.composite
def tied_relations(draw, max_pairs=14, max_candidates=8):
    """(FeasibilitySets, capacity) whose candidates share a few S_u, so
    greedy gains and subset values tie often."""
    num_pairs = draw(st.integers(1, max_pairs))
    shared = draw(st.lists(st.sets(st.integers(0, num_pairs - 1), min_size=1),
                           min_size=1, max_size=3))
    ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=max_candidates, unique=True))
    return (relation(num_pairs, {u: tuple(draw(st.sampled_from(shared))) for u in ids}),
            draw(st.integers(1, 4)))


#: Oracle-sized relations: arbitrary, tied and network-made.
oracle_relations = st.one_of(relations(max_pairs=14, max_candidates=8), tied_relations(),
                             network_relations(max_nodes=8))


@st.composite
def weighted_relations(draw):
    """Preprocessed weighted problem over an arbitrary relation.

    Demands and kappa take a few round values, so equal gains are common. A
    request no candidate serves gets a demand above kappa, so preprocessing
    rejects it instead of failing; small kappa leaves problems that no
    candidate set covers (f never exceeds n - 1).
    """
    ids = draw(st.lists(st.integers(0, 20), min_size=1, max_size=5, unique=True))
    served_by = draw(st.lists(st.sets(st.sampled_from(ids), max_size=3),
                              min_size=1, max_size=10))
    fs = relation(len(served_by), {
        u: tuple(j for j, us in enumerate(served_by) if u in us) for u in ids})
    kappa = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    demands = [draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])) if us else 4.0 for us in served_by]
    return preprocess([Request.pair(0, 1, d) for d in demands], fs, kappa)


@st.composite
def weighted_networks(draw):
    """Preprocessed weighted problem (pairs and groups) of a seeded random
    network, covered or not depending on kappa."""
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    return coverable_weighted_problem(
        rng, num_nodes=draw(st.integers(4, 9)), num_requests=draw(st.integers(1, 9)),
        kappa=draw(st.sampled_from([1.5, 2.5, 4.0])), stretch=draw(st.sampled_from([1.2, 2.0])),
    )[2]


#: Edge weight draws; every kind but "random" repeats values, so ties are common.
WEIGHTS = {
    "integer": lambda rng, m: rng.integers(0, 10, m).astype(float),
    "dyadic": lambda rng, m: rng.integers(0, 33, m) / 16.0,
    "tenths": lambda rng, m: rng.integers(0, 30, m) / 10.0,  # sums round differently by order
    "random": lambda rng, m: rng.uniform(0.0, 10.0, m),
    "zero": lambda rng, m: rng.choice([0.0, -0.0], m),
}


def located(num_nodes: int, rng, edges) -> Network:
    """A network with random coordinates on every node, so ``geo`` applies."""
    lat, lon = rng.uniform(-90, 90, num_nodes), rng.uniform(-180, 180, num_nodes)
    return Network([Node(i, None, float(lat[i]), float(lon[i])) for i in range(num_nodes)],
                   edges)


@st.composite
def apsp_networks(draw):
    """A seeded random network of 1-40 nodes. Edges join uniform endpoints,
    so self-loops, parallel edges, isolated nodes and several components
    occur."""
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 3 * n))
    ends = rng.integers(0, n, (m, 2))
    w = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))](rng, m)
    return located(n, rng, [(int(u), int(v), float(x)) for (u, v), x in zip(ends, w)])


def state(engine: Assignment):
    return list(engine.mu), dict(engine.load), engine.num_assigned


class TestAddMiddlebox:
    @settings(max_examples=150, deadline=None)
    @given(any_relation, st.randoms(use_true_random=False))
    def test_same_gain_and_assignment_after_every_add(self, relation, rnd):
        fs, capacity = relation
        order = list(fs.candidates)
        rnd.shuffle(order)
        fast, ref = Assignment(fs, capacity), reference.Assignment(fs, capacity)
        for m in order:
            assert fast.add_middlebox(m) == ref.add_middlebox(m)
            assert state(fast) == state(ref)

    @settings(max_examples=100, deadline=None)
    @given(any_relation, st.randoms(use_true_random=False))
    def test_phi(self, relation, rnd):
        fs, capacity = relation
        members = [m for m in fs.candidates if rnd.random() < 0.5]
        assert phi(members, fs, capacity) == reference.phi(members, fs, capacity)


class TestCountGain:
    @settings(max_examples=200, deadline=None)
    @given(any_relation)
    def test_every_candidate_after_every_step(self, relation):
        """Greedy from scratch; before each step and after the last one,
        count every undeployed candidate (gains of 0 included) on an
        untouched engine and compare with the reference deployment on a
        reference engine holding the same assignment."""
        fs, capacity = relation
        engine = Assignment(fs, capacity)
        while True:
            before = state(engine), dict(engine.owned), engine.free
            for m in fs.candidates:
                if m not in engine.load:
                    want = reference.Assignment.of(engine).add_middlebox(m)
                    assert count_gain(engine, m) == want, m
            assert (state(engine), engine.owned, engine.free) == before
            if engine.num_assigned == fs.num_pairs:
                break
            try:
                greedy_step(engine)
            except Stalled:
                break

    def test_cases(self):
        """Hand-made cases: handovers, capacity 1, free pairs alone up to
        capacity, gains of 0 and a stall (pair 6 has no candidate)."""
        fs = relation(7, {
            10: (1, 2), 11: (0, 3, 4), 12: (0,), 13: (0, 1, 2, 5), 14: ()})
        for capacity, deployed, want in [
            (2, (10, 11), {12: 1, 13: 2, 14: 0}),  # 11 hands 0 over, takes 4
            (1, (13,), {10: 1, 11: 1, 12: 1, 14: 0}),  # 13 hands 0 to 12, takes 1
            (3, (), {10: 2, 11: 3, 12: 1, 13: 3, 14: 0}),  # free pairs only
            (2, (10, 11, 13), {12: 0, 14: 0}),  # only pair 6 is left
        ]:
            engine = Assignment(fs, capacity)
            for m in deployed:
                engine.add_middlebox(m)
            assert {m: count_gain(engine, m) for m in want} == want
            assert {m: reference.Assignment.of(engine).add_middlebox(m) for m in want} == want

    @staticmethod
    def _count(engine, m):
        """(gain, levels of each search) of ``count_gain(engine, m)``, with
        None for a failed search. The engine must be left as it was, and
        the gain must be the reference deployment's."""
        before = state(engine), dict(engine.owned), engine.free
        depths = []
        find = engine.find_augmenting_path

        def search(*args):
            levels = find(*args)
            depths.append(None if levels is None else len(levels))
            return levels

        engine.find_augmenting_path = search
        try:
            gained = count_gain(engine, m)
        finally:
            del engine.find_augmenting_path
        assert (state(engine), engine.owned, engine.free) == before
        assert gained == reference.Assignment.of(engine).add_middlebox(m)
        return gained, depths

    def test_one_box_hands_over_several_pairs(self):
        # Box 10 holds pairs 0-2 of S_11 and can take the free pairs 3-5
        # instead: one search, three handovers.
        fs = relation(6, {10: (0, 1, 2, 3, 4, 5), 11: (0, 1, 2)})
        engine = Assignment(fs, 3)
        engine.add_middlebox(10)
        assert engine.mu == [10, 10, 10, None, None, None]
        assert self._count(engine, 11) == (3, [2])

    def test_capacity_cuts_a_batch_short(self):
        # 11 takes the free pair 3 first; then box 10 could hand over three
        # pairs, but 11 has room for two.
        fs = relation(8, {10: (0, 1, 2, 5, 6, 7), 11: (0, 1, 2, 3)})
        engine = Assignment(fs, 3)
        engine.add_middlebox(10)
        assert engine.mu == [10, 10, 10, None, None, None, None, None]
        assert self._count(engine, 11) == (3, [2])
        fs = relation(7, {10: (0, 1, 5), 12: (2, 3, 6), 11: (0, 1, 2, 3)})
        engine = Assignment(fs, 2)
        engine.add_middlebox(10)
        engine.add_middlebox(12)
        # Both boxes of the level can hand a pair over; the second fills 11.
        assert self._count(engine, 11) == (2, [2])

    def test_level_mixing_handovers_and_deeper_paths(self):
        # From 13 the first level is boxes 10 and 11. Box 10 hands pair 0
        # over and takes the free pair 8; box 11 reaches no free pair, so
        # its pair 1 comes only through box 12 (11 takes 9, 12 takes 10).
        fs = relation(11, {10: (0, 5, 8), 11: (1, 6, 9), 12: (2, 9, 10), 13: (0, 1)})
        engine = Assignment(fs, 2)
        for m in (10, 11, 12):
            engine.add_middlebox(m)
        assert engine.mu == [10, 11, 12, None, None, 10, 11, None, None, 12, None]
        assert self._count(engine, 13) == (2, [2, 3])
        engine.add_middlebox(13)
        assert engine.mu == [13, 13, 12, None, None, 10, 11, None, 10, 11, 12]


class TestGreedy:
    @pytest.mark.parametrize("seed, num_nodes, num_pairs, capacity", [
        (1, 60, 180, 8), (2, 80, 240, 10), (4, 100, 200, 8)])
    def test_greedy_place_at_scale(self, seed, num_nodes, num_pairs, capacity):
        """Larger seeded networks than the hypothesis draws, where counting
        meets both batched handovers and deeper paths: the same middlebox
        sequence and the same final assignment as the eager reference."""
        inst, fs = coverable_instance(rng_for(seed), num_nodes=num_nodes, num_pairs=num_pairs,
                                      capacity=capacity, stretch=1.5)
        states, stalled = reference.greedy_run(fs, capacity)
        assert not stalled
        trace = greedy_place(inst, fs)
        assert [(s.chosen, s.gain) for s in trace.steps] == [r[:2] for r in states]
        assert (trace.engine.mu, trace.engine.load) == states[-1][2:]

    @settings(max_examples=150, deadline=None)
    @given(any_relation)
    def test_greedy_place(self, relation):
        fs, capacity = relation
        states, stalled = reference.greedy_run(fs, capacity)
        sizes = Sizes(fs.num_pairs, capacity)
        if stalled:
            with pytest.raises(Stalled):
                greedy_place(sizes, fs)
            return
        trace = greedy_place(sizes, fs)
        assert [(s.chosen, s.gain) for s in trace.steps] == [r[:2] for r in states]
        assert [s.phi_after for s in trace.steps] == [sum(r[3].values()) for r in states]
        final = states[-1][2:] if states else ([None] * fs.num_pairs, {})
        assert (trace.engine.mu, trace.engine.load) == final

    @settings(max_examples=150, deadline=None)
    @given(any_relation, st.lists(st.integers(1, 3), min_size=1, max_size=5))
    def test_incremental_extend_step_by_step(self, relation, budgets):
        fs, capacity = relation
        states, stalled = reference.greedy_run(fs, capacity)
        trace = greedy_place(Sizes(fs.num_pairs, capacity), fs, 0)
        for budget in cycle(budgets):
            done = len(trace.steps)
            if done == len(states):
                break
            snapshot = (list(trace.steps), state(trace.engine), list(trace.heap))
            extended = incremental_extend(trace, min(budget, len(states) - done))
            assert (trace.steps, state(trace.engine), trace.heap) == snapshot
            trace = extended
            k = len(trace.steps)
            assert [(s.chosen, s.gain) for s in trace.steps] == [r[:2] for r in states[:k]]
            assert (trace.engine.mu, trace.engine.load) == states[k - 1][2:]
        assert trace.complete is not stalled
        if stalled:
            snapshot = (list(trace.steps), state(trace.engine), list(trace.heap))
            with pytest.raises(Stalled):
                incremental_extend(trace, 1)
            assert (trace.steps, state(trace.engine), trace.heap) == snapshot


class TestOracles:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(relations(max_pairs=14, max_candidates=8),
                     network_relations(max_nodes=8)),
           st.integers(0, 8))
    def test_same_value_witness_and_explored(self, relation, n):
        fs, capacity = relation
        sizes = Sizes(fs.num_pairs, capacity)

        def run_both():
            try:
                exact = exact_min_middleboxes(sizes, fs)
                exact = (exact.value, exact.witness_set, exact.witness_assignment,
                         exact.explored)
            except Infeasible:
                exact = Infeasible
            best = max_assignment_for_n(sizes, fs, n)
            return exact, (best.value, best.witness_set, best.witness_assignment,
                           best.explored)

        fast = run_both()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "Assignment", reference.Assignment)
            mp.setattr(oracle, "phi", reference.phi)  # the full-set check
            ref = run_both()
        assert fast == ref


#: Demands and capacities of a few round values, so ties are common and small
#: capacities leave many subsets that cannot cover.
ORACLE_DEMANDS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]


@st.composite
def weighted_oracle_problems(draw):
    """(requests, candidates_of, kappa) over ids 0..7: pairs and groups,
    candidate lists in any order, some of them empty."""
    demands = draw(st.lists(st.sampled_from(ORACLE_DEMANDS), max_size=9))
    requests = [draw(st.sampled_from([Request.pair(0, 1, float(d)),
                                      Request.group((0, 1, 2), float(d))])) for d in demands]
    candidates_of = [tuple(draw(st.lists(st.integers(0, 7), max_size=4, unique=True)))
                     for _ in demands]
    return requests, candidates_of, draw(st.sampled_from([1, 1.5, 2, 3, 4.5]))


@st.composite
def weighted_oracle_networks(draw):
    """(requests, candidates_of, kappa) of a seeded random network, pairs and groups."""
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    requests, rfs, _, kappa, _ = coverable_weighted_problem(
        rng, num_nodes=draw(st.integers(4, 8)), num_requests=draw(st.integers(1, 9)),
        group_prob=0.4, kappa=draw(st.sampled_from([2.0, 3.0, 4.5])))
    return requests, rfs.candidates_of, kappa


class TestWeightedOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 5), max_size=4, unique=True), max_size=8),
           st.lists(st.sampled_from(ORACLE_DEMANDS), min_size=8, max_size=8),
           st.sampled_from([Fraction(1), Fraction(2), Fraction(3)]))
    def test_cover_search_finds_the_stack_searchs_witness(self, allowed, demands, kappa):
        members = list(range(len(allowed)))
        got = oracle._weighted_cover_exists(members, demands, allowed, kappa)
        want = reference.weighted_cover_exists(members, demands, allowed, kappa)
        assert got == want
        assert got is None or list(got) == list(want)  # placed in the same order

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(weighted_oracle_problems(), weighted_oracle_networks()))
    def test_same_value_witness_and_explored(self, problem):
        requests, candidates_of, kappa = problem

        def run():
            try:
                r = oracle.exact_weighted_min_middleboxes(requests, candidates_of, kappa)
            except Infeasible:
                return Infeasible
            return r.value, r.witness_set, list(r.witness_assignment.items()), r.explored

        fast = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_weighted_cover_exists", reference.weighted_cover_exists)
            assert run() == fast


def greedy_trace(sizes: Sizes, fs, budget: int | None) -> GreedyTrace:
    """Up to ``budget`` greedy steps (all when None), cut short by a stall."""
    trace = greedy_place(sizes, fs, 0)
    while not trace.complete and (budget is None or len(trace.steps) < budget):
        try:
            trace = incremental_extend(trace, 1)
        except Stalled:
            break
    return trace


class TestOracleSeries:
    @settings(max_examples=150, deadline=None)
    @given(oracle_relations, st.booleans(), st.one_of(st.none(), st.integers(0, 4)))
    def test_same_values_witnesses_and_no_more_subsets(self, relation, unit, budget):
        fs, capacity = relation
        sizes = Sizes(fs.num_pairs, 1 if unit else capacity)
        trace = greedy_trace(sizes, fs, budget)
        series = max_served_series(sizes, fs, trace.steps)
        assert series == reference.max_served_series(sizes, fs, trace.steps)
        for n, (value, step) in enumerate(zip(series, trace.steps), 1):
            want = reference.max_assignment_for_n(sizes, fs, n)
            plain = max_assignment_for_n(sizes, fs, n)
            assert (plain.value, plain.witness_set, plain.witness_assignment) == want[:3]
            assert plain.explored <= want[3]
            bounded = max_assignment_for_n(sizes, fs, n, floor=step.phi_after - 1, cap=value)
            assert (bounded.value, bounded.witness_set, bounded.witness_assignment) == want[:3]

    @settings(max_examples=150, deadline=None)
    @given(oracle_relations, st.booleans(), st.one_of(st.none(), st.integers(0, 4)))
    def test_submodular_bounds_hold(self, relation, unit, budget):
        """phi_opt(n) <= phi_t + n * g_(t+1) for every n and every step t,
        and phi_opt(n) <= phi_opt(n - 1) + kappa, on the plain values."""
        fs, capacity = relation
        sizes = Sizes(fs.num_pairs, 1 if unit else capacity)
        trace = greedy_trace(sizes, fs, budget)
        opt = [0, *reference.max_served_series(sizes, fs, trace.steps)]
        for n in range(1, len(opt)):
            assert opt[n] <= opt[n - 1] + sizes.capacity
            for step in trace.steps:
                assert opt[n] <= step.phi_after - step.gain + n * step.gain


class TestGeneralizedGreedy:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(weighted_relations(), weighted_networks()))
    def test_same_choices_objective_and_x(self, prep):
        def run(greedy):
            try:
                chosen, frac = greedy(prep)
            except Infeasible:
                return Infeasible
            return chosen, frac.objective, frac.x

        assert run(generalized_greedy) == run(reference.generalized_greedy)


class TestSolveFractional:
    # Ids 21-24 are in no relation, so some active boxes serve no kept request.
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(weighted_relations(), weighted_networks()), st.sets(st.integers(0, 24)))
    def test_same_x_and_objective_as_the_reference_network(self, prep, active):
        fast = solve_fractional(active, prep)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weighted, "FlowNetwork", reference.FlowNetwork)
            ref = solve_fractional(active, prep)
        assert (fast.x, fast.objective) == (ref.x, ref.objective)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(weighted_relations(), weighted_networks()), st.sets(st.integers(0, 24)))
    def test_same_x_as_the_unshifted_reference_costs(self, prep, active):
        assert solve_fractional(active, prep).x == reference.solve_fractional_unshifted(
            active, prep).x

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(weighted_relations(), weighted_networks()), st.sets(st.integers(0, 24)))
    def test_objective_is_the_reference_flows_profit(self, prep, active):
        # Each unit leaving the source pays top - 1/p_j on its one cost-bearing arc.
        flows = []

        class Costed(reference.FlowNetwork):
            def min_cost_max_flow(self, source, sink):
                cost = super().min_cost_max_flow(source, sink)
                flows.append((sum(self.arcs[ai].flow for ai in self.out[source]), cost))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weighted, "FlowNetwork", Costed)
            frac = solve_fractional(active, prep)
        jobs = [j for j in prep.kept if set(prep.fs.candidates_of[j]) & set(active)]
        top = 1 / min(prep.demands[j] for j in jobs) if jobs else Fraction(0)
        assert frac.objective == sum((top * out - cost for out, cost in flows), Fraction(0))


#: Shares in (0, 1]: sums of quarters land on integers, thirds and sixths between.
SHARES = [Fraction(k, 4) for k in range(1, 5)] + [Fraction(k, 6) for k in (1, 2, 4, 5)]


@st.composite
def fractional_solutions(draw):
    """(FractionalAssignment, demands) over up to 8 requests and 4 machines,
    with tied demands and the x entries in a drawn order."""
    machines = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    demands = {j: draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
               for j in range(draw(st.integers(1, 8)))}
    keys = [(u, j) for j in demands for u in draw(st.sets(st.sampled_from(machines)))]
    x = {key: draw(st.sampled_from(SHARES)) for key in draw(st.permutations(keys))}
    return FractionalAssignment(x), demands


class TestBuildSlots:
    @settings(max_examples=300, deadline=None)
    @given(fractional_solutions())
    def test_same_slots_as_the_piecewise_reference(self, drawn):
        frac, demands = drawn
        prep = SimpleNamespace(demands=demands)  # the one field the slot graph reads
        assert _build_slots(frac, prep) == reference.build_slots(frac, prep)


def assert_same_floats(got, want):
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # the sign of every zero too


class TestComputeApsp:
    @settings(max_examples=300, deadline=None)
    @given(apsp_networks(), st.sampled_from(METRICS))
    def test_bit_identical_to_dijkstra(self, net, metric):
        assert_same_floats(compute_apsp(net, metric), reference.compute_apsp(net, metric))

    @pytest.mark.parametrize("metric", METRICS)
    def test_path_of_60_nodes(self, metric):
        # The far end of a path settles only in round n - 1, the most any graph needs.
        rng = rng_for(60)
        w = WEIGHTS["tenths"](rng, 59)
        net = located(60, rng, [(v, v + 1, float(w[v])) for v in range(59)])
        assert_same_floats(compute_apsp(net, metric), reference.compute_apsp(net, metric))
