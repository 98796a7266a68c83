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
arc-object reference network. The all-source shortest-path
relaxation must give a distance matrix bit-identical to one Dijkstra run per
source.
"""

from __future__ import annotations

from itertools import cycle
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from builders import coverable_instance, coverable_weighted_problem, relation, rng_for

from mbplace import oracle, weighted
from mbplace.exceptions import Infeasible, Stalled
from mbplace.greedy import greedy_place, greedy_prefix, greedy_step, incremental_extend
from mbplace.matching import Assignment, count_gain, phi
from mbplace.netgraph import METRICS, Network, Node, compute_apsp
from mbplace.oracle import exact_min_middleboxes, max_assignment_for_n
from mbplace.weighted import Request, generalized_greedy, preprocess, solve_fractional


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


class TestGreedy:
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
        trace = greedy_prefix(Sizes(fs.num_pairs, capacity), fs)
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
            ref = run_both()
        assert fast == ref


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


def assert_same_floats(got, want):
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # the sign of every zero too


class TestComputeApsp:
    @settings(max_examples=300, deadline=None)
    @given(apsp_networks(), st.sampled_from(METRICS))
    def test_bit_identical_to_dijkstra(self, net, metric):
        assert_same_floats(compute_apsp(net, metric).values, reference.compute_apsp(net, metric))

    @pytest.mark.parametrize("metric", METRICS)
    def test_path_of_60_nodes(self, metric):
        # The far end of a path settles only in round n - 1, the most any graph needs.
        rng = rng_for(60)
        w = WEIGHTS["tenths"](rng, 59)
        net = located(60, rng, [(v, v + 1, float(w[v])) for v in range(59)])
        assert_same_floats(compute_apsp(net, metric).values, reference.compute_apsp(net, metric))
