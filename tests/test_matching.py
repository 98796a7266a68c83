import pytest

import reference
from builders import coverable_instance, relation, rng_for
from oracles import assigned_pairs, exhaustive_phi, free_capacity, maxflow_phi, num_edges
from reference import AugmentingPath, apply_augmenting_path

from mbplace.exceptions import AlreadyActive, InvalidPath
from mbplace.matching import Assignment, phi


def fig_scenario():
    """Structural analogue of the greedy/augmenting figures: 3 candidates,
    5 pairs, capacity 2; the third middlebox can only gain via a handover."""
    fs = relation(5, {10: (1, 2), 11: (0, 3, 4), 12: (0,)})
    return fs


class TestPhi:
    def test_empty_set_is_zero(self):
        fs = fig_scenario()
        assert phi([], fs, 2) == 0

    def test_capacity_caps_single_middlebox(self):
        fs = relation(3, {0: (0, 1, 2)})
        assert phi([0], fs, 2) == 2

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = rng_for(1000 + seed)
        inst, fs = coverable_instance(
            rng, num_nodes=int(rng.integers(5, 9)), num_pairs=int(rng.integers(2, 9)),
            capacity=int(rng.integers(1, 4)), stretch=float(rng.choice([1.2, 1.5, 2.0])),
        )
        members = list(fs.candidates)[:6]
        assert phi(members, fs, inst.capacity) == exhaustive_phi(members, fs, inst.capacity)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_maxflow_on_clone_reduction(self, seed):
        rng = rng_for(2000 + seed)
        inst, fs = coverable_instance(rng, num_nodes=8, num_pairs=6,
                                      capacity=int(rng.integers(1, 4)))
        members = [u for u in fs.candidates if rng.random() < 0.6]
        assert phi(members, fs, inst.capacity) == maxflow_phi(members, fs, inst.capacity)

    def test_monotone_in_member_set(self):
        rng = rng_for(3)
        for _ in range(50):
            inst, fs = coverable_instance(rng, num_nodes=8, num_pairs=6, capacity=2)
            cands = list(fs.candidates)
            m2 = [u for u in cands if rng.random() < 0.7]
            m1 = [u for u in m2 if rng.random() < 0.7]
            assert phi(m1, fs, inst.capacity) <= phi(m2, fs, inst.capacity)


class TestAddMiddlebox:
    def test_no_incident_edges_gains_nothing(self):
        fs = relation(2, {0: (0, 1), 1: ()})
        state = Assignment(fs, 2)
        state.add_middlebox(0)
        before = list(state.mu)
        assert state.add_middlebox(1) == 0
        assert state.mu == before

    def test_already_active_rejected(self):
        state = Assignment(fig_scenario(), 2)
        state.add_middlebox(10)
        with pytest.raises(AlreadyActive):
            state.add_middlebox(10)

    def test_non_candidate_rejected(self):
        with pytest.raises(ValueError):
            Assignment(fig_scenario(), 2).add_middlebox(99)

    def test_figure_handover_sequence(self):
        # Deployment one-by-one, no relocation; the third box serves pair 0,
        # previously handled by the second, which picks up the free pair 4.
        state = Assignment(fig_scenario(), 2)
        assert state.add_middlebox(10) == 2
        assert state.add_middlebox(11) == 2
        assert state.mu[0] == 11
        served_before = assigned_pairs(state)
        assert state.add_middlebox(12) == 1
        assert state.mu[0] == 12          # handover
        assert state.mu[4] == 11          # freed capacity reused
        assert served_before <= assigned_pairs(state)
        assert all(load <= 2 for load in state.load.values())

    def test_gain_matches_stateless_phi_on_500_increments(self):
        rng = rng_for(4000)
        increments = 0
        while increments < 500:
            inst, fs = coverable_instance(rng, num_nodes=9, num_pairs=7,
                                          capacity=int(rng.integers(1, 4)))
            state = Assignment(fs, inst.capacity)
            members = []
            for u in fs.candidates:
                before = phi(members, fs, inst.capacity)
                gained = state.add_middlebox(u)
                members.append(u)
                assert gained == phi(members, fs, inst.capacity) - before
                increments += 1

    def test_untouched_loads_never_change(self):
        rng = rng_for(17)
        for _ in range(20):
            inst, fs = coverable_instance(rng, num_nodes=9, num_pairs=7, capacity=2)
            state = Assignment(fs, inst.capacity)
            for u in fs.candidates:
                loads_before = dict(state.load)
                state.add_middlebox(u)
                for m, v in loads_before.items():
                    assert state.load[m] == v


class TestLevelSearch:
    """The engine's one search: levels of a shortest augmenting path on the
    pair bitsets, applied by the engine's one flip."""

    def test_direct_free_pair(self):
        state = Assignment(fig_scenario(), 2)
        state.owned[10] = 0
        levels = state.find_augmenting_path(10, state.owned, state.free)
        assert levels == [[10]]
        state.free = state._flip(levels, state.owned, state.free)
        assert state.mu == [None, 10, None, None, None]
        assert state.free == 0b11101

    def test_three_edge_handover(self):
        state = Assignment(fig_scenario(), 2)
        state.add_middlebox(10)
        state.add_middlebox(11)
        assert state.mu == [11, 10, 10, 11, None]
        state.owned[12] = 0
        assert state.find_augmenting_path(12, state.owned, state.free) == [[12], [11]]
        state.free = state._flip([[12], [11]], state.owned, state.free)
        assert state.mu == [12, 10, 10, 11, 11]  # 11 hands pair 0 over, takes the free pair 4
        assert state.free == 0

    def test_deploy_orders_levels_by_discovery(self):
        # Boxes 0..3 own pairs 0..3 and pairs 4, 5 are free. From box 4, box 1
        # (via pair 1) comes before box 2 (via pair 2); box 1 then finds box 3
        # (via pair 3) before box 2 finds box 0 (via pair 0), so box 3 leads
        # the last level even though its pair is the higher one.
        fs = relation(6, {
            0: (0, 5), 1: (1, 3), 2: (0, 2), 3: (3, 4), 4: (1, 2)})
        state = Assignment(fs, 1)
        for m in range(4):
            state.add_middlebox(m)
        assert state.mu == [0, 1, 2, 3, None, None]
        state.owned[4] = 0
        levels = state.find_augmenting_path(4, state.owned, state.free)
        assert levels == [[4], [1, 2], [0, 3]]  # unsorted: box 0 would lead the last level
        del state.owned[4]
        assert state.add_middlebox(4) == 1
        assert state.mu == [0, 4, 2, 1, 3, None]
        ref = reference.Assignment(fs, 1)
        for m in range(5):
            ref.add_middlebox(m)
        assert ref.mu == state.mu

    def test_none_at_maximum(self):
        rng = rng_for(71)
        for _ in range(20):
            inst, fs = coverable_instance(rng, num_nodes=7, num_pairs=6,
                                          capacity=int(rng.integers(1, 3)))
            members = list(fs.candidates)[:5]
            state = Assignment(fs, inst.capacity)
            for u in members:
                state.add_middlebox(u)
            assert state.num_assigned == exhaustive_phi(members, fs, inst.capacity)
            for m in state.active:
                if free_capacity(state, m) > 0:
                    assert state.find_augmenting_path(m, state.owned, state.free) is None


class TestFindAugmentingPath:
    """The reference engine's breadth-first search."""

    def test_direct_free_pair_single_edge(self):
        fs = fig_scenario()
        state = reference.Assignment(fs, 2)
        state.load[10] = 0
        path = state.find_augmenting_path(10)
        assert path == AugmentingPath((10,), (1,))
        assert num_edges(path) == 1

    def test_three_edge_path_through_assigned_pair(self):
        state = reference.Assignment(fig_scenario(), 2)
        state.add_middlebox(10)
        state.add_middlebox(11)
        state.load[12] = 0
        path = state.find_augmenting_path(12)
        assert path.middleboxes == (12, 11)
        assert path.pairs == (0, 4)
        assert num_edges(path) == 3

    def test_none_when_engine_already_maximum(self):
        rng = rng_for(71)
        for _ in range(20):
            inst, fs = coverable_instance(rng, num_nodes=7, num_pairs=6,
                                          capacity=int(rng.integers(1, 3)))
            members = list(fs.candidates)[:5]
            state = reference.Assignment(fs, inst.capacity)
            for u in members:
                state.add_middlebox(u)
            assert state.num_assigned == exhaustive_phi(members, fs, inst.capacity)
            for m in state.active:
                if free_capacity(state, m) > 0:
                    assert state.find_augmenting_path(m) is None

    def test_start_without_capacity_rejected(self):
        fs = relation(1, {0: (0,)})
        state = reference.Assignment(fs, 1)
        state.add_middlebox(0)
        with pytest.raises(ValueError):
            state.find_augmenting_path(0)


class TestApplyAugmentingPath:
    """The reference engine's checked flip."""

    def test_single_edge_application(self):
        fs = fig_scenario()
        state = reference.Assignment(fs, 2)
        state.load[10] = 0
        apply_augmenting_path(state, AugmentingPath((10,), (1,)))
        assert state.mu[1] == 10
        assert state.num_assigned == 1

    def test_invalid_paths_rejected(self):
        state = reference.Assignment(fig_scenario(), 2)
        state.add_middlebox(10)
        state.add_middlebox(11)
        state.load[12] = 0
        with pytest.raises(InvalidPath):  # endpoint pair not free
            apply_augmenting_path(state, AugmentingPath((12,), (0,)))
        with pytest.raises(InvalidPath):  # infeasible edge
            apply_augmenting_path(state, AugmentingPath((12,), (3,)))
        with pytest.raises(InvalidPath):  # broken alternation
            apply_augmenting_path(state, AugmentingPath((12, 10), (0, 4)))
        with pytest.raises(InvalidPath):  # inactive start
            apply_augmenting_path(reference.Assignment(fig_scenario(), 2),
                                  AugmentingPath((10,), (1,)))

    def test_no_path_reuses_a_consumed_free_pair(self):
        rng = rng_for(90)
        for _ in range(20):
            inst, fs = coverable_instance(rng, num_nodes=8, num_pairs=6, capacity=2)
            state = reference.Assignment(fs, inst.capacity)
            consumed = set()
            for u in fs.candidates:
                state.load[u] = 0
                while state.load[u] < state.capacity:
                    path = state.find_augmenting_path(u)
                    if path is None:
                        break
                    assert path.pairs[-1] not in consumed
                    consumed.add(path.pairs[-1])
                    apply_augmenting_path(state, path)


class TestSubmodularityAndProjection:
    def test_submodular_inequality_random_draws(self):
        rng = rng_for(55)
        for _ in range(60):
            inst, fs = coverable_instance(rng, num_nodes=9, num_pairs=7,
                                          capacity=int(rng.integers(1, 4)))
            cands = list(fs.candidates)
            m2 = [u for u in cands if rng.random() < 0.6]
            m1 = [u for u in m2 if rng.random() < 0.6]
            outside = [u for u in cands if u not in m2]
            if not outside:
                continue
            m = outside[int(rng.integers(0, len(outside)))]
            k = inst.capacity
            lhs = phi(m1 + [m], fs, k) - phi(m1, fs, k)
            rhs = phi(m2 + [m], fs, k) - phi(m2, fs, k)
            assert lhs >= rhs

    def test_projection_to_prefix_is_maximum(self):
        rng = rng_for(66)
        for _ in range(30):
            inst, fs = coverable_instance(rng, num_nodes=9, num_pairs=7, capacity=2)
            cands = list(fs.candidates)
            state = Assignment(fs, inst.capacity)
            for idx, u in enumerate(cands):
                state.add_middlebox(u)
                prefix = set(cands[: idx + 1])
                for j in range(idx + 1):
                    sub = set(cands[: j + 1])
                    projected = sum(1 for m in state.mu if m in sub)
                    assert projected == phi(sub, fs, inst.capacity)
                assert prefix >= set(state.load)
