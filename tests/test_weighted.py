from fractions import Fraction

import pytest

from builders import (
    coverable_weighted_problem,
    random_connected_network,
    random_weighted_problem,
    relation_of,
    rng_for,
)
from oracles import (
    deleted_entries,
    lp_max_fractional,
    max_load,
    weighted_gain,
    weighted_integral_feasible,
)

from mbplace import weighted
from mbplace.exceptions import Infeasible, PlacementError, RoundingFailed
from mbplace.instance import Pair, PlacementInstance, build_feasibility
from mbplace.netgraph import Network, compute_apsp
from mbplace.weighted import (
    Request,
    RoundedSolution,
    WeightedInstance,
    build_request_feasibility,
    generalized_greedy,
    preprocess,
    round_solution,
    solve_fractional,
    solve_weighted,
)


def manual_problem(candidates_of, demands, kappa):
    """Preprocessed problem straight from explicit feasibility sets."""
    requests = [Request.pair(0, 1, d) for d in demands]
    return preprocess(requests, relation_of(candidates_of), kappa)


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            Request.pair(1, 1, 1.0)
        with pytest.raises(ValueError):
            Request.group([1, 2], 0.0)
        with pytest.raises(ValueError):
            Request("group", (3,), 1.0)
        with pytest.raises(ValueError):
            Request("triple", (1, 2, 3), 1.0)

    def test_pair_canonical_order(self):
        assert Request.pair(5, 2, 1.0).nodes == (2, 5)


class TestGroupFeasibility:
    def test_group_requires_every_member_pair(self):
        # Path a-b-c-d: node b serves group {a,b,c} but not {a,c,d} at rho=1.
        net = Network.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        dist = compute_apsp(net)
        rfs = build_request_feasibility(
            [Request.group([0, 1, 2], 1.0), Request.group([0, 2, 3], 1.0)],
            dist, range(4), stretch=1.0)
        assert 1 in rfs.candidates_of[0]
        # only node 2 lies on a shortest path of every member pair of {0,2,3}
        assert rfs.candidates_of[1] == (2,)

    def test_two_member_group_equals_pair(self):
        # The pair builder and the group builder share one feasibility test.
        net = random_connected_network(rng_for(8), 7)
        dist = compute_apsp(net)
        reqs = [Request.pair(0, 3, 1.0), Request.group([0, 3], 1.0)]
        for stretch in (1.0, 1.2, 1.4, 2.0):
            both = build_request_feasibility(reqs, dist, range(7), stretch=stretch)
            assert both.candidates_of[0] == both.candidates_of[1]
            inst = PlacementInstance(net=net, dist=dist, pairs=[Pair(0, 3)],
                                     candidates=range(7), capacity=1, stretch=stretch)
            assert build_feasibility(inst).candidates_of == [both.candidates_of[0]]


class TestPreprocess:
    def test_boundary_demand_kept_excess_rejected(self):
        prep = manual_problem([(0,), (0,)], [3.0, 3.0 + 1e-9], kappa=3.0)
        assert prep.kept == (0,)
        assert prep.rejected == (1,)

    def test_uncoverable_kept_request_named_rejected_one_ignored(self):
        with pytest.raises(Infeasible) as err:
            manual_problem([(0,), ()], [1.0, 1.0], kappa=2.0)
        assert err.value.uncoverable == (1,)
        prep = manual_problem([(0,), ()], [1.0, 5.0], kappa=2.0)
        assert prep.kept == (0,) and prep.rejected == (1,)

    def test_deleted_entry_count_matches_recount(self):
        rng = rng_for(9)
        for _ in range(20):
            requests, rfs, prep, kappa, _ = coverable_weighted_problem(rng)
            expected = sum(
                1
                for j in prep.kept
                for u in rfs.candidates
                if u not in rfs.candidates_of[j]
            )
            assert len(deleted_entries(prep)) == expected
            for u, j in deleted_entries(prep):
                assert u not in prep.fs.candidates_of[j]


class TestSolveFractional:
    def test_single_request_single_box(self):
        prep = manual_problem([(7,)], [2.0], kappa=3.0)
        frac = solve_fractional([7], prep)
        assert frac.objective == 1
        assert frac.x[(7, 0)] == 1

    def test_capacity_forces_split(self):
        prep = manual_problem([(7,), (7,)], [3.0, 3.0], kappa=3.0)
        frac = solve_fractional([7], prep)
        assert frac.objective == 1
        load = sum(Fraction(3) * v for v in frac.x.values())
        assert load <= 3

    def test_empty_active_set(self):
        prep = manual_problem([(7,)], [1.0], kappa=2.0)
        assert solve_fractional([], prep).objective == 0

    def test_prefers_small_demands(self):
        # One unit of capacity: serving the small request fully beats any mix.
        prep = manual_problem([(1,), (1,)], [1.0, 2.0], kappa=1.0)
        frac = solve_fractional([1], prep)
        assert frac.objective == 1
        assert frac.x[(1, 0)] == 1

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_independent_lp_oracle(self, seed):
        rng = rng_for(11_000 + seed)
        requests, rfs, prep, kappa, _ = coverable_weighted_problem(
            rng, num_nodes=6, num_requests=6, kappa=float(rng.uniform(2.0, 5.0)))
        active = [u for u in rfs.candidates if rng.random() < 0.6][:4]
        got = solve_fractional(active, prep)
        demands = {j: float(prep.demands[j]) for j in prep.kept}
        want = lp_max_fractional(
            active,
            [demands.get(j, 1.0) for j in range(len(requests))],
            [rfs.candidates_of[j] if j in demands else () for j in range(len(requests))],
            kappa,
        )
        assert float(got.objective) == pytest.approx(want, abs=1e-6)

    def test_invariants_hold_exactly(self):
        rng = rng_for(13)
        for _ in range(20):
            _, rfs, prep, _, _ = coverable_weighted_problem(rng)
            frac = solve_fractional(rfs.candidates, prep)
            per_request: dict[int, Fraction] = {}
            per_box: dict[int, Fraction] = {}
            for (u, j), v in frac.x.items():
                assert 0 <= v <= 1
                assert u in prep.fs.candidates_of[j]
                per_request[j] = per_request.get(j, Fraction(0)) + v
                per_box[u] = per_box.get(u, Fraction(0)) + v * prep.demands[j]
            assert all(v <= 1 for v in per_request.values())
            assert all(v <= prep.kappa for v in per_box.values())


class TestGain:
    def test_zero_when_all_entries_deleted(self):
        prep = manual_problem([(3,)], [1.0], kappa=2.0)
        assert weighted_gain(4, [3], prep) == 0  # 4 serves nothing

    def test_first_box_gain_is_f_of_singleton(self):
        prep = manual_problem([(3,), (3, 4)], [1.0, 1.5], kappa=2.0)
        assert weighted_gain(3, [], prep) == solve_fractional([3], prep).objective

    def test_monotone_and_diminishing_returns(self):
        rng = rng_for(15)
        for _ in range(12):
            _, rfs, prep, _, _ = coverable_weighted_problem(rng, num_requests=5)
            universe = list(rfs.candidates)
            s2 = [u for u in universe if rng.random() < 0.6]
            s1 = [u for u in s2 if rng.random() < 0.6]
            outside = [u for u in universe if u not in s2]
            if not outside:
                continue
            i = outside[int(rng.integers(0, len(outside)))]
            g1, g2 = weighted_gain(i, s1, prep), weighted_gain(i, s2, prep)
            assert g1 >= g2 >= 0
            assert solve_fractional(s1, prep).objective <= \
                solve_fractional(s2, prep).objective


class TestGeneralizedGreedy:
    def test_single_box_covers_everything(self):
        prep = manual_problem([(2,), (2,), (2,)], [1.0, 1.0, 1.0], kappa=3.0)
        chosen, frac = generalized_greedy(prep)
        assert chosen == [2]
        assert frac.objective == 3

    def test_no_requests_empty_set(self):
        prep = manual_problem([], [], kappa=1.0)
        chosen, frac = generalized_greedy(prep)
        assert chosen == []
        assert frac.objective == 0

    def test_infeasible_when_guard_never_met(self):
        prep = manual_problem([(2,), (2,)], [2.0, 2.0], kappa=2.0)
        with pytest.raises(Infeasible):
            generalized_greedy(prep)

    def test_tie_break_smallest_id(self):
        prep = manual_problem([(5, 9)], [1.0], kappa=1.0)
        chosen, _ = generalized_greedy(prep)
        assert chosen == [5]

    @pytest.mark.parametrize("seed", range(10))
    def test_count_within_log_bound_of_weighted_oracle(self, seed):
        import math

        from mbplace.oracle import exact_weighted_min_middleboxes

        rng = rng_for(17_000 + seed)
        requests, rfs, prep, kappa, _ = random_weighted_problem(
            rng, num_nodes=7, num_requests=5, kappa=6.0)
        if prep is None or not prep.kept:
            return
        try:
            opt = exact_weighted_min_middleboxes(requests, rfs.candidates_of, kappa).value
        except Infeasible:
            return
        chosen, _ = generalized_greedy(prep)
        n = len(prep.kept)
        assert len(chosen) <= (1 + math.log(n)) * opt + 1e-12


class TestRounding:
    def test_already_integral_unchanged(self):
        prep = manual_problem([(1,), (2,)], [2.0, 1.0], kappa=2.0)
        frac = solve_fractional([1, 2], prep)
        assert all(v == 1 for v in frac.x.values())
        rounded = round_solution(frac, [1, 2], prep)
        assert rounded.assignment == {0: 1, 1: 2}

    def test_single_box_fits_within_kappa(self):
        prep = manual_problem([(4,), (4,), (4,)], [1.0, 0.5, 1.5], kappa=3.0)
        chosen, frac = generalized_greedy(prep)
        rounded = round_solution(frac, chosen, prep)
        assert set(rounded.assignment) == {0, 1, 2}
        assert max_load(rounded) <= prep.kappa

    def test_rounding_failed_when_precondition_violated(self):
        prep = manual_problem([(1,), (1,)], [2.0, 2.0], kappa=2.0)
        frac = solve_fractional([1], prep)  # f == 1 <= n-1
        with pytest.raises(RoundingFailed):
            round_solution(frac, [1], prep)

    @pytest.mark.parametrize("seed", range(60))
    def test_load_bound_two_kappa_randomized(self, seed):
        rng = rng_for(19_000 + seed)
        requests, rfs, prep, kappa, _ = random_weighted_problem(
            rng,
            num_nodes=int(rng.integers(5, 9)),
            num_requests=int(rng.integers(2, 8)),
            kappa=float(rng.uniform(2.0, 5.0)),
        )
        if prep is None:
            return
        try:
            chosen, frac = generalized_greedy(prep)
        except Infeasible:
            return
        rounded = round_solution(frac, chosen, prep)
        assert set(rounded.assignment) == set(prep.kept)
        assert max_load(rounded) <= 2 * prep.kappa
        for j, u in rounded.assignment.items():
            assert u in prep.fs.candidates_of[j]

    def test_relaxation_dominates_integral_optimum(self):
        # An integral packing of all kept requests on S is a feasible LP
        # point of objective n, so the relaxation must reach exactly n.
        rng = rng_for(21)
        hits = 0
        while hits < 10:
            requests, rfs, prep, kappa, _ = random_weighted_problem(
                rng, num_nodes=6, num_requests=4, kappa=4.0)
            if prep is None or prep.kept != tuple(range(len(requests))):
                continue
            active = list(rfs.candidates)[:3]
            if not weighted_integral_feasible(active, [r.demand for r in requests],
                                              rfs.candidates_of, kappa):
                continue
            frac = solve_fractional(active, prep)
            assert frac.objective == len(prep.kept)
            hits += 1


def path_instance(*requests) -> WeightedInstance:
    """Weighted instance on the hop path 0-1-2-3 with kappa 4 and stretch 2."""
    net = Network.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    return WeightedInstance(net, compute_apsp(net), [Request.pair(*r) for r in requests],
                            (0, 1, 2, 3), 4.0, stretch=2.0)


class TestSolveWeighted:
    """``solve_weighted`` validates its own result, so a corrupted stage
    fails the run in the library, not only in the CLI."""

    def test_valid_run_passes(self):
        prep, chosen, _, rounded = solve_weighted(path_instance((0, 3, 2.0), (1, 2, 1.0),
                                                                (0, 2, 5.0)))
        assert prep.kept == (0, 1) and prep.rejected == (2,)
        assert set(rounded.assignment) == {0, 1} and chosen

    def test_overloaded_box_fails_validation(self, monkeypatch):
        def overload(frac, active, prep):
            return RoundedSolution({j: 1 for j in prep.kept}, {1: sum(prep.demands.values())})

        monkeypatch.setattr(weighted, "round_solution", overload)
        with pytest.raises(PlacementError, match="load 9 > 8"):
            solve_weighted(path_instance((0, 3, 3.0), (1, 2, 3.0), (0, 1, 3.0)))

    def test_unserved_request_fails_validation(self, monkeypatch):
        real = weighted.round_solution

        def drop_first(frac, active, prep):
            sol = real(frac, active, prep)
            j = prep.kept[0]
            sol.load[sol.assignment.pop(j)] -= prep.demands[j]
            return sol

        monkeypatch.setattr(weighted, "round_solution", drop_first)
        with pytest.raises(PlacementError, match="not served"):
            solve_weighted(path_instance((0, 3, 2.0), (1, 2, 1.0), (0, 2, 5.0)))

    def test_dropped_request_fails_validation(self, monkeypatch):
        real = weighted.preprocess

        def drop_last_kept(requests, fs, kappa):
            prep = real(requests, fs, kappa)
            prep.kept = prep.kept[:-1]
            return prep

        monkeypatch.setattr(weighted, "preprocess", drop_last_kept)
        with pytest.raises(PlacementError, match="do not partition"):
            solve_weighted(path_instance((0, 3, 2.0), (1, 2, 1.0), (0, 2, 5.0)))
