"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured statistics. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import statistics
import time
from pathlib import Path

import pytest

from builders import (
    candidates_of,
    coverable_instance,
    feasible_instance,
    random_connected_network,
    random_instance,
    random_weighted_problem,
    raw_feasibility,
    rng_for,
    star_instance,
    star_instance_nodes,
)
from oracles import assigned_pairs, exhaustive_phi, lp_max_fractional, max_load

from mbplace.exceptions import Infeasible
from mbplace.greedy import greedy_place, incremental_extend, greedy_approximation_bound
from mbplace.ingest import (
    ScenarioConfig,
    formula_capacity,
    generate_unweighted_scenario,
    generate_weighted_scenario,
    instance_to_json,
    parse_sndlib,
    stretch_grid,
)
from mbplace.instance import build_feasibility
from mbplace.matching import Assignment, phi
from mbplace.netgraph import Network
from mbplace.oracle import (
    exact_min_middleboxes,
    exact_weighted_min_middleboxes,
    max_assignment_for_n,
)
from mbplace.weighted import generalized_greedy, round_solution, solve_fractional

DATA = Path(__file__).parent / "data"


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE criterion {criterion}: PASS - {message}")


def _greedy_batch_instances():
    """Oracle-tractable instances shared by criteria 3 and 4."""
    rng = rng_for(77_001)
    for _ in range(100):
        yield feasible_instance(
            rng,
            num_nodes=int(rng.integers(9, 15)),
            num_pairs=int(rng.integers(5, 15)),
            capacity=int(rng.integers(2, 5)),
            stretch=float(rng.choice([1.5, 2.0])),
        )


def _engine_batch_instances():
    """Small instances shared by criteria 2 and 4."""
    rng = rng_for(77_002)
    for _ in range(500):
        inst = random_instance(
            rng,
            num_nodes=int(rng.integers(4, 8)),
            num_pairs=int(rng.integers(1, 9)),
            num_candidates=int(rng.integers(1, 7)),
            capacity=int(rng.integers(1, 4)),
            stretch=float(rng.choice([1.2, 1.5, 2.0])),
        )
        yield inst, raw_feasibility(inst), rng


def test_criterion_1_submodularity_zero_violations():
    t0 = time.perf_counter()
    rng = rng_for(66_001)
    draws = 0
    while draws < 1000:
        inst = random_instance(
            rng,
            num_nodes=int(rng.integers(4, 16)),
            num_pairs=int(rng.integers(1, 11)),
            num_candidates=int(rng.integers(2, 11)),
            capacity=int(rng.integers(1, 5)),
            stretch=float(rng.choice([1.0, 1.5, 2.0])),
        )
        fs = raw_feasibility(inst)
        cands = list(fs.candidates)
        for _ in range(10):
            m2 = [u for u in cands if rng.random() < 0.6]
            m1 = [u for u in m2 if rng.random() < 0.6]
            outside = [u for u in cands if u not in m2]
            if not outside:
                continue
            m = outside[int(rng.integers(0, len(outside)))]
            k = inst.capacity
            e1 = Assignment(fs, k)
            for u in sorted(m1):
                e1.add_middlebox(u)
            phi1 = e1.num_assigned
            t1 = e1.clone()
            t1.add_middlebox(m)
            gain1 = t1.num_assigned - phi1
            for u in sorted(set(m2) - set(m1)):
                e1.add_middlebox(u)
            phi2 = e1.num_assigned
            t2 = e1.clone()
            t2.add_middlebox(m)
            gain2 = t2.num_assigned - phi2
            assert gain1 >= gain2, (
                f"submodularity violated: {gain1} < {gain2} for "
                f"M1={sorted(m1)}, M2={sorted(m2)}, m={m}"
            )
            draws += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    report(1, f"{draws} draws, zero violations, {elapsed:.1f}s")


def test_criterion_2_matching_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for inst, fs, rng in _engine_batch_instances():
        members = list(fs.candidates)
        assert phi(members, fs, inst.capacity) == \
            exhaustive_phi(members, fs, inst.capacity)
        subset = [u for u in members if rng.random() < 0.5]
        assert phi(subset, fs, inst.capacity) == \
            exhaustive_phi(subset, fs, inst.capacity)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 500
    assert elapsed <= 120.0
    report(2, f"{checked} instances, exact equality, {elapsed:.1f}s")


def trace_lower_bound(num_pairs: int, capacity: int, steps) -> int:
    """``max(ceil(|P|/kappa), max_t ceil((|P| - phi_t) / g_(t+1)))``, a lower
    bound on OPT read off a complete greedy trace: by submodularity OPT boxes
    add at most OPT * g_(t+1) pairs to S_t."""
    return max([math.ceil(num_pairs / capacity)] +
               [math.ceil((num_pairs - (s.phi_after - s.gain)) / s.gain) for s in steps])


def test_criterion_3_greedy_approximation_guarantee():
    ratios = []
    for inst, fs in _greedy_batch_instances():
        trace = greedy_place(inst, fs)
        opt = exact_min_middleboxes(inst, fs).value
        bound = greedy_approximation_bound(inst.capacity, inst.num_pairs)
        count = len(trace.steps)
        assert count <= bound * opt, (
            f"greedy {count} exceeds bound {bound:.3f} x OPT {opt}"
        )
        assert trace_lower_bound(inst.num_pairs, inst.capacity, trace.steps) <= opt
        ratios.append(count / opt)
    median = statistics.median(ratios)
    peak = max(ratios)
    soft = "met" if median <= 1.6 else "MISSED (soft target, logged only)"
    report(3, f"{len(ratios)} instances within the log-factor bound; "
              f"median ratio {median:.3f} (soft target <= 1.6 {soft}), max {peak:.3f}")


@pytest.mark.parametrize("num_nodes", [80, 120, 160])
def test_criterion_3_trace_lower_bound_at_scale(num_nodes):
    # Where the oracle cannot run, the guarantee is checked against the trace
    # lower bound LB <= OPT. Each step t + 1 serves g_(t+1) >= (|P| - phi_t) / LB
    # pairs, and at least one. Charge the step evenly to the pairs it serves:
    # the pair served k-th from last pays 1 / g_(t+1) <= min(1, LB / k), so a
    # complete run has at most LB * (1 + ln(|P| / LB)) steps, and |P| / LB is
    # at most min(kappa, |P|).
    net = random_connected_network(rng_for(num_nodes), num_nodes, extra_edge_prob=3 / num_nodes)
    cfg = ScenarioConfig(topology="random", p=0.3, stretch=1.5, seed=num_nodes, metric="weight")
    inst = generate_unweighted_scenario(cfg, net)
    trace = greedy_place(inst, build_feasibility(inst))
    lower = trace_lower_bound(inst.num_pairs, inst.capacity, trace.steps)
    bound = greedy_approximation_bound(inst.capacity, inst.num_pairs)
    assert trace.complete
    assert len(trace.steps) <= bound * lower
    report(3, f"{num_nodes} nodes, {inst.num_pairs} pairs: greedy {len(trace.steps)} boxes, "
              f"trace lower bound {lower}, bound factor {bound:.3f}")


def test_criterion_4_incremental_no_preemption_and_projection():
    traces = 0
    for inst, fs in _greedy_batch_instances():
        trace = greedy_place(inst, fs, 0)
        prev_pairs: frozenset = frozenset()
        prev_boxes: frozenset = frozenset()
        prefixes = []
        while not trace.complete:
            trace = incremental_extend(trace, 1)
            pairs = assigned_pairs(trace.engine)
            boxes = frozenset(trace.engine.load)
            assert prev_pairs <= pairs and prev_boxes < boxes
            prev_pairs, prev_boxes = pairs, boxes
            prefixes.append(boxes)
        final = trace.engine
        for prefix in prefixes:
            projected = sum(1 for m in final.mu if m in prefix)
            assert projected == phi(prefix, fs, inst.capacity)
        traces += 1
    for inst, fs, rng in _engine_batch_instances():
        state = Assignment(fs, inst.capacity)
        prev: frozenset = frozenset()
        order = [u for u in fs.candidates if rng.random() < 0.7]
        for u in order:
            state.add_middlebox(u)
            pairs = assigned_pairs(state)
            assert prev <= pairs
            prev = pairs
        for j in range(1, len(order) + 1):
            prefix = set(order[:j])
            projected = sum(1 for m in state.mu if m in prefix)
            assert projected == phi(prefix, fs, inst.capacity)
        traces += 1
    report(4, f"{traces} traces: assigned sets monotone, projections maximum")


def _weighted_problem_stream(rng, sndlib_data):
    """Endless mix of random weighted problems and SNDlib-derived minis."""
    from mbplace.weighted import build_request_feasibility, preprocess

    net, demands = sndlib_data
    rep = 0
    while True:
        for _ in range(9):
            requests, rfs, prep, kappa, _ = random_weighted_problem(
                rng,
                num_nodes=int(rng.integers(5, 9)),
                num_requests=int(rng.integers(2, 8)),
                kappa=float(rng.uniform(2.0, 6.0)),
            )
            yield requests, rfs, prep, kappa
        cfg = ScenarioConfig(topology="mini", stretch=float(rng.choice([1.5, 2.0])),
                             seed=66_105, replication=rep, metric="hops")
        rep += 1
        try:
            winst = generate_weighted_scenario(cfg, net, demands)
        except Infeasible:
            continue
        rfs = build_request_feasibility(winst)
        try:
            prep = preprocess(winst.requests, rfs, winst.capacity)
        except Infeasible:
            continue
        yield winst.requests, rfs, prep, winst.capacity


def test_criterion_5_weighted_bicriteria():
    load_checked = 0
    oracle_checked = 0
    rng = rng_for(66_005)
    sndlib_data = parse_sndlib((DATA / "mini_sndlib.txt").read_text())
    for requests, rfs, prep, kappa in _weighted_problem_stream(rng, sndlib_data):
        if load_checked >= 200 and oracle_checked >= 100:
            break
        if prep is None:
            continue
        try:
            chosen, frac = generalized_greedy(prep)
        except Infeasible:
            continue
        rounded = round_solution(frac, chosen, prep)
        assert set(rounded.assignment) == set(prep.kept)
        assert max_load(rounded) <= 2 * prep.kappa, "2-kappa load bound violated"
        load_checked += 1
        if len(rfs.candidates) <= 12 and len(requests) <= 14 and \
                prep.kept == tuple(range(len(requests))):
            try:
                opt = exact_weighted_min_middleboxes(prep).value
            except Infeasible:
                continue
            n = len(prep.kept)
            assert len(chosen) <= (1 + math.log(n)) * opt + 1e-12, (
                f"weighted greedy {len(chosen)} exceeds (1+ln {n}) x OPT {opt}"
            )
            oracle_checked += 1
    assert load_checked >= 200
    assert oracle_checked >= 100
    report(5, f"{load_checked} roundings all within 2*kappa; "
              f"{oracle_checked} oracle comparisons within (1+ln n) x OPT")


def test_criterion_6_lp_flow_reduction_matches_oracle():
    rng = rng_for(66_006)
    checked = 0
    while checked < 100:
        requests, rfs, prep, kappa, _ = random_weighted_problem(
            rng,
            num_nodes=int(rng.integers(4, 7)),
            num_requests=int(rng.integers(1, 7)),
            kappa=float(rng.uniform(1.5, 5.0)),
        )
        active = [u for u in rfs.candidates if rng.random() < 0.7][:4]
        if prep is None:
            continue
        got = float(solve_fractional(active, prep).objective)
        demands = [float(prep.demands.get(j, prep.kappa + 1)) for j in range(len(requests))]
        cands = [us if j in prep.demands else () for j, us in enumerate(candidates_of(rfs))]
        want = lp_max_fractional(active, demands, cands, kappa)
        assert got == pytest.approx(want, abs=1e-6), f"flow {got} vs LP {want}"
        checked += 1
    report(6, f"{checked} instances (<= 4 x 6): flow objective within 1e-6 of LP oracle")


def test_criterion_7_star_reproduction():
    c = 4
    inst = star_instance(3, c, capacity=10, stretch=float(c))
    fs = build_feasibility(inst)
    trace = greedy_place(inst, fs)
    assert trace.middleboxes == [0], "greedy must open exactly the hub"
    assert exact_min_middleboxes(inst, fs).value == 1
    tight = star_instance_nodes(12, c, capacity=10, stretch=c - 0.1)
    assert tight.net.num_nodes == 12
    tight_fs = build_feasibility(tight)
    opt = exact_min_middleboxes(tight, tight_fs).value
    assert opt >= 3, f"stretch-(c-eps) variant needs >= n/c boxes, got {opt}"
    assert opt == 3  # frozen from the derived oracle run
    report(7, f"rho=c solves with 1 hub middlebox (greedy and oracle); "
              f"rho=c-eps on 12 nodes needs {opt} >= 3")


def test_criterion_8_scenario_formulas_and_determinism():
    grid = stretch_grid()
    assert len(grid) == 31
    assert grid[0] == 1.00 and grid[-1] == 2.50
    assert all(round(v * 100) % 5 == 0 for v in grid)
    rng = rng_for(66_008)
    for _ in range(50):
        n = int(rng.integers(2, 120))
        p = float(rng.choice([0.2, 0.3, 0.4, 0.25, 0.5]))
        kappa = formula_capacity(n, p)
        from fractions import Fraction

        exact = 2 * (n - 1) * Fraction(str(p))
        assert kappa == -(-exact.numerator // exact.denominator)
    net = Network.from_edges(7, [(i, i + 1, 1.0) for i in range(6)] + [(0, 6, 1.0)])
    cfg = ScenarioConfig(topology="ring7", p=0.4, stretch=1.5, seed=424242,
                         replication=1, metric="hops")
    docs = {instance_to_json(generate_unweighted_scenario(cfg, net)) for _ in range(3)}
    assert len(docs) == 1
    inst = generate_unweighted_scenario(cfg, net)
    assert inst.capacity == formula_capacity(7, 0.4)
    report(8, "capacity formula exact on 50 draws; 31-value stretch grid; "
              "seeded generation byte-identical")


def test_criterion_9_relative_difference_series():
    # The series hits 0 at greedy completion, which happens at some n >= OPT
    # (greedy with exactly OPT boxes may legitimately still trail the IP:
    # the reported peak sits near OPT), and stays 0 afterwards.
    rng = rng_for(66_009)
    peak = 0.0
    series_checked = 0
    for _ in range(12):
        inst, fs = feasible_instance(
            rng, num_nodes=int(rng.integers(9, 13)), num_pairs=int(rng.integers(5, 13)),
            capacity=int(rng.integers(2, 4)),
        )
        opt = exact_min_middleboxes(inst, fs).value
        trace = greedy_place(inst, fs, 0)
        n = 0
        rels = []
        while not trace.complete:
            trace = incremental_extend(trace, 1)
            n += 1
            phi_g = trace.engine.num_assigned
            phi_ip = max_assignment_for_n(inst, fs, n).value
            rel = (phi_ip - phi_g) / phi_ip if phi_ip else 0.0
            assert rel >= 0.0
            rels.append(rel)
            peak = max(peak, rel)
        assert n >= opt
        assert rels[-1] == 0.0, "series must reach 0 when greedy completes"
        for extra in range(n, min(n + 2, len(fs.candidates)) + 1):
            phi_ip = max_assignment_for_n(inst, fs, extra).value
            assert phi_ip == inst.num_pairs and trace.engine.num_assigned == phi_ip
        series_checked += 1
    report(9, f"{series_checked} series non-negative, reaching 0 at greedy "
              f"completion (>= OPT) and staying there; observed peak {peak:.4f} "
              f"(paper-scale peak 0.15 reported, not gated)")
