"""Exact brute-force baselines at desk scale.

These replace integer programs for acceptance testing and ratio metrics:
subset enumeration ordered by cardinality (so the first full cover is the
minimum), with cheap capacity and coverage bounds pruning hopeless
branches. No external ILP solver is involved anywhere.

``max_served_series`` gives phi_opt(n), the most pairs any n boxes serve,
for every step n of a greedy trace. phi is monotone and submodular, so the
trace's gain g_(t+1) bounds every marginal gain over S_t and
``phi_opt(n) <= phi_t + n * g_(t+1)`` (Nemhauser, Wolsey & Fisher 1978);
a step whose bounds meet is certified without a search.
``greedy_gap_series`` and ``compare_to_greedy`` turn that series into what
the front ends report of a greedy run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exceptions import Infeasible, TooLarge
from .instance import FeasibilitySets, PlacementInstance
from .matching import Assignment, phi

DEFAULT_LIMIT = 16
#: How a TooLarge names the limit it met; a front end names its own setting.
ENUMERATION_LIMIT = "enumeration limit {}"
#: Most candidates ``exact_weighted_min_middleboxes`` enumerates by default.
DEFAULT_WEIGHTED_LIMIT = 12
#: Most requests ``exact_weighted_min_middleboxes`` enumerates.
WEIGHTED_REQUEST_LIMIT = 14


@dataclass(frozen=True)
class ExactResult:
    value: int
    witness_set: tuple[int, ...]
    witness_assignment: dict[int, int] | None
    explored: int


def exact_min_middleboxes(inst: PlacementInstance, fs: FeasibilitySets,
                          limit: int = DEFAULT_LIMIT) -> ExactResult:
    """Smallest middlebox set serving every pair, by exhaustive search.

    Subsets are enumerated in cardinality-then-lexicographic order; the
    first witness found is returned (the search of ``max_assignment_for_n``
    with |P| - 1 as the best so far). Raises TooLarge beyond ``limit``
    candidates and Infeasible when even the full candidate set falls short.
    """
    universe = _check_limit(fs.candidates, limit)
    target = inst.num_pairs
    if target == 0:
        return ExactResult(0, (), {}, 0)
    served = phi(universe, fs, inst.capacity)
    if served < target:
        raise Infeasible(f"only {served} of {target} pairs coverable with all candidates")
    explored = 1
    for k in range(math.ceil(target / inst.capacity), len(universe) + 1):
        hit, count = _best_of_size(fs, inst.capacity, universe, k, target - 1, target)
        explored += count
        if hit is not None:
            return ExactResult(k, hit.active, hit.assignment(), explored)
    raise Infeasible("unreachable: full candidate set was verified feasible")


def _best_of_size(fs: FeasibilitySets, capacity: int, universe, n: int, floor: int,
                  cap: int) -> tuple[Assignment | None, int]:
    """(best n-subset assignment serving more than ``floor`` pairs or None,
    subsets grown), by depth-first branch and bound in lexicographic order;
    the search stops once the best reaches ``cap``. A stack frame is (the
    state of the subset so far, the union of its boxes' S_u, the next index
    to branch on, slots left). A frame is done when too few candidates
    remain to fill its slots, or when it cannot beat the best: not with full
    boxes in every slot, and not with every pair its boxes or the candidates
    from the next index on may serve (``reach[idx]``), since a served pair
    lies in S_u of its box. By the same count, a box for the last slot is
    grown only if it and the frame's boxes may serve more than the best."""
    masks = [fs.masks[u] for u in universe]
    reach = [0] * (len(universe) + 1)
    for idx in range(len(universe) - 1, -1, -1):
        reach[idx] = reach[idx + 1] | masks[idx]
    best_value, best_state, explored = floor, None, 0
    stack = [(Assignment(fs, capacity), 0, 0, n)]
    while stack:
        state, opened, idx, slots = stack[-1]
        if (len(universe) - idx < slots or best_value >= cap
                or state.num_assigned + slots * capacity <= best_value
                or (opened | reach[idx]).bit_count() <= best_value):
            stack.pop()
            continue
        stack[-1] = state, opened, idx + 1, slots
        if slots == 1 and (opened | masks[idx]).bit_count() <= best_value:
            continue
        trial = state.clone()
        trial.add_middlebox(universe[idx])
        explored += 1
        if slots > 1:
            stack.append((trial, opened | masks[idx], idx + 1, slots - 1))
        elif trial.num_assigned > best_value:
            best_value, best_state = trial.num_assigned, trial
    return best_state, explored


def _check_limit(candidates, limit: int, over: str = ENUMERATION_LIMIT) -> list[int]:
    """The ascending ``candidates`` as a list; TooLarge, naming the limit as
    ``over`` does, if there are more than ``limit``."""
    universe = list(candidates)
    if len(universe) > limit:
        raise TooLarge(f"{len(universe)} candidates exceed {over.format(limit)}")
    return universe


def max_assignment_for_n(inst: PlacementInstance, fs: FeasibilitySets, n: int,
                         limit: int = DEFAULT_LIMIT, floor: int = 0,
                         cap: int | None = None) -> ExactResult:
    """Maximum number of served pairs over all middlebox sets of size n.

    A caller that knows the maximum lies above ``floor`` and at most ``cap``
    may pass them: the search is shorter and finds the same value and the
    same witness, the lexicographically first maximum."""
    universe = _check_limit(fs.candidates, limit)
    if n < 0:
        raise ValueError("n must be >= 0")
    n = min(n, len(universe))
    top = min(inst.num_pairs, n * inst.capacity)
    cap = top if cap is None else min(cap, top)
    best, explored = None, 0
    if n > 0:
        best, explored = _best_of_size(fs, inst.capacity, universe, n, floor, cap)
    witness = best or Assignment(fs, inst.capacity)
    return ExactResult(witness.num_assigned, witness.active, witness.assignment(), explored)


def max_served_series(inst: PlacementInstance, fs: FeasibilitySets, steps,
                      limit: int = DEFAULT_LIMIT, over: str = ENUMERATION_LIMIT) -> list[int]:
    """phi_opt(n), the most pairs any n boxes serve, for n = 1 .. len(steps),
    where ``steps`` are a greedy trace's steps on ``fs`` (``gain``,
    ``phi_after``).

    phi_opt(n) lies between max(phi_greedy(n), phi_opt(n - 1)) and the least
    of |P|, n * kappa, phi_opt(n - 1) + kappa (an optimal n-set less one box
    keeps all but at most kappa pairs) and, for every step t, phi_t + n *
    g_(t+1): by submodularity no n boxes add more than n times the largest
    marginal gain over S_t, which greedy took at step t + 1. Where the two
    bounds meet the value is certified; elsewhere ``max_assignment_for_n``
    searches between them. Raises TooLarge beyond ``limit`` candidates,
    unless there is no step, naming the limit as ``over`` does.
    """
    if steps:
        _check_limit(fs.candidates, limit, over)
    # (phi_t, g_(t+1)) for every step t + 1 of the trace
    starts = [(step.phi_after - step.gain, step.gain) for step in steps]
    series = [0]
    for n, step in enumerate(steps, 1):
        lower = max(step.phi_after, series[-1])
        upper = min(inst.num_pairs, n * inst.capacity, series[-1] + inst.capacity,
                    min(phi + n * gain for phi, gain in starts))
        if lower < upper:
            lower = max_assignment_for_n(inst, fs, n, limit, lower - 1, upper).value
        series.append(lower)
    return series[1:]


def greedy_gap_series(inst: PlacementInstance, fs: FeasibilitySets, steps, limit: int,
                      over: str = ENUMERATION_LIMIT) -> list[tuple[int, float]]:
    """Per greedy step n: (phi_opt(n), (phi_opt(n) - phi_greedy(n)) / phi_opt(n))."""
    best = max_served_series(inst, fs, steps, limit, over)
    return [(b, (b - s.phi_after) / b) for b, s in zip(best, steps)]


def compare_to_greedy(inst: PlacementInstance, fs: FeasibilitySets, steps, limit: int,
                      over: str = ENUMERATION_LIMIT):
    """(optimum, greedy/optimum ratio, per-step relative differences) of a
    complete greedy run's ``steps``.

    The last step n has phi_opt(n) = |P|, and as phi_opt is monotone the
    optimum is the first n with phi_opt(n) = |P| (0 for a run without steps)."""
    series = greedy_gap_series(inst, fs, steps, limit, over)
    opt = next((n for n, (best, _) in enumerate(series, 1) if best == inst.num_pairs), 0)
    return opt, len(steps) / opt if opt else None, [rel for _, rel in series]


def _weighted_cover_exists(members, demands, candidates_of, kappa: Fraction) -> dict | None:
    """Exhaustive assignment search with a residual-capacity bound.

    ``members`` are request indices, placed by descending demand so the
    hardest requests branch first. The search fails at once when the
    candidates' total capacity cannot hold the total demand; placing a
    request lowers the capacity left and the demand left alike, so that
    bound is the same at every depth and is checked once.
    """
    residual = {u: kappa for j in members for u in candidates_of[j]}
    if len(residual) * kappa < sum(demands[j] for j in members):
        return None
    order = sorted(members, key=lambda j: (-demands[j], j))
    chosen: dict[int, int] = {}
    return chosen if _place(order, demands, candidates_of, residual, chosen) else None


def _place(order, demands, candidates_of, residual, chosen: dict) -> bool:
    """Place the requests of ``order`` from index ``len(chosen)`` on, each on
    a candidate with room left, trying its candidates in their listed order.
    True leaves the placement in ``chosen``; False leaves ``residual`` and
    ``chosen`` as they were. One frame per request: at most
    ``WEIGHTED_REQUEST_LIMIT`` deep."""
    if len(chosen) == len(order):
        return True
    j = order[len(chosen)]
    for u in candidates_of[j]:
        if residual[u] >= demands[j]:
            residual[u] -= demands[j]
            chosen[j] = u
            if _place(order, demands, candidates_of, residual, chosen):
                return True
            residual[u] += demands[j]
            del chosen[j]
    return False


def exact_weighted_min_middleboxes(requests, candidates_of, kappa,
                                   limit: int = DEFAULT_WEIGHTED_LIMIT) -> ExactResult:
    """Minimum middlebox count for an integral assignment at true capacity.

    ``candidates_of[j]`` lists the feasible locations of ``requests[j]``.
    Unlike the rounded approximation there is no augmentation: each request
    fits within ``kappa`` on its box, so sizes start at total demand / kappa.
    """
    universe = _check_limit(sorted({u for cands in candidates_of for u in cands}), limit)
    if len(candidates_of) > WEIGHTED_REQUEST_LIMIT:
        raise TooLarge(f"{len(candidates_of)} requests exceed the weighted oracle's "
                       f"fixed limit of {WEIGHTED_REQUEST_LIMIT}")
    kappa = Fraction(kappa)
    demands = [Fraction(r.demand) for r in requests]
    members = list(range(len(requests)))
    if not members:
        return ExactResult(0, (), {}, 0)
    for j in members:
        if demands[j] > kappa or not candidates_of[j]:
            raise Infeasible(f"request {j} cannot be served by any middlebox")
    explored = 0
    for k in range(max(1, math.ceil(sum(demands) / kappa)), len(universe) + 1):
        for subset in combinations(universe, k):
            explored += 1
            allowed = [tuple(u for u in candidates_of[j] if u in subset)
                       for j in members]
            if any(not a for a in allowed):
                continue
            witness = _weighted_cover_exists(members, demands, allowed, kappa)
            if witness is not None:
                return ExactResult(k, subset, witness, explored)
    raise Infeasible("no candidate subset admits a feasible integral assignment")
