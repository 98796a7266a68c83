"""Exact brute-force baselines at desk scale.

These replace integer programs for acceptance testing and ratio metrics:
subset enumeration ordered by cardinality (so the first full cover is the
minimum), with cheap capacity bounds pruning hopeless branches. No external
ILP solver is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exceptions import Infeasible, TooLarge
from .instance import FeasibilitySets, PlacementInstance
from .matching import Assignment

DEFAULT_LIMIT = 16
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
    universe = list(fs.candidates)
    if len(universe) > limit:
        raise TooLarge(f"{len(universe)} candidates exceed enumeration limit {limit}")
    target = inst.num_pairs
    explored = 0
    if target == 0:
        return ExactResult(0, (), {}, 0)

    full = Assignment(fs, inst.capacity)
    for u in universe:
        full.add_middlebox(u)
    explored += 1
    if full.num_assigned < target:
        raise Infeasible(
            f"only {full.num_assigned} of {target} pairs coverable with all candidates"
        )
    for k in range(1, len(universe) + 1):
        if k * inst.capacity < target:
            continue
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
    state of the subset so far, the next index to branch on, slots left);
    a frame is done when too few candidates remain to fill its slots or
    even full boxes in every slot cannot beat the best."""
    best_value, best_state, explored = floor, None, 0
    stack = [(Assignment(fs, capacity), 0, n)]
    while stack:
        state, idx, slots = stack[-1]
        if (len(universe) - idx < slots or best_value >= cap
                or state.num_assigned + slots * capacity <= best_value):
            stack.pop()
            continue
        stack[-1] = state, idx + 1, slots
        trial = state.clone()
        trial.add_middlebox(universe[idx])
        explored += 1
        if slots > 1:
            stack.append((trial, idx + 1, slots - 1))
        elif trial.num_assigned > best_value:
            best_value, best_state = trial.num_assigned, trial
    return best_state, explored


def max_assignment_for_n(inst: PlacementInstance, fs: FeasibilitySets, n: int,
                         limit: int = DEFAULT_LIMIT) -> ExactResult:
    """Maximum number of served pairs over all middlebox sets of size n."""
    universe = list(fs.candidates)
    if len(universe) > limit:
        raise TooLarge(f"{len(universe)} candidates exceed enumeration limit {limit}")
    if n < 0:
        raise ValueError("n must be >= 0")
    n = min(n, len(universe))
    cap = min(inst.num_pairs, n * inst.capacity)
    best, explored = None, 0
    if n > 0:
        best, explored = _best_of_size(fs, inst.capacity, universe, n, 0, cap)
    witness = best or Assignment(fs, inst.capacity)
    return ExactResult(witness.num_assigned, witness.active, witness.assignment(), explored)


def _weighted_cover_exists(members, demands, candidates_of, kappa: Fraction) -> dict | None:
    """Exhaustive assignment search with a residual-capacity bound.

    ``members`` are request indices sorted by descending demand so the
    hardest requests branch first. The search fails at once when the
    candidates' total capacity cannot hold the total demand; placing a
    request lowers the capacity left and the demand left alike, so that
    bound is the same at every depth and is checked once. Depth-first on an
    explicit stack: ``stack[k]`` is the index of the next candidate to try
    for the k-th request.
    """
    residual = {m: kappa for m in {u for j in members for u in candidates_of[j]}}
    if len(residual) * kappa < sum(demands[j] for j in members):
        return None
    order = sorted(members, key=lambda j: (-demands[j], j))
    chosen: dict[int, int] = {}
    stack = [0]
    while stack:
        k = len(stack) - 1
        if k == len(order):
            return dict(chosen)
        j, i = order[k], stack[k]
        us = candidates_of[j]
        while i < len(us) and not (us[i] in residual and residual[us[i]] >= demands[j]):
            i += 1
        if i == len(us):
            stack.pop()
            if stack:  # undo the choice of the request before
                q = order[k - 1]
                residual[chosen.pop(q)] += demands[q]
            continue
        residual[us[i]] -= demands[j]
        chosen[j] = us[i]
        stack[k] = i + 1
        stack.append(0)
    return None


def exact_weighted_min_middleboxes(requests, candidates_of, kappa,
                                   limit: int = 12) -> ExactResult:
    """Minimum middlebox count for an integral assignment at true capacity.

    ``candidates_of[j]`` lists the feasible locations of ``requests[j]``.
    Unlike the rounded approximation there is no augmentation here: every
    request must fit within ``kappa`` on its middlebox.
    """
    universe = sorted({u for cands in candidates_of for u in cands})
    if len(universe) > limit:
        raise TooLarge(f"{len(universe)} candidates exceed enumeration limit {limit}")
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
    for k in range(1, len(universe) + 1):
        for subset in combinations(universe, k):
            explored += 1
            allowed = [tuple(u for u in candidates_of[j] if u in subset)
                       for j in members]
            if any(not a for a in allowed):
                continue
            if sum(demands) > kappa * k:
                continue
            witness = _weighted_cover_exists(members, demands, allowed, kappa)
            if witness is not None:
                return ExactResult(k, subset, witness, explored)
    raise Infeasible("no candidate subset admits a feasible integral assignment")
