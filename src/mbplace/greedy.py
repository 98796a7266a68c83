"""Greedy incremental deployment: always add the location with the largest
marginal gain in served pairs.

Submodularity of the assignment function makes the greedy count at most
``(1 + ln(min(capacity, |P|))) * OPT``. It also makes a gain measured at an
earlier step an upper bound on the gain now, so ``lazy_pick`` (Minoux's
accelerated greedy, shared with the weighted generalized greedy) keeps the
candidates in a heap keyed on their upper bound and re-evaluates only the
top one until a candidate whose gain is current stays on top. A gain is
counted by ``matching.count_gain``, the engine's grow loop run on copies
of its pair bitsets; only the winner is deployed through the canonical
``Assignment.add_middlebox``, whose gain must equal the counted one.
One location is committed per step, so deployed locations are never
revisited and served pairs never drop out.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .exceptions import PlacementError, Stalled
from .instance import FeasibilitySets, PlacementInstance
from .matching import Assignment, count_gain


@dataclass(frozen=True)
class GreedyStep:
    iteration: int
    chosen: int
    gain: int
    phi_after: int


@dataclass
class GreedyTrace:
    """Per-iteration record plus the live assignment reached so far.

    ``heap`` holds the undeployed candidates' gain bounds for the next step
    (see ``candidate_heap``), so a continued trace keeps what earlier steps
    measured.
    """

    steps: list[GreedyStep]
    engine: Assignment
    heap: list[tuple[int, int, int]]

    @property
    def middleboxes(self) -> list[int]:
        return [s.chosen for s in self.steps]

    @property
    def complete(self) -> bool:
        return self.engine.num_assigned == self.engine.fs.num_pairs


def candidate_heap(engine: Assignment) -> list[tuple[int, int, int]]:
    """``lazy_pick`` heap over the undeployed candidates of ``engine``,
    stamped -1. A bound starts at ``min(capacity, |S_m|)``, not at the free
    pairs of S_m: handover paths may end at a free pair of another
    middlebox. Candidates with an empty S_m can never gain and are left out.
    """
    return sorted((-min(engine.capacity, mask.bit_count()), m, -1)
                  for m, mask in engine.fs.masks.items() if m not in engine.load and mask)


def lazy_pick(heap: list, step: int, evaluate):
    """Pop the largest gain, ties to the smallest id, from a heap of
    ``(-bound, id, stamp)``: refresh the top entry with ``evaluate(id) ->
    (gain, state)`` and stamp it ``step``, or drop it for good at gain 0,
    until a fresh entry is on top (no stale bound of a submodular objective
    beats it). Returns ``(id, gain, state)``, or None if the heap runs empty;
    ``state`` is what ``evaluate`` returned with the winning gain (the
    weighted greedy's LP solution, None for the unweighted one).
    """
    best = (math.inf,)  # the smallest (-gain, id, state) evaluated in this step
    while heap:
        neg_bound, i, stamp = heap[0]
        if stamp == step:
            heapq.heappop(heap)
            return i, -neg_bound, best[2]
        gained, state = evaluate(i)
        if gained == 0:
            heapq.heappop(heap)
            continue
        heapq.heapreplace(heap, (-gained, i, step))
        best = min(best, (-gained, i, state))
    return None


def greedy_step(engine: Assignment, heap: list[tuple[int, int, int]] | None = None):
    """One greedy iteration: returns (chosen, gain) and mutates the engine.

    Picks the largest gain, ties to the smallest id, through ``lazy_pick``
    with gains from ``count_gain``. ``heap`` comes from ``candidate_heap``
    (built afresh when omitted) and is updated in place. The winner is
    deployed by ``engine.add_middlebox``.

    Raises Stalled when no candidate improves the assignment although free
    pairs remain (e.g. |P| > capacity * |U|), and PlacementError if the
    deployed gain differs from the counted one.
    """
    num_free = engine.fs.num_pairs - engine.num_assigned
    if num_free == 0:
        raise ValueError("all pairs are already assigned")
    heap = candidate_heap(engine) if heap is None else heap
    picked = lazy_pick(heap, len(engine.load), lambda m: (count_gain(engine, m), None))
    if picked is None:
        raise Stalled(f"no candidate can serve any of the {num_free} remaining pairs")
    m, gained, _ = picked
    deployed = engine.add_middlebox(m)
    if deployed != gained:
        raise PlacementError(f"middlebox {m} gained {deployed} pairs, {gained} were counted")
    return m, gained


def _run(trace: GreedyTrace, budget: int | None) -> None:
    stop = math.inf if budget is None else len(trace.steps) + budget
    while not trace.complete and len(trace.steps) < stop:
        chosen, gain = greedy_step(trace.engine, trace.heap)
        trace.steps.append(GreedyStep(len(trace.steps), chosen, gain, trace.engine.num_assigned))


def greedy_place(inst: PlacementInstance, fs: FeasibilitySets) -> GreedyTrace:
    """Deploy middleboxes greedily until every pair is served."""
    trace = greedy_prefix(inst, fs)
    _run(trace, None)
    return trace


def incremental_extend(trace: GreedyTrace, budget: int) -> GreedyTrace:
    """Continue a trace by up to ``budget`` further steps.

    The input trace is left untouched (its engine and heap are copied), so
    earlier prefixes stay valid; greedy is history-deterministic, hence
    extending a prefix reproduces the corresponding slice of the full run.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    extended = GreedyTrace(list(trace.steps), trace.engine.clone(), list(trace.heap))
    _run(extended, budget)
    return extended


def greedy_prefix(inst: PlacementInstance, fs: FeasibilitySets) -> GreedyTrace:
    """Empty trace to be grown step by step via incremental_extend."""
    engine = Assignment(fs, inst.capacity)
    return GreedyTrace([], engine, candidate_heap(engine))


def greedy_approximation_bound(capacity: int, num_pairs: int) -> float:
    """Guarantee factor ``1 + ln(min(capacity, |P|))`` on the greedy count."""
    top = min(capacity, num_pairs)
    if top < 1:
        return 1.0
    return 1.0 + math.log(top)
