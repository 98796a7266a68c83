"""Greedy incremental deployment: always add the location with the largest
marginal gain in served pairs.

Submodularity of the assignment function makes the greedy count at most
``(1 + ln(min(capacity, |P|))) * OPT``. It also makes a gain measured at an
earlier step an upper bound on the gain now, so gains are evaluated lazily
(Minoux's accelerated greedy): candidates wait in a heap keyed on their
upper bound, and only the top one is re-evaluated, on a cloned snapshot of
the live assignment, until a candidate whose gain is current stays on top.
One location is committed per step, so deployed locations are never
revisited and served pairs never drop out.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .exceptions import Stalled
from .instance import FeasibilitySets, PlacementInstance
from .matching import Assignment


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
    total_pairs: int
    heap: list[tuple[int, int, int]]

    @property
    def middleboxes(self) -> list[int]:
        return [s.chosen for s in self.steps]

    @property
    def complete(self) -> bool:
        return self.engine.num_assigned == self.total_pairs


def candidate_heap(engine: Assignment) -> list[tuple[int, int, int]]:
    """Lazy-greedy heap of ``(-bound, id, stamp)`` over the undeployed
    candidates of ``engine``.

    ``bound`` is an upper bound on the candidate's gain, at first
    ``min(capacity, |S_m|)`` (not the free pairs of S_m: handover paths may
    end at a free pair of another middlebox); ``stamp`` is the number of deployed middleboxes
    when the bound was measured as an actual gain, or -1 if it never was.
    Candidates with an empty S_m can never gain and are left out.
    """
    fs = engine.fs
    heap = [(-min(engine.capacity, len(fs.pairs_of[m])), m, -1)
            for m in fs.candidates if m not in engine.load and fs.pairs_of[m]]
    heapq.heapify(heap)
    return heap


def greedy_step(engine: Assignment, heap: list[tuple[int, int, int]] | None = None):
    """One greedy iteration: returns (chosen, gain) and mutates the engine.

    Picks the largest gain, ties to the smallest id. ``heap`` comes from
    ``candidate_heap`` (built afresh when omitted) and is updated in place.
    The top entry is re-evaluated unless its gain was measured on the
    current engine; once such an entry is on top, no other candidate can
    beat it, because every other bound is at most its gain and an equal
    bound sorts after it by id. A candidate that gains nothing is dropped
    for good, since its gain can only shrink.

    Raises Stalled when no candidate improves the assignment although free
    pairs remain (e.g. |P| > capacity * |U|).
    """
    num_free = engine.fs.num_pairs - engine.num_assigned
    if num_free == 0:
        raise ValueError("all pairs are already assigned")
    if heap is None:
        heap = candidate_heap(engine)
    step = len(engine.load)
    best_state = None
    while heap:
        neg_bound, m, stamp = heap[0]
        if stamp == step:
            heapq.heappop(heap)
            # Adopt the winning snapshot; identical to replaying its augmentations.
            engine.mu = best_state.mu
            engine.load = best_state.load
            engine.num_assigned = best_state.num_assigned
            return m, -neg_bound
        trial = engine.clone()
        gained = trial.add_middlebox(m)
        if gained == 0:
            heapq.heappop(heap)
            continue
        heapq.heapreplace(heap, (-gained, m, step))
        if best_state is None or (-gained, m) < best_key:
            best_key, best_state = (-gained, m), trial
    raise Stalled(f"no candidate can serve any of the {num_free} remaining pairs")


def _run(trace: GreedyTrace, budget: int | None) -> None:
    done = 0
    while not trace.complete:
        if budget is not None and done >= budget:
            break
        chosen, gain = greedy_step(trace.engine, trace.heap)
        trace.steps.append(GreedyStep(len(trace.steps), chosen, gain, trace.engine.num_assigned))
        done += 1


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
    if budget < 1:
        raise ValueError("budget must be >= 1")
    extended = GreedyTrace(list(trace.steps), trace.engine.clone(), trace.total_pairs,
                           list(trace.heap))
    _run(extended, budget)
    return extended


def greedy_prefix(inst: PlacementInstance, fs: FeasibilitySets) -> GreedyTrace:
    """Empty trace to be grown step by step via incremental_extend."""
    engine = Assignment(fs, inst.capacity)
    return GreedyTrace([], engine, inst.num_pairs, candidate_heap(engine))


def greedy_approximation_bound(capacity: int, num_pairs: int) -> float:
    """Guarantee factor ``1 + ln(min(capacity, |P|))`` on the greedy count."""
    top = min(capacity, num_pairs)
    if top < 1:
        return 1.0
    return 1.0 + math.log(top)
