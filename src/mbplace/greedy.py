"""Greedy incremental deployment: always add the location with the largest
marginal gain in served pairs.

Submodularity of the assignment function makes the greedy count at most
``(1 + ln(min(capacity, |P|))) * OPT``. It also makes a gain measured at an
earlier step an upper bound on the gain now, so ``lazy_pick`` (Minoux's
accelerated greedy, shared with the weighted generalized greedy) keeps the
candidates in a heap keyed on their upper bound and re-evaluates only the
top one until a candidate whose gain is current stays on top. Before a
count, the top key is cut to the free pairs the candidate's augmenting paths
could end at (``free_pair_bound``), and a candidate that bound puts below
the top is not counted at all. A gain is counted by deploying the candidate
on a clone of the engine, through the same ``Assignment.add_middlebox`` that
then deploys the winner on the engine itself. One location is committed per
step, so deployed locations are never revisited and served pairs never drop
out. ``solve_unweighted`` is the validated run that every front end reports.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .exceptions import PlacementError, Stalled
from .instance import FeasibilitySets, PlacementInstance, check_total_capacity, validate_assignment
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
    heap: list[tuple[int, int, int]]

    @property
    def middleboxes(self) -> list[int]:
        return [s.chosen for s in self.steps]

    @property
    def complete(self) -> bool:
        return self.engine.num_assigned == self.engine.fs.num_pairs


def bound_heap(bounds) -> list[tuple[int, int, int]]:
    """``lazy_pick`` heap over ``(id, bound)`` items, each stamped -1 (not
    yet evaluated). An item with bound 0 can never gain and is left out."""
    return sorted((-bound, i, -1) for i, bound in bounds if bound)


def candidate_heap(engine: Assignment) -> list[tuple[int, int, int]]:
    """``bound_heap`` over the undeployed candidates of ``engine``. A bound
    starts at ``min(capacity, |S_m|)``, not at the free pairs of S_m:
    handover paths may end at a free pair of another middlebox.
    """
    return bound_heap((m, min(engine.capacity, mask.bit_count()))
                      for m, mask in engine.fs.masks.items() if m not in engine.load)


def lazy_pick(heap: list, step: int, evaluate, bound=None):
    """Pop the largest gain, ties to the smallest id, from a ``bound_heap`` of
    ``(-key, id, stamp)``, every key an upper bound on its candidate's gain.
    Until a fresh entry is on top (no upper bound beats it), take the top
    entry: if ``bound(id)``, a cheap upper bound on the gain now, is below
    its key, re-key it and leave its stamp, so it stays stale; otherwise
    refresh it with ``evaluate(id) -> gain`` and stamp it ``step``. An entry
    whose bound or gain is 0 is dropped for good. Returns ``(id, gain)``, or
    None if the heap runs empty.

    Raises PlacementError if a gain exceeds its key: a stale gain or a bound
    that does not bound, as when the objective is not submodular.
    """
    while heap:
        neg_key, i, stamp = heap[0]
        if stamp == step:
            heapq.heappop(heap)
            return i, -neg_key
        if bound is not None:
            cap = bound(i)
            if cap < -neg_key:
                if cap == 0:
                    heapq.heappop(heap)
                else:
                    heapq.heapreplace(heap, (-cap, i, stamp))
                continue
        gained = evaluate(i)
        if gained > -neg_key:
            raise PlacementError(f"candidate {i} gained {gained}, above its bound {-neg_key}")
        if gained == 0:
            heapq.heappop(heap)
            continue
        heapq.heapreplace(heap, (-gained, i, step))
    return None


def free_pair_bound(engine: Assignment):
    """``m -> |free & (S_m | S_y of every deployed y)|``, an upper bound on
    m's gain on ``engine``: each augmenting path from m ends at a free pair
    of its own, which the last box on the path, m or a deployed y, serves."""
    masks, free = engine.fs.masks, engine.free
    reach = 0
    for y in engine.load:
        reach |= masks[y]
    reach &= free
    return lambda m: (free & masks[m] | reach).bit_count()


def greedy_step(engine: Assignment, heap: list[tuple[int, int, int]] | None = None):
    """One greedy iteration: returns (chosen, gain) and mutates the engine.

    Picks the largest gain, ties to the smallest id, through ``lazy_pick``
    with each gain counted by ``add_middlebox`` on a clone of the engine,
    skipping the counts that ``free_pair_bound`` already rules out. ``heap``
    comes from ``candidate_heap`` (built afresh when omitted) and is updated
    in place. The winner is deployed by ``engine.add_middlebox``.

    Raises Stalled when no candidate improves the assignment although free
    pairs remain (e.g. |P| > capacity * |U|).
    """
    num_free = engine.fs.num_pairs - engine.num_assigned
    if num_free == 0:
        raise ValueError("all pairs are already assigned")
    heap = candidate_heap(engine) if heap is None else heap
    picked = lazy_pick(heap, len(engine.load), lambda m: engine.clone().add_middlebox(m),
                       free_pair_bound(engine))
    if picked is None:
        raise Stalled(f"no candidate can serve any of the {num_free} remaining pairs")
    engine.add_middlebox(picked[0])
    return picked


def _run(trace: GreedyTrace, budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    stop = math.inf if budget is None else len(trace.steps) + budget
    while not trace.complete and len(trace.steps) < stop:
        chosen, gain = greedy_step(trace.engine, trace.heap)
        trace.steps.append(GreedyStep(len(trace.steps), chosen, gain, trace.engine.num_assigned))


def greedy_place(inst: PlacementInstance, fs: FeasibilitySets,
                 budget: int | None = None) -> GreedyTrace:
    """Deploy middleboxes greedily until every pair is served, or for at most
    ``budget`` steps: the same choices as the first steps of the full run,
    since served pairs are only ever handed over, never dropped. With
    ``budget`` 0 this is the empty trace that ``incremental_extend`` grows."""
    engine = Assignment(fs, inst.capacity)
    trace = GreedyTrace([], engine, candidate_heap(engine))
    _run(trace, budget)
    return trace


def solve_unweighted(inst: PlacementInstance, fs: FeasibilitySets,
                     budget: int | None = None) -> GreedyTrace:
    """``greedy_place`` on ``fs``, the feasibility of ``inst``, validated: each
    assigned pair is feasible at its box, loads are within capacity and match
    a recount, and a complete run serves every pair."""
    check_total_capacity(inst)
    trace = greedy_place(inst, fs, budget)
    validate_assignment(
        [(p.s, p.t) for p in inst.pairs], [1] * inst.num_pairs,
        trace.engine.assignment(), trace.engine.load,
        inst.dist, inst.stretch, inst.route_limit,
        required=range(inst.num_pairs) if trace.complete else (), load_limit=inst.capacity,
    )
    return trace


def incremental_extend(trace: GreedyTrace, budget: int) -> GreedyTrace:
    """Continue a trace by up to ``budget`` further steps.

    The input trace is left untouched (its engine and heap are copied), so
    earlier prefixes stay valid; greedy is history-deterministic, hence
    extending a prefix reproduces the corresponding slice of the full run.
    """
    extended = GreedyTrace(list(trace.steps), trace.engine.clone(), list(trace.heap))
    _run(extended, budget)
    return extended


def greedy_approximation_bound(capacity: int, num_pairs: int) -> float:
    """Guarantee factor ``1 + ln(min(capacity, |P|))`` on the greedy count."""
    top = min(capacity, num_pairs)
    if top < 1:
        return 1.0
    return 1.0 + math.log(top)
