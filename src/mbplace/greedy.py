"""Greedy incremental deployment: always add the location with the largest
marginal gain in served pairs.

Submodularity of the assignment function makes the greedy count at most
``(1 + ln(min(capacity, |P|))) * OPT``. Gains are evaluated one candidate
at a time on cloned snapshots of the live assignment, and one location is
committed per step, so deployed locations are never revisited and served
pairs never drop out.
"""

from __future__ import annotations

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
    """Per-iteration record plus the live assignment reached so far."""

    steps: list[GreedyStep]
    engine: Assignment
    total_pairs: int

    @property
    def middleboxes(self) -> list[int]:
        return [s.chosen for s in self.steps]

    @property
    def complete(self) -> bool:
        return self.engine.num_assigned == self.total_pairs


def greedy_step(engine: Assignment):
    """One greedy iteration: returns (chosen, gain) and mutates the engine.

    Candidates are tried in ascending id. A candidate's gain equals its final
    load, so it is bounded by min(capacity, |S_m|, free pairs); note it is NOT
    bounded by the free pairs within S_m alone, since handover paths may end
    at a free pair of another middlebox. Candidates whose bound cannot beat
    the running best are skipped, and only a strictly larger gain replaces
    the best, so ties go to the smallest id.

    Raises Stalled when no candidate improves the assignment although free
    pairs remain (e.g. |P| > capacity * |U|).
    """
    fs = engine.fs
    num_free = fs.num_pairs - engine.num_assigned
    if num_free == 0:
        raise ValueError("all pairs are already assigned")
    best_gain, best_m, best_state = 0, None, None
    for m in fs.candidates:
        if m in engine.load or min(engine.capacity, len(fs.pairs_of[m]), num_free) <= best_gain:
            continue
        trial = engine.clone()
        gained = trial.add_middlebox(m)
        if gained > best_gain:
            best_gain, best_m, best_state = gained, m, trial
    if best_m is None:
        raise Stalled(
            f"no candidate can serve any of the {num_free} remaining pairs"
        )
    # Adopt the winning snapshot; identical to replaying its augmentations.
    engine.mu = best_state.mu
    engine.load = best_state.load
    engine.num_assigned = best_state.num_assigned
    return best_m, best_gain


def _run(engine: Assignment, total_pairs: int, steps: list[GreedyStep],
         budget: int | None) -> None:
    done = 0
    while engine.num_assigned < total_pairs:
        if budget is not None and done >= budget:
            break
        chosen, gain = greedy_step(engine)
        steps.append(GreedyStep(len(steps), chosen, gain, engine.num_assigned))
        done += 1


def greedy_place(inst: PlacementInstance, fs: FeasibilitySets) -> GreedyTrace:
    """Deploy middleboxes greedily until every pair is served."""
    engine = Assignment(fs, inst.capacity)
    steps: list[GreedyStep] = []
    _run(engine, inst.num_pairs, steps, None)
    return GreedyTrace(steps, engine, inst.num_pairs)


def incremental_extend(trace: GreedyTrace, budget: int) -> GreedyTrace:
    """Continue a trace by up to ``budget`` further steps.

    The input trace is left untouched (its engine is cloned), so earlier
    prefixes stay valid; greedy is history-deterministic, hence extending a
    prefix reproduces the corresponding slice of the full run.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    engine = trace.engine.clone()
    steps = list(trace.steps)
    _run(engine, trace.total_pairs, steps, budget)
    return GreedyTrace(steps, engine, trace.total_pairs)


def greedy_prefix(inst: PlacementInstance, fs: FeasibilitySets) -> GreedyTrace:
    """Empty trace to be grown step by step via incremental_extend."""
    return GreedyTrace([], Assignment(fs, inst.capacity), inst.num_pairs)


def greedy_approximation_bound(capacity: int, num_pairs: int) -> float:
    """Guarantee factor ``1 + ln(min(capacity, |P|))`` on the greedy count."""
    top = min(capacity, num_pairs)
    if top < 1:
        return 1.0
    return 1.0 + math.log(top)
