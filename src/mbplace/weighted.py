"""Weighted and group requests: fractional LP, lazy generalized greedy, rounding.

Requests carry arbitrary positive demands and may be node pairs or whole
node groups (a group is served by one location feasible for every member
pair). The maximum fractional assignment LP is solved exactly by a
max-profit flow reduction (substituting ``y = demand * x`` turns the LP into
a transportation problem with per-unit profit ``1/demand`` on request arcs),
so objectives are rationals and the ``f(S) > n - 1`` stopping guard needs no
tolerance. The flow network is layered, source -> requests -> boxes -> sink,
numbered in that order: ``_flow`` breaks ties by node index, so the
numbering fixes ``x``. Rounding builds the standard slot graph (one slot per
unit of fractional load, filled in non-increasing demand order) and matches
requests to slots, which caps every load at ``2 * capacity``. The
request/candidate relation is the pairs' ``FeasibilitySets``, from
``instance.feasible``: a request with two members in different components
has no candidate, and ``preprocess`` names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._flow import FlowNetwork
from .exceptions import DomainError, Infeasible, PlacementError, RoundingFailed
from .greedy import bound_heap, lazy_pick
from .instance import FeasibilitySets, check_domain, feasible, validate_assignment
from .netgraph import Network, is_number

ZERO = Fraction(0)


@dataclass(frozen=True)
class Request:
    """A demand unit: a communicating pair or a node group sharing one box."""

    kind: str
    nodes: tuple[int, ...]
    demand: float

    def __post_init__(self):
        if self.kind not in ("pair", "group"):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("request nodes must be distinct")
        if self.kind == "pair" and len(self.nodes) != 2:
            raise ValueError("pair request needs exactly two nodes")
        if self.kind == "group" and len(self.nodes) < 2:
            raise ValueError("group request needs at least two nodes")
        if not (is_number(self.demand) and 0 < self.demand < math.inf):
            raise ValueError(f"demand must be a positive finite number, got {self.demand!r}")

    @classmethod
    def pair(cls, s: int, t: int, demand: float) -> "Request":
        return cls("pair", (min(s, t), max(s, t)), demand)

    @classmethod
    def group(cls, nodes, demand: float) -> "Request":
        return cls("group", tuple(sorted(nodes)), demand)


def build_request_feasibility(requests, dist: np.ndarray, candidates, *,
                              stretch: float | None = None,
                              route_limit: float | None = None) -> FeasibilitySets:
    """The request/candidate feasibility relation over the sorted candidates.

    A candidate serves a group iff it serves every member pair of the group
    under the same bound as plain pairs (``instance.feasible``).
    """
    if (stretch is None) == (route_limit is None):
        raise ValueError("exactly one of stretch / route_limit must be set")
    return feasible([r.nodes for r in requests], dist, candidates, stretch, route_limit)


@dataclass
class Preprocessed:
    """Requests surviving preprocessing, with their feasibility relation."""

    kept: tuple[int, ...]
    rejected: tuple[int, ...]
    demands: dict[int, Fraction]
    fs: FeasibilitySets
    kappa: Fraction


def preprocess(requests, fs: FeasibilitySets, kappa) -> Preprocessed:
    """Reject oversized requests and fail fast on uncoverable ones.

    Requests with demand above the capacity are rejected (reported, never
    silently dropped). Raises Infeasible, naming them, when a kept request
    has no feasible candidate at all.
    """
    kappa = Fraction(kappa)
    kept: list[int] = []
    rejected: list[int] = []
    demands: dict[int, Fraction] = {}
    for j, req in enumerate(requests):
        p = Fraction(req.demand)
        if p > kappa:
            rejected.append(j)
            continue
        kept.append(j)
        demands[j] = p
    uncoverable = [j for j in fs.uncovered() if j in demands]
    if uncoverable:
        named = ", ".join(f"{j} {requests[j].nodes}" for j in uncoverable)
        raise Infeasible(f"{len(uncoverable)} request(s) have no feasible candidate: {named}",
                         uncoverable)
    return Preprocessed(
        kept=tuple(kept),
        rejected=tuple(rejected),
        demands=demands,
        fs=fs,
        kappa=kappa,
    )


@dataclass
class FractionalAssignment:
    """Solution of the maximum fractional assignment LP on a candidate set."""

    x: dict[tuple[int, int], Fraction]

    @property
    def objective(self) -> Fraction:
        """The LP value, the sum of ``x``: the flow's profit, since a unit of
        flow earns ``1/demand`` on its path's one cost-bearing arc, the first."""
        return sum(self.x.values(), ZERO)


def solve_fractional(active, prep: Preprocessed) -> FractionalAssignment:
    """Optimal fractional assignment restricted to the candidate set ``active``.

    Exact via max-profit flow: request arcs carry capacity ``demand`` and
    profit ``1/demand``, middlebox arcs capacity ``kappa``; ``x`` is the
    flow on each request-to-box arc over the request's demand. Source arc j
    costs ``top - 1/p_j``, ``top = 1 / min p``, not ``-1/p_j``: every simple
    residual path from the source has one cost-bearing arc, its first, so
    each costs ``top`` more, the flow takes the same paths and no cost is < 0.
    """
    active = tuple(sorted(set(active)))
    boxes = {u: prep.fs.masks.get(u, 0) for u in active}
    touched = 0
    for mask in boxes.values():
        touched |= mask
    jobs = [j for j in prep.kept if touched >> j & 1]
    if not jobs:
        return FractionalAssignment({})
    num_nodes = 2 + len(jobs) + len(active)
    source, sink = 0, num_nodes - 1
    net = FlowNetwork(num_nodes)
    edge_arcs: dict[tuple[int, int], int] = {}
    top = 1 / min(prep.demands[j] for j in jobs)
    for pos, j in enumerate(jobs):
        p = prep.demands[j]
        net.add_arc(source, 1 + pos, p, top - 1 / p)
        for i, (u, mask) in enumerate(boxes.items()):
            if mask >> j & 1:
                edge_arcs[(u, j)] = net.add_arc(1 + pos, 1 + len(jobs) + i, p)
    for i in range(len(active)):
        net.add_arc(1 + len(jobs) + i, sink, prep.kappa)
    net.min_cost_max_flow(source, sink)
    x = {}
    for (u, j), ai in edge_arcs.items():
        flow = net.residual[ai ^ 1]
        if flow > 0:
            x[(u, j)] = flow / prep.demands[j]
    return FractionalAssignment(x)


def generalized_greedy(prep: Preprocessed) -> tuple[list[int], FractionalAssignment]:
    """Open locations by maximum fractional gain until ``f(S) > n - 1``,
    ties to the smallest id, through ``greedy.lazy_pick``: f is monotone
    submodular, and a candidate's gain is at most the number of kept
    requests it serves (every ``x_j <= 1``). Raises Infeasible when no
    unopened candidate raises f any further and the guard is still unmet.
    """
    n = len(prep.kept)
    kept = sum(1 << j for j in prep.kept)
    heap = bound_heap((u, (mask & kept).bit_count()) for u, mask in prep.fs.masks.items())
    chosen: list[int] = []
    value, frac = ZERO, FractionalAssignment({})  # f(chosen) and the LP solution reaching it
    trials: dict[int, FractionalAssignment] = {}  # this step's LP solution per evaluated candidate

    def evaluate(u):
        trials[u] = solve_fractional(chosen + [u], prep)
        return trials[u].objective - value

    while value <= n - 1:
        picked = lazy_pick(heap, len(chosen), evaluate)
        if picked is None:
            raise Infeasible(f"no unopened candidate raises the fractional objective "
                             f"{float(value):.6g} above {n - 1}")
        u, gain = picked
        chosen.append(u)
        value, frac = value + gain, trials[u]
        trials.clear()
    return chosen, frac


@dataclass
class RoundedSolution:
    """Integral assignment obtained from the slot-graph rounding; ``load``
    has an entry for every active box, zero for a box that got nothing."""

    assignment: dict[int, int]
    load: dict[int, Fraction]


def _build_slots(frac: FractionalAssignment, prep: Preprocessed):
    """Slot graph (Shmoys & Tardos 1993): machine u gets ceil(sum_j x_uj)
    unit slots, filled with its requests in non-increasing demand order, so
    a request whose share of the load runs from c to c + x_uj fills slots
    floor(c) .. ceil(c + x_uj) - 1. Returns (slot -> machine, job -> slots)."""
    per_machine: dict[int, list[int]] = {}
    for u, j in frac.x:
        per_machine.setdefault(u, []).append(j)
    slot_owner: list[int] = []
    job_slots: dict[int, list[int]] = {}
    for u in sorted(per_machine):
        first, c = len(slot_owner), ZERO
        for j in sorted(per_machine[u], key=lambda j: (-prep.demands[j], j)):
            x_uj = frac.x[(u, j)]
            job_slots.setdefault(j, []).extend(
                range(first + math.floor(c), first + math.ceil(c + x_uj)))
            c += x_uj
        slot_owner.extend([u] * math.ceil(c))
    return slot_owner, job_slots


def _match_slot(j: int, job_slots, matched_slot: dict) -> bool:
    """Kuhn's augmenting search from request j over the slot graph: a
    depth-first search, each slot tried at most once, that re-matches the
    requests on the found path (each to the slot it was reached through).
    ``stack[i]`` is a request with its untried slots and ``taken[i]`` the
    slot through which ``stack[i + 1]`` was reached."""
    banned: set[int] = set()
    stack = [(j, iter(job_slots.get(j, ())))]
    taken: list[int] = []
    while stack:
        job, slots = stack[-1]
        slot = next((s for s in slots if s not in banned), None)
        if slot is None:
            stack.pop()
            if taken:
                taken.pop()
            continue
        banned.add(slot)
        taken.append(slot)
        if slot in matched_slot:
            owner = matched_slot[slot]
            stack.append((owner, iter(job_slots.get(owner, ()))))
            continue
        for (job, _), slot in zip(stack, taken):
            matched_slot[slot] = job
        return True
    return False


def round_solution(frac: FractionalAssignment, active, prep: Preprocessed) -> RoundedSolution:
    """Round a fractional assignment with objective above ``n - 1``.

    Every kept request ends up integrally assigned to a machine it touched
    fractionally, and each machine receives at most one request per slot:
    load <= fractional load + largest touching demand <= 2 * kappa.
    """
    slot_owner, job_slots = _build_slots(frac, prep)
    matched_slot: dict[int, int] = {}  # slot -> request
    for j in prep.kept:
        if not _match_slot(j, job_slots, matched_slot):
            raise RoundingFailed(
                f"request {j} cannot be matched to a slot; fractional objective "
                f"{float(frac.objective):.6g} must exceed {len(prep.kept) - 1}"
            )
    assignment = dict(sorted((j, slot_owner[slot]) for slot, j in matched_slot.items()))
    load: dict[int, Fraction] = {u: ZERO for u in sorted(set(active))}
    for j, u in assignment.items():
        load[u] = load.get(u, ZERO) + prep.demands[j]
    return RoundedSolution(assignment=assignment, load=load)


@dataclass
class WeightedInstance:
    """Weighted placement instance: requests with demands over a network."""

    net: Network
    dist: np.ndarray
    requests: list[Request]
    candidates: tuple[int, ...]
    capacity: float
    stretch: float | None = None
    route_limit: float | None = None
    metric: str = "weight"

    def __post_init__(self):
        if not (is_number(self.capacity) and 0 < self.capacity < math.inf):
            raise DomainError(f"capacity must be a positive finite number, got {self.capacity!r}")
        check_domain(self.net.num_nodes, [u for r in self.requests for u in r.nodes],
                     self.candidates, self.stretch, self.route_limit)
        self.candidates = tuple(sorted(set(self.candidates)))  # after the check: {1, True} == {1}


def solve_weighted(winst: WeightedInstance):
    """Full pipeline: feasibility, preprocessing, greedy, rounding, validated:
    kept and rejected split the requests by demand against kappa, every kept
    request is served at a feasible box, and loads match a recount and stay
    ``<= 2 * kappa``.

    Returns (prep, chosen set, fractional solution, rounded solution).
    """
    rfs = build_request_feasibility(
        winst.requests, winst.dist, winst.candidates,
        stretch=winst.stretch, route_limit=winst.route_limit,
    )
    prep = preprocess(winst.requests, rfs, winst.capacity)
    chosen, frac = generalized_greedy(prep)
    rounded = round_solution(frac, chosen, prep)
    demands = [Fraction(r.demand) for r in winst.requests]
    kappa = Fraction(winst.capacity)
    if sorted(prep.kept + prep.rejected) != list(range(len(demands))):
        raise PlacementError("validation: kept and rejected do not partition the requests")
    if any(demands[j] > kappa for j in prep.kept) or \
            any(demands[j] <= kappa for j in prep.rejected):
        raise PlacementError("validation: a request is kept or rejected against its demand")
    validate_assignment(
        [r.nodes for r in winst.requests], demands, rounded.assignment, rounded.load,
        winst.dist, winst.stretch, winst.route_limit,
        required=prep.kept, load_limit=2 * kappa,
    )
    return prep, chosen, frac, rounded


def relative_loads(prep: Preprocessed, rounded: RoundedSolution) -> tuple[dict[str, float], int]:
    """Each active box's load over kappa, keyed by the box id as a string, and
    the number of boxes loaded above kappa."""
    kappa = float(prep.kappa)
    rel = {str(u): float(load) / kappa for u, load in sorted(rounded.load.items())}
    return rel, sum(1 for v in rel.values() if v > 1.0)
