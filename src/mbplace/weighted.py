"""Weighted and group requests: fractional LP, generalized greedy, rounding.

Requests carry arbitrary positive demands and may be node pairs or whole
node groups (a group is served by one location feasible for every member
pair). The maximum fractional assignment LP is solved exactly by a
max-profit flow reduction (substituting ``y = demand * x`` turns the LP into
a transportation problem with per-unit profit ``1/demand`` on request arcs),
so objectives are rationals and the ``f(S) > n - 1`` stopping guard needs no
tolerance. Rounding builds the standard slot graph (one slot per unit of
fractional load, filled in non-increasing demand order) and matches requests
to slots, which caps every load at ``2 * capacity``. The request/candidate
relation is the pairs' ``FeasibilitySets``, from ``instance.feasible``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._flow import FlowNetwork
from .exceptions import DomainError, Infeasible, RoundingFailed
from .instance import FeasibilitySets, check_domain, feasible
from .netgraph import DistanceMatrix, Network

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
        if not self.demand > 0:
            raise ValueError(f"demand must be positive, got {self.demand}")

    @classmethod
    def pair(cls, s: int, t: int, demand: float) -> "Request":
        return cls("pair", (min(s, t), max(s, t)), demand)

    @classmethod
    def group(cls, nodes, demand: float) -> "Request":
        return cls("group", tuple(sorted(nodes)), demand)


def build_request_feasibility(requests, dist: DistanceMatrix, candidates, *,
                              stretch: float | None = None,
                              route_limit: float | None = None) -> FeasibilitySets:
    """The request/candidate feasibility relation over the sorted candidates.

    A candidate serves a group iff it serves every member pair of the group
    under the same bound as plain pairs (``instance.feasible``).
    """
    if (stretch is None) == (route_limit is None):
        raise ValueError("exactly one of stretch / route_limit must be set")
    universe = tuple(sorted(set(candidates)))
    ok = feasible([r.nodes for r in requests], dist, universe, stretch, route_limit)
    return FeasibilitySets.from_matrix(ok, universe)


@dataclass
class Preprocessed:
    """Requests surviving preprocessing, with their feasibility relation."""

    requests: list[Request]
    kept: tuple[int, ...]
    rejected: tuple[int, ...]
    demands: dict[int, Fraction]
    fs: FeasibilitySets
    kappa: Fraction

    @property
    def num_kept(self) -> int:
        return len(self.kept)

    @property
    def deleted_entries(self) -> tuple[tuple[int, int], ...]:
        """(candidate, request) entries of kept requests that violate the
        bound or point at an illegal location: those absent from ``fs``."""
        return tuple((u, j) for j in self.kept for u in self.fs.candidates
                     if not self.fs.contains(u, j))


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
    uncoverable = [j for j in kept if not fs.candidates_of[j]]
    if uncoverable:
        named = ", ".join(f"{j} {requests[j].nodes}" for j in uncoverable)
        raise Infeasible(f"{len(uncoverable)} request(s) have no feasible candidate: {named}",
                         uncoverable)
    return Preprocessed(
        requests=list(requests),
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
    objective: Fraction
    active: tuple[int, ...]

    @property
    def objective_float(self) -> float:
        return float(self.objective)


def solve_fractional(active, prep: Preprocessed) -> FractionalAssignment:
    """Optimal fractional assignment restricted to the candidate set ``active``.

    Exact via max-profit flow: request arcs carry capacity ``demand`` and
    profit ``1/demand``, middlebox arcs capacity ``kappa``; the optimal
    profit equals the LP optimum.
    """
    active = tuple(sorted(set(active)))
    active_set = set(active)
    jobs = [j for j in prep.kept if any(u in active_set for u in prep.fs.candidates_of[j])]
    if not jobs or not active:
        return FractionalAssignment({}, ZERO, active)
    mb_index = {u: i for i, u in enumerate(active)}
    num_nodes = 2 + len(jobs) + len(active)
    source, sink = 0, num_nodes - 1
    net = FlowNetwork(num_nodes)
    job_arc: dict[int, int] = {}
    edge_arcs: dict[tuple[int, int], int] = {}
    for pos, j in enumerate(jobs):
        p = prep.demands[j]
        job_arc[j] = net.add_arc(source, 1 + pos, p, -1 / p)
    for pos, j in enumerate(jobs):
        for u in prep.fs.candidates_of[j]:
            if u in mb_index:
                edge_arcs[(u, j)] = net.add_arc(
                    1 + pos, 1 + len(jobs) + mb_index[u], prep.demands[j]
                )
    for u, i in mb_index.items():
        net.add_arc(1 + len(jobs) + i, sink, prep.kappa)
    _, cost = net.min_cost_max_flow(source, sink)
    x = {}
    for (u, j), ai in edge_arcs.items():
        flow = net.arcs[ai].flow
        if flow > 0:
            x[(u, j)] = flow / prep.demands[j]
    return FractionalAssignment(x, -cost, active)


def gain(i: int, active, prep: Preprocessed) -> Fraction:
    """Marginal fractional objective of opening candidate i on top of ``active``."""
    base = solve_fractional(active, prep).objective
    return solve_fractional(tuple(active) + (i,), prep).objective - base


def generalized_greedy(prep: Preprocessed) -> tuple[list[int], FractionalAssignment]:
    """Open locations by maximum fractional gain until ``f(S) > n - 1``.

    Ties break to the smallest node id. Raises Infeasible when the full
    candidate set still leaves the guard unsatisfied.
    """
    n = prep.num_kept
    universe = prep.fs.candidates
    chosen: list[int] = []
    best_frac = FractionalAssignment({}, ZERO, ())
    current = ZERO
    while len(chosen) < len(universe) and current <= n - 1:
        best_gain = None
        best_u = None
        best_candidate_frac = None
        for u in universe:
            if u in chosen:
                continue
            frac = solve_fractional(chosen + [u], prep)
            g = frac.objective - current
            if best_gain is None or g > best_gain:
                best_gain, best_u, best_candidate_frac = g, u, frac
        chosen.append(best_u)
        current = best_candidate_frac.objective
        best_frac = best_candidate_frac
    if current <= n - 1:
        raise Infeasible(
            f"all {len(universe)} candidates open but fractional objective "
            f"{float(current):.6g} <= {n - 1}"
        )
    return chosen, best_frac


@dataclass
class RoundedSolution:
    """Integral assignment obtained from the slot-graph rounding."""

    active: tuple[int, ...]
    assignment: dict[int, int]
    load: dict[int, Fraction]

    def max_load(self) -> Fraction:
        return max(self.load.values(), default=ZERO)


def _build_slots(frac: FractionalAssignment, prep: Preprocessed):
    """Slot graph: machine i gets ceil(sum_j x_ij) unit slots, filled with its
    requests in non-increasing demand order; returns job -> slot adjacency."""
    per_machine: dict[int, list[int]] = {}
    for (u, j), v in frac.x.items():
        per_machine.setdefault(u, []).append(j)
    slot_owner: list[int] = []
    job_slots: dict[int, list[int]] = {}
    for u in sorted(per_machine):
        jobs = sorted(per_machine[u], key=lambda j: (-prep.demands[j], j))
        total = sum((frac.x[(u, j)] for j in jobs), ZERO)
        count = math.ceil(total) if total > 0 else 0
        first = len(slot_owner)
        slot_owner.extend([u] * count)
        room = Fraction(1)
        cursor = first
        for j in jobs:
            rest = frac.x[(u, j)]
            while rest > 0:
                if room == 0:
                    cursor += 1
                    room = Fraction(1)
                piece = min(room, rest)
                job_slots.setdefault(j, []).append(cursor)
                room -= piece
                rest -= piece
    return slot_owner, job_slots


def round_solution(frac: FractionalAssignment, active, prep: Preprocessed) -> RoundedSolution:
    """Round a fractional assignment with objective above ``n - 1``.

    Every kept request ends up integrally assigned to a machine it touched
    fractionally, and each machine receives at most one request per slot:
    load <= fractional load + largest touching demand <= 2 * kappa.
    """
    slot_owner, job_slots = _build_slots(frac, prep)
    matched_slot: dict[int, int] = {}
    matched_job: dict[int, int] = {}

    def try_assign(j: int, banned: set[int]) -> bool:
        for slot in job_slots.get(j, ()):
            if slot in banned:
                continue
            banned.add(slot)
            if slot not in matched_slot or try_assign(matched_slot[slot], banned):
                matched_slot[slot] = j
                matched_job[j] = slot
                return True
        return False

    for j in prep.kept:
        if j in matched_job:
            continue
        if not try_assign(j, set()):
            raise RoundingFailed(
                f"request {j} cannot be matched to a slot; fractional objective "
                f"{frac.objective_float:.6g} must exceed {prep.num_kept - 1}"
            )
    active = tuple(sorted(set(active)))
    assignment = {j: slot_owner[slot] for j, slot in matched_job.items()}
    load: dict[int, Fraction] = {u: ZERO for u in active}
    for j, u in assignment.items():
        load[u] = load.get(u, ZERO) + prep.demands[j]
    return RoundedSolution(active=active, assignment=assignment, load=load)


@dataclass
class WeightedInstance:
    """Weighted placement instance: requests with demands over a network."""

    net: Network
    dist: DistanceMatrix
    requests: list[Request]
    candidates: tuple[int, ...]
    capacity: float
    stretch: float | None = None
    route_limit: float | None = None
    metric: str = "weight"

    def __post_init__(self):
        self.candidates = tuple(sorted(set(self.candidates)))
        if not self.capacity > 0:
            raise DomainError(f"capacity must be positive, got {self.capacity}")
        check_domain(self.net.num_nodes, [u for r in self.requests for u in r.nodes],
                     self.candidates, self.stretch, self.route_limit)


def solve_weighted(winst: WeightedInstance):
    """Full pipeline: feasibility, preprocessing, greedy, rounding.

    Returns (prep, chosen set, fractional solution, rounded solution).
    """
    rfs = build_request_feasibility(
        winst.requests, winst.dist, winst.candidates,
        stretch=winst.stretch, route_limit=winst.route_limit,
    )
    prep = preprocess(winst.requests, rfs, winst.capacity)
    chosen, frac = generalized_greedy(prep)
    rounded = round_solution(frac, chosen, prep)
    return prep, chosen, frac, rounded
