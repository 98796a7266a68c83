"""Placement problem model: pairs, candidate locations, capacity and stretch.

A middlebox at ``u`` can serve a pair ``(s, t)`` when the detour through it
stays within the allowed bound: ``d(s,u) + d(u,t) <= rho * d(s,t)`` in
stretch mode, or ``d(s,u) + d(u,t) <= limit`` in route-length mode. All
downstream algorithms consume only the FeasibilitySets built here, so both
constraint flavors share every code path. ``feasible`` is the one vectorised
feasibility relation for pairs and weighted groups alike, and both builders
and ``validate_assignment`` use it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .exceptions import DomainError, Infeasible, InfeasiblePair, PlacementError
from .netgraph import DistanceMatrix, Network

#: Relative tolerance for feasibility comparisons (geo weights are irrational).
REL_TOL = 1e-9


@dataclass(frozen=True, order=True)
class Pair:
    """Unordered communicating node pair, canonicalized to s < t."""

    s: int
    t: int

    def __post_init__(self):
        if self.s == self.t:
            raise ValueError(f"pair endpoints must differ, got ({self.s},{self.t})")
        if self.s > self.t:
            s, t = self.s, self.t
            object.__setattr__(self, "s", t)
            object.__setattr__(self, "t", s)


@dataclass
class PlacementInstance:
    """Unweighted placement instance with unit-demand pairs.

    Exactly one of ``stretch`` / ``route_limit`` selects the feasibility
    bound. A reserved per-pair stretch field is intentionally absent:
    the model is uniform-stretch.
    """

    net: Network
    dist: DistanceMatrix
    pairs: list[Pair]
    candidates: tuple[int, ...]
    capacity: int
    stretch: float | None = None
    route_limit: float | None = None
    metric: str = "weight"

    def __post_init__(self):
        self.candidates = tuple(sorted(set(self.candidates)))
        if self.capacity < 1:
            raise DomainError(f"capacity must be >= 1, got {self.capacity}")
        check_domain(self.net.num_nodes, [u for p in self.pairs for u in (p.s, p.t)],
                     self.candidates, self.stretch, self.route_limit)
        seen: set[Pair] = set()
        deduped: list[Pair] = []
        for p in self.pairs:
            if p in seen:
                warnings.warn(f"duplicate pair {p} dropped (unit demands)", stacklevel=3)
                continue
            seen.add(p)
            deduped.append(p)
        self.pairs = deduped
        for p in self.pairs:
            if not self.dist.reachable(p.s, p.t):
                raise InfeasiblePair(p, "endpoints are disconnected")

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)


def check_domain(num_nodes: int, nodes, candidates, stretch: float | None,
                 route_limit: float | None) -> None:
    """Input checks shared by both instance kinds: the candidate set is
    nonempty, every request node and candidate is a node id in
    ``0..num_nodes-1``, and exactly one bound is set, with ``stretch >= 1``
    or ``route_limit >= 0``. Raises DomainError."""
    if not candidates:
        raise DomainError("candidate set must be nonempty")
    for what, ids in (("request node", nodes), ("candidate", candidates)):
        bad = sorted({u for u in ids if not 0 <= u < num_nodes})
        if bad:
            raise DomainError(f"{what} id(s) {bad} outside node range 0..{num_nodes - 1}")
    if (stretch is None) == (route_limit is None):
        raise DomainError("exactly one of stretch / route_limit must be set")
    if stretch is not None and stretch < 1.0:
        raise DomainError(f"stretch must be >= 1, got {stretch}")
    if route_limit is not None and route_limit < 0.0:
        raise DomainError(f"route limit must be >= 0, got {route_limit}")


def feasible(members, dist: DistanceMatrix, candidates, stretch: float | None,
             route_limit: float | None) -> np.ndarray:
    """``ok[j, k]``: a middlebox at ``candidates[k]`` keeps every member pair
    of ``members[j]`` within the bound. A pair is the two-node case, and a
    group is served iff each of its member pairs is (the conservative
    extension of the pairwise model). One numpy column per candidate covers
    all member pairs."""
    d = dist.values
    spans = [list(combinations(nodes, 2)) for nodes in members]
    counts = np.array([len(s) for s in spans], dtype=np.intp)
    a, b = np.array([ab for s in spans for ab in s], dtype=np.intp).reshape(-1, 2).T
    starts = np.cumsum(counts) - counts
    bound = route_limit if stretch is None else stretch * d[a, b]
    ok = np.empty((len(spans), len(candidates)), dtype=bool)
    # Exactly ``via <= bound or math.isclose(via, bound, rel_tol=REL_TOL)``:
    # distances are >= 0, and isclose is never true for an infinite operand.
    with np.errstate(invalid="ignore"):
        for k, u in enumerate(candidates):
            via = d[a, u] + d[u, b]
            fits = (via <= bound) | ((via - bound <= REL_TOL * via) & (via < np.inf))
            ok[:, k] = np.logical_and.reduceat(fits, starts)
    return ok


@dataclass
class FeasibilitySets:
    """Both directions of the request/candidate feasibility relation.

    ``pairs_of[u]`` lists the pair (or weighted request) indices u may serve;
    ``candidates_of[p]`` lists the candidates that may serve index p.
    """

    num_pairs: int
    pairs_of: dict[int, tuple[int, ...]]
    candidates_of: list[tuple[int, ...]] = field(default_factory=list)

    def __post_init__(self):
        self.pairs_of = {u: tuple(sorted(ps)) for u, ps in sorted(self.pairs_of.items())}
        if not self.candidates_of:
            rev: list[list[int]] = [[] for _ in range(self.num_pairs)]
            for u, ps in self.pairs_of.items():
                for p in ps:
                    rev[p].append(u)
            self.candidates_of = [tuple(sorted(us)) for us in rev]
        self._sets = {u: frozenset(ps) for u, ps in self.pairs_of.items()}

    @classmethod
    def from_matrix(cls, ok: np.ndarray, candidates) -> "FeasibilitySets":
        """Both directions of a ``feasible`` matrix over sorted ``candidates``."""
        cands = np.asarray(candidates, dtype=np.intp)
        return cls(
            num_pairs=len(ok),
            pairs_of={u: tuple(np.flatnonzero(ok[:, k]).tolist())
                      for k, u in enumerate(candidates)},
            candidates_of=[tuple(cands[row].tolist()) for row in ok],
        )

    def contains(self, u: int, p: int) -> bool:
        return p in self._sets[u]

    @property
    def candidates(self) -> tuple[int, ...]:
        return tuple(self.pairs_of)

    def edge_count(self) -> int:
        return sum(len(ps) for ps in self.pairs_of.values())


def build_feasibility(inst: PlacementInstance) -> FeasibilitySets:
    """Precompute S_u / C_p from the distance matrix.

    Raises InfeasiblePair for any pair no candidate can serve.
    """
    ok = feasible([(p.s, p.t) for p in inst.pairs], inst.dist, inst.candidates,
                  inst.stretch, inst.route_limit)
    fs = FeasibilitySets.from_matrix(ok, inst.candidates)
    for i, cands in enumerate(fs.candidates_of):
        if not cands:
            raise InfeasiblePair(inst.pairs[i], "no candidate satisfies the bound")
    return fs


def check_total_capacity(inst: PlacementInstance, fs: FeasibilitySets) -> None:
    """Fail fast on obviously infeasible instances.

    Necessary but not sufficient: pigeonhole on total capacity plus empty
    candidate sets. Raises Infeasible listing the uncoverable pairs.
    """
    uncoverable = [inst.pairs[i] for i, c in enumerate(fs.candidates_of) if not c]
    if uncoverable:
        raise Infeasible(
            f"{len(uncoverable)} pair(s) have no feasible candidate", uncoverable
        )
    if inst.num_pairs > inst.capacity * len(inst.candidates):
        raise Infeasible(
            f"{inst.num_pairs} pairs exceed total capacity "
            f"{inst.capacity} x {len(inst.candidates)} candidates"
        )


def validate_assignment(members, demands, assignment: dict, claimed_load: dict,
                        dist: DistanceMatrix, stretch: float | None,
                        route_limit: float | None, *, required, load_limit) -> None:
    """Re-check a solution from the distances, independently of the solver.

    ``members[j]`` and ``demands[j]`` are request j's nodes and demand,
    ``assignment`` maps a request to its middlebox and ``claimed_load`` is the
    solver's own per-middlebox load. Raises PlacementError when a request in
    ``required`` is unserved, a middlebox does not serve a request assigned
    to it, a recounted load differs from the claimed one, or a load exceeds
    ``load_limit``.
    """
    for j in required:
        if j not in assignment:
            raise PlacementError(f"validation: request {j} {members[j]} is not served")
    boxes = sorted(set(assignment.values()))
    column = {u: k for k, u in enumerate(boxes)}
    ok = feasible([members[j] for j in assignment], dist, boxes, stretch, route_limit)
    loads: dict = {}
    for row, (j, u) in zip(ok, assignment.items()):
        if not row[column[u]]:
            raise PlacementError(f"validation: request {j} {members[j]} infeasible at {u}")
        loads[u] = loads.get(u, 0) + demands[j]
    for u in sorted(loads.keys() | claimed_load.keys()):
        load = loads.get(u, 0)
        if load > load_limit:
            raise PlacementError(f"validation: middlebox {u} load {load} > {load_limit}")
        if load != claimed_load.get(u, 0):
            raise PlacementError(f"validation: load bookkeeping mismatch at {u}")
