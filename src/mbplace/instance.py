"""Placement problem model: pairs, candidate locations, capacity and stretch.

A middlebox at ``u`` can serve a pair ``(s, t)`` when the detour through it
stays within the allowed bound: ``d(s,u) + d(u,t) <= rho * d(s,t)`` in
stretch mode, or ``d(s,u) + d(u,t) <= limit`` in route-length mode. All
downstream algorithms consume only the FeasibilitySets built here, so both
constraint flavors share every code path. ``serves`` is the one
feasibility test for pairs and weighted groups alike, and
``validate_assignment`` re-checks the solutions of both variants against it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations

from .exceptions import Infeasible, InfeasiblePair, PlacementError
from .netgraph import DistanceMatrix, Network

#: Relative tolerance for feasibility comparisons (geo weights are irrational).
REL_TOL = 1e-9


def _leq(lhs: float, rhs: float) -> bool:
    return lhs <= rhs or math.isclose(lhs, rhs, rel_tol=REL_TOL)


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
        if not self.candidates:
            raise ValueError("candidate set must be nonempty")
        n = self.net.num_nodes
        if any(not 0 <= u < n for u in self.candidates):
            raise ValueError("candidate outside node range")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if (self.stretch is None) == (self.route_limit is None):
            raise ValueError("exactly one of stretch / route_limit must be set")
        if self.stretch is not None and self.stretch < 1.0:
            raise ValueError(f"stretch must be >= 1, got {self.stretch}")
        if self.route_limit is not None and self.route_limit < 0.0:
            raise ValueError(f"route limit must be >= 0, got {self.route_limit}")
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


def serves(u: int, nodes, dist: DistanceMatrix, stretch: float | None,
           route_limit: float | None) -> bool:
    """True when a middlebox at u keeps every member pair of ``nodes`` within
    the bound: a pair is the two-node case, and a group is served iff each of
    its member pairs is (the conservative extension of the pairwise model)."""
    for a, b in combinations(nodes, 2):
        via = dist.d(a, u) + dist.d(u, b)
        bound = route_limit if stretch is None else stretch * dist.d(a, b)
        if not _leq(via, bound):
            return False
    return True


def is_feasible(u: int, p: Pair, inst: PlacementInstance) -> bool:
    """True when a middlebox at u may serve p under the instance's bound."""
    return serves(u, (p.s, p.t), inst.dist, inst.stretch, inst.route_limit)


@dataclass
class FeasibilitySets:
    """Both directions of the pair/candidate feasibility relation.

    ``pairs_of[u]`` lists the pair indices u may serve; ``candidates_of[p]``
    lists the candidates that may serve pair index p.
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
    dist, stretch, limit = inst.dist, inst.stretch, inst.route_limit
    members = [(p.s, p.t) for p in inst.pairs]
    pairs_of = {
        u: tuple(i for i, nodes in enumerate(members) if serves(u, nodes, dist, stretch, limit))
        for u in inst.candidates
    }
    fs = FeasibilitySets(num_pairs=inst.num_pairs, pairs_of=pairs_of)
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
    loads: dict = {}
    for j, u in assignment.items():
        if not serves(u, members[j], dist, stretch, route_limit):
            raise PlacementError(f"validation: request {j} {members[j]} infeasible at {u}")
        loads[u] = loads.get(u, 0) + demands[j]
    for u in sorted(loads.keys() | claimed_load.keys()):
        load = loads.get(u, 0)
        if load > load_limit:
            raise PlacementError(f"validation: middlebox {u} load {load} > {load_limit}")
        if load != claimed_load.get(u, 0):
            raise PlacementError(f"validation: load bookkeeping mismatch at {u}")
