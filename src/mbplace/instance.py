"""Placement problem model: pairs, candidate locations, capacity and stretch.

A middlebox at ``u`` can serve a pair ``(s, t)`` when the detour through it
stays within the allowed bound: ``d(s,u) + d(u,t) <= rho * d(s,t)`` in
stretch mode, or ``d(s,u) + d(u,t) <= limit`` in route-length mode. All
downstream algorithms consume only the FeasibilitySets built here, so both
constraint flavors share every code path. ``feasible`` is the one vectorised
feasibility relation for pairs and weighted groups alike, and both builders
and ``validate_assignment`` use it. ``FeasibilitySets`` stores that relation
once, as one pair bitset per candidate packed straight from the matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from numbers import Integral

import numpy as np

from .exceptions import DomainError, Infeasible, InfeasiblePair, PlacementError
from .netgraph import DistanceMatrix, Network, is_number

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
        if not _is_int(self.capacity) or self.capacity < 1:
            raise DomainError(f"capacity must be an integer >= 1, got {self.capacity!r}")
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


def _is_int(x) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool)


def check_domain(num_nodes: int, nodes, candidates, stretch: float | None,
                 route_limit: float | None) -> None:
    """Input checks shared by both instance kinds: the candidate set is
    nonempty, every request node and candidate is an integer node id in
    ``0..num_nodes-1``, and exactly one bound is set, with ``stretch >= 1``
    or ``route_limit >= 0`` (NaN and bools fail; infinity means no bound).
    Raises DomainError."""
    if not candidates:
        raise DomainError("candidate set must be nonempty")
    for what, ids in (("request node", nodes), ("candidate", candidates)):
        bad = [u for u in dict.fromkeys(ids) if not _is_int(u) or not 0 <= u < num_nodes]
        if bad:
            raise DomainError(f"{what} id(s) {bad} are not node ids 0..{num_nodes - 1}")
    if (stretch is None) == (route_limit is None):
        raise DomainError("exactly one of stretch / route_limit must be set")
    if stretch is not None and not (is_number(stretch) and stretch >= 1.0):
        raise DomainError(f"stretch must be a number >= 1, got {stretch!r}")
    if route_limit is not None and not (is_number(route_limit) and route_limit >= 0.0):
        raise DomainError(f"route limit must be a number >= 0, got {route_limit!r}")


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


def set_bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    bits = f"{mask:b}"[::-1]
    found = []
    p = bits.find("1")
    while p >= 0:
        found.append(p)
        p = bits.find("1", p + 1)
    return found


@dataclass
class FeasibilitySets:
    """The request/candidate feasibility relation, held once as bitsets.

    ``masks[u]`` is S_u as one Python int: bit p is set iff candidate u may
    serve pair (or weighted request) p. Its keys are the candidates in
    ascending order. ``candidates_of[p]``, the candidates that may serve p,
    is derived from ``masks`` on first use.
    """

    num_pairs: int
    masks: dict[int, int]

    @classmethod
    def from_matrix(cls, ok: np.ndarray, candidates) -> "FeasibilitySets":
        """The relation of a ``feasible`` matrix over sorted ``candidates``."""
        rows = np.packbits(ok.T, axis=1, bitorder="little")
        return cls(len(ok), {u: int.from_bytes(row.tobytes(), "little")
                             for u, row in zip(candidates, rows)})

    @cached_property
    def candidates_of(self) -> list[tuple[int, ...]]:
        rev: list[list[int]] = [[] for _ in range(self.num_pairs)]
        for u, mask in self.masks.items():
            for p in set_bits(mask):
                rev[p].append(u)
        return [tuple(us) for us in rev]

    def uncovered(self) -> list[int]:
        """The indices no candidate may serve, ascending."""
        covered = 0
        for mask in self.masks.values():
            covered |= mask
        return set_bits(~covered & ((1 << self.num_pairs) - 1))

    def contains(self, u: int, p: int) -> bool:
        return bool(self.masks[u] >> p & 1)

    @property
    def candidates(self) -> tuple[int, ...]:
        return tuple(self.masks)

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks.values())


def build_feasibility(inst: PlacementInstance) -> FeasibilitySets:
    """Precompute every S_u from the distance matrix.

    Raises InfeasiblePair for any pair no candidate can serve.
    """
    ok = feasible([(p.s, p.t) for p in inst.pairs], inst.dist, inst.candidates,
                  inst.stretch, inst.route_limit)
    fs = FeasibilitySets.from_matrix(ok, inst.candidates)
    missing = fs.uncovered()
    if missing:
        raise InfeasiblePair(inst.pairs[missing[0]], "no candidate satisfies the bound")
    return fs


def check_total_capacity(inst: PlacementInstance, fs: FeasibilitySets) -> None:
    """Fail fast on obviously infeasible instances.

    Necessary but not sufficient: pigeonhole on total capacity plus empty
    candidate sets. Raises Infeasible listing the uncoverable pairs.
    """
    uncoverable = [inst.pairs[i] for i in fs.uncovered()]
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
