"""Capacitated bipartite assignment engine and the greedy's gain counter.

Maintains a maximum partial assignment of pairs to deployed middleboxes and
grows it incrementally: adding a middlebox only ever applies augmenting
paths that start at the new location, so pairs served earlier stay served
(they may be handed over to another middlebox, never dropped) and the loads
of untouched middleboxes never change.

Adding a middlebox first takes the free pairs it can serve, in ascending
pair index up to capacity: these are exactly the length-1 augmenting paths,
in the order the search would return them. Longer paths (handovers) are then
found by breadth-first search, one shortest path at a time. This canonical
order fixes the reported assignment.

``count_gain`` computes only the number such an addition gains, on pair
bitsets (``FeasibilitySets.masks``), with any augmenting paths: the gain is
``phi(M + m) - phi(M)`` whatever paths realise it, so the greedy scores its
candidates with it and runs the canonical addition for the winner alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .exceptions import AlreadyActive, InvalidPath
from .instance import FeasibilitySets

UNASSIGNED = None


@dataclass(frozen=True)
class AugmentingPath:
    """Alternating path (m_0, p_0, m_1, p_1, ..., p_k).

    ``middleboxes[i] -- pairs[i]`` are the new assignment edges and
    ``pairs[i] -- middleboxes[i+1]`` the released ones; the final pair is
    free before application.
    """

    middleboxes: tuple[int, ...]
    pairs: tuple[int, ...]

    def __post_init__(self):
        if len(self.middleboxes) != len(self.pairs) or not self.pairs:
            raise InvalidPath("path must alternate middlebox/pair and be nonempty")


class Assignment:
    """Mutable pair -> middlebox assignment with per-middlebox loads."""

    def __init__(self, fs: FeasibilitySets, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.fs = fs
        self.capacity = capacity
        self.mu: list[int | None] = [UNASSIGNED] * fs.num_pairs
        self.load: dict[int, int] = {}
        self.num_assigned = 0

    # -- queries ---------------------------------------------------------

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(sorted(self.load))

    def assigned_pairs(self) -> frozenset[int]:
        return frozenset(i for i, m in enumerate(self.mu) if m is not UNASSIGNED)

    def clone(self) -> "Assignment":
        other = Assignment.__new__(Assignment)
        other.fs = self.fs
        other.capacity = self.capacity
        other.mu = list(self.mu)
        other.load = dict(self.load)
        other.num_assigned = self.num_assigned
        return other

    # -- augmenting-path machinery ----------------------------------------

    def find_augmenting_path(self, start: int) -> AugmentingPath | None:
        """Shortest augmenting path from ``start`` to a free pair, or None.

        BFS layers guarantee shortest; neighbors are explored in ascending
        pair index, which makes the returned path deterministic.
        """
        if start not in self.load:
            raise ValueError(f"start {start} is not an active middlebox")
        if self.load[start] >= self.capacity:
            raise ValueError(f"start {start} has no free capacity")
        parent_of_pair: dict[int, int] = {}
        parent_of_mb: dict[int, int] = {}
        queue = deque([start])
        seen_mb = {start}
        while queue:
            x = queue.popleft()
            for p in self.fs.pairs_of[x]:
                if p in parent_of_pair:
                    continue
                parent_of_pair[p] = x
                owner = self.mu[p]
                if owner is UNASSIGNED:
                    return self._reconstruct(start, p, parent_of_pair, parent_of_mb)
                if owner not in seen_mb:
                    seen_mb.add(owner)
                    parent_of_mb[owner] = p
                    queue.append(owner)
        return None

    @staticmethod
    def _reconstruct(start, free_pair, parent_of_pair, parent_of_mb) -> AugmentingPath:
        mbs: list[int] = []
        prs: list[int] = []
        p = free_pair
        while True:
            x = parent_of_pair[p]
            mbs.append(x)
            prs.append(p)
            if x == start:
                break
            p = parent_of_mb[x]
        mbs.reverse()
        prs.reverse()
        return AugmentingPath(tuple(mbs), tuple(prs))

    def _flip(self, path: AugmentingPath) -> None:
        """Apply a path this engine has just found: grows the assignment by
        exactly one pair."""
        for m, p in zip(path.middleboxes, path.pairs):
            self.mu[p] = m
        self.load[path.middleboxes[0]] += 1
        self.num_assigned += 1

    # -- incremental growth -------------------------------------------------

    def add_middlebox(self, m: int) -> int:
        """Deploy m and re-maximize; returns the gained number of pairs.

        Only paths starting at m are needed: the previous assignment was
        maximum, so after exhausting them the new one is maximum as well.
        The free pairs of S_m are taken first, in ascending index: each is
        the length-1 path the search would return next, since the search
        scans S_m in that order before any handover. Taking them creates no
        free pair, so every later path is longer and needs the search.
        """
        if m in self.load:
            raise AlreadyActive(f"middlebox {m} is already deployed")
        if m not in self.fs.pairs_of:
            raise ValueError(f"{m} is not a candidate location")
        mu, capacity = self.mu, self.capacity
        gained = 0
        for p in self.fs.pairs_of[m]:
            if gained == capacity:
                break
            if mu[p] is UNASSIGNED:
                mu[p] = m
                gained += 1
        self.load[m] = gained
        self.num_assigned += gained
        while gained < capacity:
            path = self.find_augmenting_path(m)
            if path is None:
                break
            self._flip(path)
            gained += 1
        return gained


def count_gain(engine: Assignment, m: int, owned: dict[int, int], free: int) -> int:
    """What ``engine.add_middlebox(m)`` would gain, leaving the engine as is.

    ``owned[y]`` is the bitset of the pairs assigned to deployed box y and
    ``free`` that of the unassigned pairs; both describe the engine and are
    only read. The free pairs of S_m count first, up to capacity. Each
    further pair needs one breadth-first search from m, a level at a time:
    the boxes of a level reach the pairs of their S_x, a free one ends the
    search, and the undiscovered owners of the others form the next level,
    their pairs then counting as visited. The path is flipped on local
    copies, each box on it passing one pair back to a box of the level
    before, down to m. Counting stops at capacity or at the first search
    that fails.
    """
    masks = engine.fs.masks
    capacity = engine.capacity
    gained = min(capacity, (masks[m] & free).bit_count())
    if gained == capacity:
        return gained
    free &= ~masks[m]
    owned = dict(owned)
    while gained < capacity:
        levels = [[m]]
        visited = 0
        while True:
            reach = 0
            for x in levels[-1]:
                reach |= masks[x]
            if reach & free:
                break
            reach &= ~visited
            level = [y for y, pairs in owned.items() if pairs & reach]
            if not level:
                return gained
            for y in level:
                visited |= owned[y]
            levels.append(level)
        x = next(x for x in levels.pop() if masks[x] & free)
        bit = masks[x] & free
        bit &= -bit
        free ^= bit
        for level in reversed(levels):
            z = next(z for z in level if masks[z] & owned[x])
            via = masks[z] & owned[x]
            via &= -via
            owned[x] ^= bit | via
            x, bit = z, via
        gained += 1
    return gained


def phi(M, fs: FeasibilitySets, capacity: int) -> int:
    """Maximum number of pairs assignable to middlebox set M (stateless)."""
    state = Assignment(fs, capacity)
    for m in sorted(set(M)):
        state.add_middlebox(m)
    return state.num_assigned
