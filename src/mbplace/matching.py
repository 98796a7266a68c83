"""Capacitated bipartite assignment engine.

Maintains a maximum partial assignment of pairs to deployed middleboxes and
grows it incrementally: adding a middlebox only ever applies augmenting
paths that start at the new location, so pairs served earlier stay served
(they may be handed over to another middlebox, never dropped) and the loads
of untouched middleboxes never change.

The state is held on pair bitsets, one Python int each: ``owned[y]`` has
bit p set iff pair p is assigned to box y, ``free`` has the unassigned
pairs, and ``FeasibilitySets.masks[x]`` is S_x. Adding a box m first takes
the lowest free pairs of S_m up to capacity (the length-1 paths), then
applies the depth-2 paths (m -> y -> free pair) in closed form, then runs
level-by-level searches from m until capacity or the first search that
fails.

Every path applied is the one a pair-by-pair breadth-first search in
ascending pair index would return next. This canonical order fixes the
reported assignment. A deeper search's levels are sorted into breadth-first
discovery order before its one path is flipped. The depth-2 paths need no
search: the next one hands m the lowest pair of S_m held by a box that still
reaches a free pair, and that box takes its own lowest free pair. The pairs
of S_m that other boxes hold only shrink, a box never regains a free pair,
and shortest augmenting paths never get shorter (Hopcroft & Karp 1973), so
one ascending scan over a heap of those boxes applies them all, before any
deeper path. Counting a gain, ``phi(M + m) - phi(M)``, is the same
deployment on a ``clone``.
"""

from __future__ import annotations

import heapq

from .exceptions import AlreadyActive
from .instance import FeasibilitySets, set_bits

UNASSIGNED = None


def _lowest(bits: int, k: int) -> int:
    """The ``k`` lowest set bits of ``bits``, or all of them if it has fewer."""
    if bits.bit_count() <= k:
        return bits
    lo, hi = 0, bits.bit_length()  # below lo fewer than k bits, below hi at least k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (bits & ((1 << mid) - 1)).bit_count() < k:
            lo = mid
        else:
            hi = mid
    return bits & ((1 << hi) - 1)


def _discovered_by(prev: list[int], masks: dict[int, int], pairs: int) -> tuple[int, int]:
    """(position in ``prev`` of the first box whose S_x meets ``pairs``, the
    lowest pair of that meet as a bit): where a breadth-first search finds
    the owner of ``pairs``."""
    for i, x in enumerate(prev):
        hit = masks[x] & pairs
        if hit:
            return i, hit & -hit


class Assignment:
    """Mutable pair -> middlebox assignment on pair bitsets.

    ``load`` and ``num_assigned`` are kept as counts of their own, so a
    recount of the assignment can check them.
    """

    def __init__(self, fs: FeasibilitySets, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.fs = fs
        self.capacity = capacity
        self.owned: dict[int, int] = {}
        self.free = (1 << fs.num_pairs) - 1
        self.load: dict[int, int] = {}
        self.num_assigned = 0

    # -- queries ---------------------------------------------------------

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(sorted(self.load))

    @property
    def mu(self) -> list[int | None]:
        """``mu[p]``: the box pair p is assigned to, or None (a fresh list)."""
        mu: list[int | None] = [UNASSIGNED] * self.fs.num_pairs
        for y, pairs in self.owned.items():
            for p in set_bits(pairs):
                mu[p] = y
        return mu

    def assignment(self) -> dict[int, int]:
        """Pair -> box for every served pair, in ascending pair order."""
        return {p: y for p, y in enumerate(self.mu) if y is not UNASSIGNED}

    def clone(self) -> "Assignment":
        other = Assignment.__new__(Assignment)
        other.fs = self.fs
        other.capacity = self.capacity
        other.owned = dict(self.owned)
        other.free = self.free
        other.load = dict(self.load)
        other.num_assigned = self.num_assigned
        return other

    # -- augmenting-path machinery ----------------------------------------

    def find_augmenting_path(self, start: int, owned: dict[int, int],
                             free: int) -> list[list[int]] | None:
        """Levels of a shortest augmenting path from ``start`` over the
        assignment ``owned``/``free``, or None if there is none.

        Level 0 is ``[start]``; the boxes of a level reach the pairs of their
        S_x, and the owners of those not yet visited form the next level,
        their pairs then counting as visited. The search stops at the first
        level that reaches a free pair. Levels after the first are in the
        order of ``owned``.
        """
        masks = self.fs.masks
        levels = [[start]]
        visited = owned[start]
        while True:
            reach = 0
            for x in levels[-1]:
                reach |= masks[x]
            if reach & free:
                return levels
            reach &= ~visited
            level = [y for y, pairs in owned.items() if pairs & reach]
            if not level:
                return None
            for y in level:
                visited |= owned[y]
            levels.append(level)

    def _flip(self, levels: list[list[int]], owned: dict[int, int], free: int) -> int:
        """Apply the path the levels hold and return the new ``free``.

        The first box of the last level that reaches a free pair takes its
        lowest one; walking back, each box on the path takes the lowest pair
        of the first box of the level before that reaches it, down to the
        start, which ends with one pair more.
        """
        masks = self.fs.masks
        x = next(x for x in levels[-1] if masks[x] & free)
        bit = masks[x] & free
        bit &= -bit
        free ^= bit
        for level in reversed(levels[:-1]):
            z = next(z for z in level if masks[z] & owned[x])
            via = masks[z] & owned[x]
            via &= -via
            owned[x] ^= bit | via
            x, bit = z, via
        owned[x] |= bit
        return free

    # -- incremental growth -------------------------------------------------

    def add_middlebox(self, m: int) -> int:
        """Deploy m and re-maximize along the canonical paths; returns the
        gained number of pairs.

        Only paths starting at m are needed: the previous assignment was
        maximum, so after exhausting them the new one is maximum as well.
        The depth-2 scan keeps the boxes y holding pairs of S_m in a heap on
        their lowest such pair, which is how a sorted depth-2 search orders
        its first level; its flip takes the first of them that reaches a
        free pair. So the top y, if it reaches one, hands that pair to m and
        takes its own lowest free pair; if not, it never will again and
        leaves the heap. Each deeper search's levels are sorted, from the
        first on, into breadth-first discovery order (box y by the position
        of the first box x of the level before whose S_x meets
        ``owned[y]``, then by the lowest pair of that meet) before its path
        is flipped.
        """
        if m in self.load:
            raise AlreadyActive(f"middlebox {m} is already deployed")
        if m not in self.fs.masks:
            raise ValueError(f"{m} is not a candidate location")
        masks, owned, capacity = self.fs.masks, self.owned, self.capacity
        s_m = masks[m]
        take = _lowest(s_m & self.free, capacity)
        free = self.free ^ take
        gained = take.bit_count()
        heap = [] if gained == capacity else sorted(
            (held & -held, y) for y, pairs in owned.items() if (held := pairs & s_m))
        owned[m] = take
        while heap and gained < capacity:
            via, y = heap[0]
            bit = masks[y] & free
            if bit:
                bit &= -bit
                free ^= bit
                owned[y] ^= via | bit
                owned[m] |= via
                gained += 1
                held = owned[y] & s_m
                if held:
                    heapq.heapreplace(heap, (held & -held, y))
                    continue
            heapq.heappop(heap)
        while gained < capacity:
            levels = self.find_augmenting_path(m, owned, free)
            if levels is None:
                break
            for prev, level in zip(levels, levels[1:]):
                level.sort(key=lambda y: _discovered_by(prev, masks, owned[y]))
            free = self._flip(levels, owned, free)
            gained += 1
        self.free = free
        self.load[m] = gained
        self.num_assigned += gained
        return gained


def phi(M, fs: FeasibilitySets, capacity: int) -> int:
    """Maximum number of pairs assignable to middlebox set M (stateless)."""
    state = Assignment(fs, capacity)
    for m in sorted(set(M)):
        state.add_middlebox(m)
    return state.num_assigned
