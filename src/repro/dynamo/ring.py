"""Consistent hashing: the DHT under Dynamo.

Nodes own positions on a 2^32 ring (several virtual nodes each for
balance); a key's *preference list* is the first N distinct nodes walking
clockwise from the key's hash. For sloppy quorum, the walk can skip dead
nodes and keep extending — the substitute node holds the data with a hint
for its intended owner.

The ring is *elastic*: :meth:`HashRing.add_node` and
:meth:`HashRing.remove_node` splice vnode positions in place, and
:func:`moved_ranges` reports exactly which hash-space arcs changed
ownership between two ring states — the transfer list a rebalance must
move, and nothing more.

A key's hash never depends on membership, so each ring memoizes it:
one SHA-256 per key per ring (clones share the memo). Strict owner
lists are memoized per arc, so that memo is bounded by the vnode count;
every splice drops it.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

RING_BITS = 32
RING_SIZE = 1 << RING_BITS


def ring_hash(value: str) -> int:
    digest = hashlib.sha256(value.encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class MovedRange:
    """One hash-space arc whose intended-owner list changed.

    The arc is ``[start, end)`` with wraparound: when ``start >= end`` it
    runs through zero. Every key hashing into the arc had owners
    ``old_owners`` before the reshape and ``new_owners`` after, in
    preference order.
    """

    start: int
    end: int
    old_owners: Tuple[str, ...]
    new_owners: Tuple[str, ...]

    @property
    def gained(self) -> Tuple[str, ...]:
        """Nodes that must *receive* this arc's data (new owners that
        held no replica before), in preference order."""
        old = set(self.old_owners)
        return tuple(n for n in self.new_owners if n not in old)

    @property
    def lost(self) -> Tuple[str, ...]:
        """Nodes that stop owning this arc (their copy goes stale)."""
        new = set(self.new_owners)
        return tuple(n for n in self.old_owners if n not in new)

    def contains_hash(self, h: int) -> bool:
        if self.start < self.end:
            return self.start <= h < self.end
        return h >= self.start or h < self.end

    def contains_key(self, key: str) -> bool:
        return self.contains_hash(ring_hash(key))


def key_in_ranges(
    key: str,
    ranges: Iterable[Sequence[int]],
    position: Callable[[str], int] = ring_hash,
) -> bool:
    """Whether ``key`` hashes into any ``[start, end)`` wrapping arc.
    ``position`` maps a key to its hash (a ring's memo, say)."""
    h = position(key)
    for start, end in ranges:
        if start < end:
            if start <= h < end:
                return True
        elif h >= start or h < end:
            return True
    return False


class HashRing:
    """Consistent-hash ring over named nodes with virtual nodes."""

    def __init__(self, nodes: Sequence[str], vnodes: int = 8) -> None:
        if not nodes:
            raise SimulationError("ring needs at least one node")
        if vnodes < 1:
            raise SimulationError("vnodes must be >= 1")
        if len(set(nodes)) != len(nodes):
            duplicates = sorted({n for n in nodes if list(nodes).count(n) > 1})
            raise SimulationError(f"duplicate ring nodes {duplicates}")
        self.nodes = list(nodes)
        self.vnodes = vnodes
        positions: List[Tuple[int, str]] = []
        for node in nodes:
            for v in range(vnodes):
                positions.append((ring_hash(f"{node}#{v}"), node))
        positions.sort()
        self._positions = positions
        self._hashes = [h for h, _node in positions]
        self._key_hashes: Dict[str, int] = {}
        # (index of the key's successor vnode, n) -> strict owners.
        self._owners: Dict[Tuple[int, int], Tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Elastic membership

    def add_node(self, name: str) -> None:
        """Splice ``name``'s vnode positions into the ring in place.

        Keys between each new position and its predecessor change owner;
        :func:`moved_ranges` against a pre-add snapshot reports exactly
        which arcs those are.
        """
        if name in self.nodes:
            raise SimulationError(f"duplicate ring node {name!r}")
        self.nodes.append(name)
        for v in range(self.vnodes):
            h = ring_hash(f"{name}#{v}")
            index = bisect.bisect_left(self._positions, (h, name))
            self._positions.insert(index, (h, name))
            self._hashes.insert(index, h)
        self._owners = {}

    def remove_node(self, name: str) -> None:
        """Remove ``name``'s vnode positions in place. The departing
        node's arcs fall to their clockwise successors."""
        if name not in self.nodes:
            raise SimulationError(f"unknown ring node {name!r}")
        if len(self.nodes) == 1:
            raise SimulationError("ring needs at least one node")
        self.nodes.remove(name)
        self._positions = [(h, n) for h, n in self._positions if n != name]
        self._hashes = [h for h, _node in self._positions]
        self._owners = {}

    def clone(self) -> "HashRing":
        """An independent snapshot (for moved-range comparison). Key
        hashes are membership-free, so the snapshot shares their memo."""
        ring = HashRing.__new__(HashRing)
        ring.nodes = list(self.nodes)
        ring.vnodes = self.vnodes
        ring._positions = list(self._positions)
        ring._hashes = list(self._hashes)
        ring._key_hashes = self._key_hashes
        ring._owners = {}
        return ring

    # ------------------------------------------------------------------
    # Lookup

    def position(self, key: str) -> int:
        """The key's hash on the ring, computed once per key."""
        h = self._key_hashes.get(key)
        if h is None:
            h = self._key_hashes[key] = ring_hash(key)
        return h

    def owner(self, key: str) -> str:
        """The first node clockwise of the key."""
        return self.preference_list(key, 1)[0]

    def preference_list(
        self,
        key: str,
        n: int,
        alive: Optional[Callable[[str], bool]] = None,
    ) -> List[str]:
        """The first ``n`` distinct nodes clockwise from ``key``.

        With ``alive`` given, dead nodes are skipped and the walk keeps
        extending — the sloppy-quorum list. Without it, the strict
        (intended) owners. Returns fewer than ``n`` when the ring runs
        out of (live) nodes.
        """
        if alive is None:
            return self.intended_owners(key, n)
        if n < 1:
            raise SimulationError("preference list size must be >= 1")
        return self._walk(bisect.bisect_right(self._hashes, self.position(key)), n, alive)

    def owners_at(self, position: int, n: int) -> List[str]:
        """The strict top-N owners for keys hashing to ``position`` —
        the lookup :func:`moved_ranges` probes arcs with."""
        return self._walk(bisect.bisect_right(self._hashes, position), n, None)

    def _walk(
        self, start: int, n: int, alive: Optional[Callable[[str], bool]]
    ) -> List[str]:
        seen: List[str] = []
        for offset in range(len(self._positions)):
            _pos, node = self._positions[(start + offset) % len(self._positions)]
            if node in seen:
                continue
            if alive is not None and not alive(node):
                continue
            seen.append(node)
            if len(seen) == n:
                break
        return seen

    def intended_owners(self, key: str, n: int) -> List[str]:
        """The strict top-N owners, dead or alive (for hinted handoff).
        Memoized per arc until the next splice; each call gets a fresh
        list."""
        start = bisect.bisect_right(self._hashes, self.position(key))
        owners = self._owners.get((start, n))
        if owners is None:
            if n < 1:
                raise SimulationError("preference list size must be >= 1")
            owners = self._owners[(start, n)] = tuple(self._walk(start, n, None))
        return list(owners)


def moved_ranges(before: HashRing, after: HashRing, n: int = 1) -> List[MovedRange]:
    """Arcs whose top-``n`` intended-owner list differs between two rings.

    The union of both rings' vnode positions cuts hash space into arcs
    that are owner-uniform in *both* rings, so comparing one probe per
    arc is exact. Adjacent arcs with identical (old, new) owner lists are
    coalesced. A rebalance needs to move exactly the keys in the arcs
    returned here — cost proportional to the reshape, not the keyspace.
    """
    bounds = sorted(set(before._hashes) | set(after._hashes))
    moved: List[MovedRange] = []
    for index, start in enumerate(bounds):
        end = bounds[(index + 1) % len(bounds)]
        old = tuple(before.owners_at(start, n))
        new = tuple(after.owners_at(start, n))
        if old == new:
            continue
        previous = moved[-1] if moved else None
        if (
            previous is not None
            and previous.end == start
            and previous.old_owners == old
            and previous.new_owners == new
        ):
            moved[-1] = MovedRange(previous.start, end, old, new)
        else:
            moved.append(MovedRange(start, end, old, new))
    # Coalesce across the zero-wrap seam as well.
    if (
        len(moved) > 1
        and moved[-1].end == moved[0].start
        and moved[-1].old_owners == moved[0].old_owners
        and moved[-1].new_owners == moved[0].new_owners
    ):
        last = moved.pop()
        moved[0] = MovedRange(
            last.start, moved[0].end, moved[0].old_owners, moved[0].new_owners
        )
    return moved
