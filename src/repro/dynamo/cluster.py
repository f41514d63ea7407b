"""Cluster wiring and N/R/W client coordination.

The client is the coordinator (as Dynamo allows): a GET asks the key's
preference list and needs R answers; the sibling frontier of everything
returned is the result, with a merged *context* clock. A PUT increments
the coordinator's entry on the context and needs W stores; when intended
owners are unreachable the write lands on fallback nodes with a hint —
availability over consistency, always accept the PUT.

The ring is elastic: :meth:`DynamoCluster.join` splices a new node in
and bootstraps exactly the key ranges it now owns from their previous
owners (range-scoped Merkle transfer); :meth:`DynamoCluster.decommission`
routes writes away first, then streams the leaving node's ranges to
their new owners before it departs. Both are driven through
:class:`repro.cluster.membership.Membership`, and every hinted-handoff
and intended-owner check consults the *current* ring — so an acked write
is never stranded mid-reshape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.membership import Membership
from repro.errors import (
    CrashedError,
    QuicksandError,
    SimulationError,
    TimeoutError_,
)
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig, Network
from repro.net.rpc import Endpoint, RpcError
from repro.resilience import RetryPolicy
from repro.sim.events import AllOf
from repro.sim.scheduler import Simulator
from repro.dynamo.node import DynamoNode
from repro.dynamo.ring import HashRing, key_in_ranges, moved_ranges
from repro.dynamo.versions import VectorClock, VersionedValue, prune_dominated

#: Exceptions one peer's failure shows up as, mid-round: no reply in time,
#: a remote error, or our own endpoint dying under us.
_PEER_ERRORS = (TimeoutError_, RpcError, CrashedError)


#: Node-to-node replication traffic (anti-entropy pushes, Merkle sync):
#: one retry on a half-second timer — the historic fixed discipline.
REPLICATION_POLICY = RetryPolicy(max_attempts=2, timeout=0.5)

#: Client scatter/gather traffic: the quorum machinery is the real retry
#: layer, so each leg gets one fast retry and gives up (sloppy quorum
#: falls back to hinted handoff instead of waiting).
CLIENT_POLICY = RetryPolicy(max_attempts=2, timeout=0.05)


class QuorumUnavailable(QuicksandError):
    """Could not gather the required R or W responses."""


@dataclass
class GetResult:
    """What a GET hands the application: sibling values + merged context."""

    siblings: List[VersionedValue]
    context: VectorClock

    @property
    def values(self) -> List[Any]:
        return [s.value for s in self.siblings]

    @property
    def conflicted(self) -> bool:
        return len(self.siblings) > 1


class DynamoCluster:
    """N storage nodes on one fabric, plus client factories."""

    def __init__(
        self,
        num_nodes: int = 5,
        n: int = 3,
        r: int = 2,
        w: int = 2,
        seed: int = 0,
        message_latency: float = 0.001,
        sim: Optional[Simulator] = None,
        hinted_handoff: bool = True,
        read_repair: bool = True,
        snapshot_cadence: Optional[float] = None,
        network: Optional[Network] = None,
    ) -> None:
        if not 1 <= r <= n or not 1 <= w <= n or n > num_nodes:
            raise SimulationError(f"bad quorum config N={n} R={r} W={w}")
        self.sim = sim or Simulator(seed=seed)
        if network is not None and network.sim is not self.sim:
            raise SimulationError("network belongs to a different simulator")
        # A caller-supplied network (e.g. a multi-site TopologyNetwork)
        # lets the ring share one fabric with other subsystems;
        # message_latency only shapes the fallback flat fabric.
        self.network = network or Network(
            self.sim, default_link=LinkConfig(latency=FixedLatency(message_latency))
        )
        self.n, self.r, self.w = n, r, w
        self.hinted_handoff = hinted_handoff
        self.read_repair = read_repair
        self.snapshot_cadence = snapshot_cadence
        self.nodes: Dict[str, DynamoNode] = {
            f"node{i}": DynamoNode(self.sim, self.network, f"node{i}")
            for i in range(num_nodes)
        }
        if snapshot_cadence is not None:
            for node in self.nodes.values():
                node.enable_snapshots(snapshot_cadence)
                node.snapshotter.start()
        self.ring = HashRing(list(self.nodes), vnodes=16)
        self.membership = Membership.of_names(self.nodes)
        # Gossip-driven membership (opt-in via attach_gossip_membership):
        # a per-node MembershipView plus its epidemic disseminator. When
        # attached, preference lists, anti-entropy, and clients consult
        # each node's LOCAL view — the shared Membership above stays the
        # omniscient oracle for experiments that are not studying this.
        self.views: Optional[Dict[str, Any]] = None
        self.membership_gossips: Dict[str, Any] = {}
        self._gossip_until: Optional[float] = None
        self._client_ids = itertools.count(1)
        for node in self.nodes.values():
            self._register_merkle_handlers(node)

    def client(
        self, name: Optional[str] = None, view_of: Optional[str] = None
    ) -> "DynamoClient":
        """A coordinator client. ``view_of`` names a node whose local
        gossip view the client routes by (the coordinator is co-located
        with that node, §4.2-style); None keeps the oracle-free
        reachability-only behavior."""
        view = None
        if view_of is not None:
            if self.views is None or view_of not in self.views:
                raise SimulationError(
                    f"no gossip membership view for {view_of!r}"
                )
            view = self.views[view_of]
        return DynamoClient(
            self, name or f"dynclient{next(self._client_ids)}", view=view
        )

    # ------------------------------------------------------------------
    # Gossip-driven membership

    def attach_gossip_membership(
        self,
        period: float = 0.25,
        fanout: int = 2,
        suspicion_timeout: float = 1.5,
        full_sync_every: int = 4,
    ) -> None:
        """Give every node a local :class:`MembershipView` disseminated
        epidemically over the nodes' own endpoints. From here on, who is
        alive is a *rumor*: detectors and failed gossip probes suspect
        into local views, refutations outrank accusations, and no node
        can consult the cluster-object oracle on behalf of another."""
        from repro.cluster.gossip_membership import (
            MembershipGossip,
            MembershipView,
        )

        if self.views is not None:
            raise SimulationError("gossip membership already attached")
        names = list(self.nodes)
        self.views = {}
        for name, node in self.nodes.items():
            view = MembershipView(
                name, self.sim, suspicion_timeout=suspicion_timeout
            )
            view.seed(names)
            self.views[name] = view
            self.membership_gossips[name] = MembershipGossip(
                view, endpoint=node.endpoint, period=period, fanout=fanout,
                full_sync_every=full_sync_every,
            )

    def start_membership_gossip(self, until: Optional[float] = None) -> None:
        if self.views is None:
            raise SimulationError("attach_gossip_membership first")
        self._gossip_until = until
        for gossip in self.membership_gossips.values():
            gossip.run(until)

    def stop_membership_gossip(self) -> None:
        for gossip in self.membership_gossips.values():
            gossip.stop()
        self._gossip_until = None

    def view_of(self, name: str) -> Any:
        if self.views is None or name not in self.views:
            raise SimulationError(f"no gossip membership view for {name!r}")
        return self.views[name]

    def _usable_by(self, observer: str, target: str) -> bool:
        """Liveness as ``observer`` believes it: its local gossip view
        when one is attached (possibly stale, possibly wrong), else the
        shared oracle."""
        if self.views is not None and observer in self.views:
            return self.views[observer].is_usable(target)
        return self.alive(target)

    def _bootstrap_gossip_view(
        self, node_name: str
    ) -> Generator[Any, Any, None]:
        """Seed a joiner's view: it knows itself plus one introducer (the
        first reachable peer, deterministically), then runs one full
        push-pull with it — after which both sides hold each other and
        the epidemic does the rest."""
        from repro.cluster.gossip_membership import (
            MembershipGossip,
            MembershipView,
        )

        template = next(iter(self.views.values()), None)
        view = MembershipView(
            node_name, self.sim,
            suspicion_timeout=(
                template.suspicion_timeout if template is not None else 1.5
            ),
        )
        introducer = next(
            (
                name for name in sorted(self.views)
                if self.alive(name)
                and self.network.reachable(node_name, name)
            ),
            None,
        )
        gossip = MembershipGossip(
            view, endpoint=self.nodes[node_name].endpoint,
            period=self._gossip_period(), fanout=self._gossip_fanout(),
        )
        self.views[node_name] = view
        self.membership_gossips[node_name] = gossip
        if introducer is not None:
            view.seed([introducer])
            yield from gossip.round_once(force_full=True)
        if self._gossip_until is not None:
            gossip.run(self._gossip_until)

    def _gossip_period(self) -> float:
        for gossip in self.membership_gossips.values():
            return gossip.period
        return 0.25

    def _gossip_fanout(self) -> int:
        for gossip in self.membership_gossips.values():
            return gossip.fanout
        return 2

    def alive(self, node_name: str) -> bool:
        return (
            node_name in self.nodes
            and self.membership.is_alive(node_name)
            and self.network.is_attached(node_name)
        )

    def crash(self, node_name: str) -> None:
        self.nodes[node_name].crash()
        self.membership.mark_down(node_name)

    def restart(self, node_name: str) -> None:
        self.nodes[node_name].restart()
        self.membership.mark_up(node_name)

    def cold_crash(self, node_name: str) -> int:
        """Crash a node *losing its store* (vs :meth:`crash`, which models
        the store as durable). Returns versions lost."""
        lost = self.nodes[node_name].cold_crash()
        self.membership.mark_down(node_name)
        return lost

    def cold_restart(self, node_name: str) -> Generator[Any, Any, Dict[str, Any]]:
        """Rejoin a cold-crashed node: snapshot seed, then the caller runs
        handoff + Merkle rounds to close the remaining diff."""
        result = yield from self.nodes[node_name].cold_restart()
        self.membership.mark_up(node_name)
        return result

    def run_handoff_round(self) -> Generator[Any, Any, int]:
        """Drive one hint-delivery pass on every node; returns total
        delivered. Experiments call this after partitions heal."""
        total = 0
        for node in self.nodes.values():
            if self.alive(node.name) and node.hints:
                delivered = yield from node.deliver_hints()
                total += delivered
        return total

    def run_anti_entropy_round(self) -> Generator[Any, Any, int]:
        """Replica synchronization (Dynamo's Merkle-tree sync, modelled at
        version granularity): every node pushes each key's sibling
        frontier to that key's other intended owners. Returns versions
        pushed. Idempotent once converged."""
        pushed = 0
        for node in list(self.nodes.values()):
            if not self.alive(node.name):
                continue
            # Peers that already failed this round. A fault overlay (say,
            # a WAN cut — reachable() only sees hard partitions) turns
            # every push to a cut-off peer into a timeout; without this
            # skip set the node burns the retry policy's full budget per
            # key × peer and starves its *intra-site* peers of the round.
            unresponsive: set = set()
            try:
                for key, versions in list(node.store.items()):
                    owners = self.ring.intended_owners(key, self.n)
                    for owner in owners:
                        if owner == node.name or owner not in self.nodes:
                            continue
                        if owner in unresponsive:
                            continue
                        if self.views is not None and not self._usable_by(
                            node.name, owner
                        ):
                            # The pusher's own view says this owner is
                            # dead or gone — it acts on its local (maybe
                            # stale) opinion; anti-entropy heals the gap
                            # once the rumor mill catches up.
                            continue
                        if not self.network.reachable(node.name, owner):
                            continue
                        peer_clocks = {
                            v.clock for v in self.nodes[owner].versions_of(key)
                        }
                        try:
                            for version in versions:
                                if any(pc.descends(version.clock)
                                       for pc in peer_clocks):
                                    continue
                                yield from node.endpoint.call(
                                    owner, "PUT",
                                    {"key": key, "value": version.value,
                                     "clock": dict(version.clock.counters)},
                                    policy=REPLICATION_POLICY,
                                )
                                pushed += 1
                        except _PEER_ERRORS:
                            # One peer failing mid-round (e.g. crashing
                            # between the liveness check and the call)
                            # must not abort the whole round: skip it,
                            # count it, keep going with the others.
                            unresponsive.add(owner)
                            self.sim.metrics.inc("dynamo.anti_entropy_errors")
            except (CrashedError, SimulationError):
                # The *source* node died under us: its remaining pushes
                # are moot, but other nodes still get their turn.
                self.sim.metrics.inc("dynamo.anti_entropy_errors")
        if pushed:
            self.sim.metrics.inc("dynamo.anti_entropy_pushes", pushed)
        return pushed

    # ------------------------------------------------------------------
    # Merkle-digest anti-entropy (bucketed, message-efficient)

    def _register_merkle_handlers(self, node: DynamoNode) -> None:
        from repro.dynamo.merkle import all_digests
        from repro.dynamo.versions import VectorClock, VersionedValue

        def handle_digests(endpoint, msg):
            serving = self.nodes[endpoint.name]
            ranges = msg.payload.get("ranges")
            if ranges is not None:
                view = self._range_view(serving, ranges)
            else:
                view = self._shared_ownership_view(serving, msg.src)
            return {"digests": all_digests(
                view, msg.payload["buckets"], self.ring.position
            )}

        def handle_sync_bucket(endpoint, msg):
            serving = self.nodes[endpoint.name]
            buckets = msg.payload["buckets"]
            bucket = msg.payload["bucket"]
            ranges = msg.payload.get("ranges")
            # Integrate what the peer sent — only keys we should own
            # under the *current* ring, so a reshape mid-flight can
            # never plant data on a node that just lost the range.
            integrated = 0
            for entry in msg.payload["versions"]:
                key = entry["key"]
                if endpoint.name not in self.ring.intended_owners(key, self.n):
                    continue
                version = VersionedValue(
                    entry["value"], VectorClock(entry["clock"])
                )
                if not self._holds(serving, key, version.clock):
                    integrated += 1
                serving.store_version(key, version)
            # Reply with our versions of this bucket: within the named
            # ranges for a range-scoped transfer, else keys the peer owns.
            peer = msg.src
            position = self.ring.position
            reply = []
            for key, versions in serving.store.items():
                if position(key) % buckets != bucket:
                    continue
                if ranges is not None:
                    if not key_in_ranges(key, ranges, position):
                        continue
                elif peer not in self.ring.intended_owners(key, self.n):
                    continue
                for version in versions:
                    reply.append({"key": key, "value": version.value,
                                  "clock": dict(version.clock.counters)})
            return {"versions": reply, "integrated": integrated}

        node.endpoint.register("DIGESTS", handle_digests)
        node.endpoint.register("SYNC_BUCKET", handle_sync_bucket)

    @staticmethod
    def _holds(node: DynamoNode, key: str, clock: Any) -> bool:
        """Whether ``node`` already covers a version (some stored clock
        descends it) — re-shipping it moves no new information."""
        return any(v.clock.descends(clock) for v in node.versions_of(key))

    def _shared_ownership_view(self, node: DynamoNode, peer: str) -> Dict[str, list]:
        """The slice of a node's store that a Merkle comparison with
        ``peer`` covers: keys whose intended owners include both sides —
        the per-key-range trees real Dynamo keeps per replica pair."""
        view = {}
        for key, versions in node.store.items():
            owners = self.ring.intended_owners(key, self.n)
            if node.name in owners and peer in owners:
                view[key] = versions
        return view

    def _range_view(
        self, node: DynamoNode, ranges: Sequence[Sequence[int]]
    ) -> Dict[str, list]:
        """The slice of a node's store inside the given hash arcs — the
        view a range-scoped rebalance transfer compares and ships."""
        position = self.ring.position
        return {
            key: versions
            for key, versions in node.store.items()
            if key_in_ranges(key, ranges, position)
        }

    def run_merkle_round(self, buckets: int = 16) -> Generator[Any, Any, Dict[str, int]]:
        """One digest-first anti-entropy pass over every live node pair.

        Returns message accounting: digest exchanges vs bucket payloads —
        once converged, a round costs only the digest messages."""
        from repro.dynamo.merkle import bucket_digest, split_buckets
        from repro.dynamo.versions import VectorClock, VersionedValue

        stats = {"digest_msgs": 0, "bucket_msgs": 0, "versions_moved": 0}
        names = sorted(self.nodes)
        # Same per-round isolation as run_anti_entropy_round: once a peer
        # times out (a soft cut reachable() cannot see), skip its other
        # pairings this round instead of paying the timeout N more times.
        unresponsive: set = set()
        for i, a_name in enumerate(names):
            for b_name in names[i + 1:]:
                if a_name in unresponsive or b_name in unresponsive:
                    continue
                if not self.alive(a_name):
                    continue
                # The initiator judges its peer by its own local view
                # when gossip membership is attached; the oracle otherwise.
                if self.views is not None:
                    if not self._usable_by(a_name, b_name):
                        continue
                elif not self.alive(b_name):
                    continue
                if not self.network.reachable(a_name, b_name):
                    continue
                a = self.nodes[a_name]
                try:
                    reply = yield from a.endpoint.call(
                        b_name, "DIGESTS", {"buckets": buckets},
                        policy=REPLICATION_POLICY,
                    )
                except _PEER_ERRORS + (SimulationError,):
                    # A peer (or our own endpoint) failing mid-round must
                    # not abort the round: the remaining pairs still sync.
                    unresponsive.add(b_name)
                    self.sim.metrics.inc("dynamo.anti_entropy_errors")
                    continue
                stats["digest_msgs"] += 1
                theirs = reply["digests"]
                shared = split_buckets(
                    self._shared_ownership_view(a, b_name), buckets,
                    self.ring.position,
                )
                mine = [bucket_digest(part) for part in shared]
                for bucket, part in enumerate(shared):
                    if mine[bucket] == theirs[bucket]:
                        continue
                    payload = []
                    for key, versions in part.items():
                        for version in versions:
                            payload.append({"key": key, "value": version.value,
                                            "clock": dict(version.clock.counters)})
                    try:
                        sync_reply = yield from a.endpoint.call(
                            b_name, "SYNC_BUCKET",
                            {"bucket": bucket, "buckets": buckets, "versions": payload},
                            policy=REPLICATION_POLICY,
                        )
                    except _PEER_ERRORS + (SimulationError,):
                        unresponsive.add(b_name)
                        self.sim.metrics.inc("dynamo.anti_entropy_errors")
                        break
                    stats["bucket_msgs"] += 1
                    stats["versions_moved"] += len(payload)
                    for entry in sync_reply["versions"]:
                        key = entry["key"]
                        if a_name not in self.ring.intended_owners(key, self.n):
                            continue
                        a.store_version(
                            key,
                            VersionedValue(entry["value"], VectorClock(entry["clock"])),
                        )
                        stats["versions_moved"] += 1
        self.sim.metrics.inc("dynamo.merkle_digest_msgs", stats["digest_msgs"])
        self.sim.metrics.inc("dynamo.merkle_bucket_msgs", stats["bucket_msgs"])
        return stats

    def converged_on(self, key: str) -> bool:
        """Do all live intended owners hold the same sibling frontier?

        ``False`` when *no* intended owner is alive: with zero replicas
        reachable nothing can be said about the key, and "vacuously
        converged" would let a reconvergence invariant pass spuriously
        during a heavy failure window.
        """
        owners = [o for o in self.ring.intended_owners(key, self.n) if self.alive(o)]
        if not owners:
            return False
        frontiers = [
            frozenset(v.clock for v in self.nodes[owner].versions_of(key))
            for owner in owners
        ]
        return len(set(frontiers)) <= 1

    # ------------------------------------------------------------------
    # Elastic membership: join / decommission with range rebalancing

    def join(
        self, node_name: str, buckets: int = 16
    ) -> Generator[Any, Any, Dict[str, int]]:
        """Splice a new node into the ring and bootstrap its ranges.

        The ring and membership are updated *first*, so every subsequent
        PUT's intended-owner and hinted-handoff checks see the new
        topology — then the joiner pulls exactly the arcs it gained from
        their previous owners via a range-scoped Merkle transfer. Until a
        range lands, its old owners still hold every acked write; reads
        meanwhile quorum across R replicas, so the cluster never depends
        on the joiner alone. Returns transfer accounting.
        """
        if node_name in self.nodes:
            raise SimulationError(f"node {node_name!r} already in the cluster")
        node = DynamoNode(self.sim, self.network, node_name)
        if self.snapshot_cadence is not None:
            node.enable_snapshots(self.snapshot_cadence)
            node.snapshotter.start()
        self._register_merkle_handlers(node)
        self.nodes[node_name] = node
        before = self.ring.clone()
        self.ring.add_node(node_name)
        self.membership.add_name(node_name)
        moved = moved_ranges(before, self.ring, self.n)
        self.sim.metrics.inc("dynamo.ring_joins")
        self.sim.trace.emit(
            node_name, "ring.join", moved_ranges=len(moved),
            nodes=len(self.nodes),
        )
        if self.views is not None:
            # The join is an ``alive`` rumor, not an oracle broadcast:
            # the joiner bootstraps its view from one introducer (a full
            # push-pull, which also plants the joiner in the introducer's
            # view) and epidemic spread does the rest. Until the rumor
            # reaches a node, that node's preference walks skip the
            # joiner and hinted handoff carries its writes.
            yield from self._bootstrap_gossip_view(node_name)
        # Pull each gained arc from every previous owner still reachable
        # (the first source ships the bulk; Merkle digests make the rest
        # near-free once the range agrees).
        pulls: Dict[str, List[Tuple[int, int]]] = {}
        for arc in moved:
            if node_name not in arc.gained:
                continue
            for source in arc.old_owners:
                if source == node_name or source not in self.nodes:
                    continue
                pulls.setdefault(source, []).append((arc.start, arc.end))
        stats = {"moved_ranges": len(moved), "versions_moved": 0,
                 "digest_msgs": 0, "bucket_msgs": 0}
        for source, ranges in pulls.items():
            if not self.alive(source):
                continue
            if not self.network.reachable(node_name, source):
                continue
            sync = yield from self._range_sync(node, source, ranges, buckets)
            for field_name in ("versions_moved", "digest_msgs", "bucket_msgs"):
                stats[field_name] += sync[field_name]
        self.sim.metrics.inc(
            "dynamo.rebalance_versions_moved", stats["versions_moved"]
        )
        return stats

    def decommission(
        self, node_name: str, buckets: int = 16
    ) -> Generator[Any, Any, Dict[str, int]]:
        """Remove a node from the ring, streaming its ranges out first.

        The ring and membership drop the node *before* the drain, so new
        writes route to the arcs' successor owners while the leaver
        ships what it holds: hints first, then a range-scoped Merkle
        push of every arc that gained an owner, then a sweep for any
        straggler versions whose current owners lack them. A dead node
        can be decommissioned too — its arcs' data survives on the other
        W-1 replicas and anti-entropy heals the copy count.
        """
        if node_name not in self.nodes:
            raise SimulationError(f"unknown node {node_name!r}")
        if len(self.nodes) - 1 < self.n:
            raise SimulationError(
                f"cannot decommission below N={self.n} nodes"
            )
        node = self.nodes[node_name]
        before = self.ring.clone()
        self.ring.remove_node(node_name)
        moved = moved_ranges(before, self.ring, self.n)
        self.sim.metrics.inc("dynamo.ring_decommissions")
        self.sim.trace.emit(
            node_name, "ring.decommission", moved_ranges=len(moved),
            nodes=len(self.nodes) - 1,
        )
        stats = {"moved_ranges": len(moved), "versions_moved": 0,
                 "digest_msgs": 0, "bucket_msgs": 0, "leftover_pushes": 0}
        if self.alive(node_name):
            yield from node.deliver_hints()
            pushes: Dict[str, List[Tuple[int, int]]] = {}
            for arc in moved:
                if node_name not in arc.old_owners:
                    continue
                for dest in arc.gained:
                    if dest in self.nodes:
                        pushes.setdefault(dest, []).append((arc.start, arc.end))
            for dest, ranges in pushes.items():
                if not self.alive(dest):
                    continue
                if not self.network.reachable(node_name, dest):
                    continue
                sync = yield from self._range_sync(node, dest, ranges, buckets)
                for field_name in ("versions_moved", "digest_msgs", "bucket_msgs"):
                    stats[field_name] += sync[field_name]
            # Straggler sweep: hints that would not deliver, stale copies
            # from older reshapes — push anything the current owners lack.
            stats["leftover_pushes"] = yield from self._drain_leftovers(node)
        if self.views is not None and node_name in self.views:
            # Announce the departure as a ``left`` rumor before the
            # endpoint dies: the leaver marks itself LEFT and pushes one
            # full exchange so at least one survivor carries the rumor on.
            # (A dead node can't announce; survivors' probes will have
            # convicted it to ``dead``, which is also a stable verdict.)
            gossip = self.membership_gossips.pop(node_name)
            view = self.views.pop(node_name)
            if self.alive(node_name):
                view.leave(node_name)
                yield from gossip.round_once(force_full=True)
            gossip.stop()
        self.membership.remove(node_name)
        node.endpoint.stop("decommissioned")
        if node.snapshotter is not None:
            node.snapshotter.stop()
        del self.nodes[node_name]
        self.sim.metrics.inc(
            "dynamo.rebalance_versions_moved",
            stats["versions_moved"] + stats["leftover_pushes"],
        )
        return stats

    def _drain_leftovers(self, node: DynamoNode) -> Generator[Any, Any, int]:
        """Push any version the leaver holds that its key's current
        owners lack — the long tail a range transfer can miss."""
        pushed = 0
        for key, versions in list(node.store.items()):
            owners = self.ring.intended_owners(key, self.n)
            for owner in owners:
                if owner not in self.nodes:
                    continue
                if not self.network.reachable(node.name, owner):
                    continue
                peer_clocks = {
                    v.clock for v in self.nodes[owner].versions_of(key)
                }
                try:
                    for version in versions:
                        if any(pc.descends(version.clock) for pc in peer_clocks):
                            continue
                        yield from node.endpoint.call(
                            owner, "PUT",
                            {"key": key, "value": version.value,
                             "clock": dict(version.clock.counters)},
                            policy=REPLICATION_POLICY,
                        )
                        pushed += 1
                except _PEER_ERRORS + (SimulationError,):
                    self.sim.metrics.inc("dynamo.anti_entropy_errors")
        return pushed

    def _range_sync(
        self,
        node: DynamoNode,
        peer: str,
        ranges: Sequence[Tuple[int, int]],
        buckets: int = 16,
    ) -> Generator[Any, Any, Dict[str, int]]:
        """One range-scoped Merkle exchange with ``peer``: the same
        DIGESTS/SYNC_BUCKET verbs anti-entropy uses, restricted to the
        moved arcs. Both sides end up holding the ranges' frontier (each
        stores only what it owns under the current ring)."""
        from repro.dynamo.merkle import bucket_digest, split_buckets

        stats = {"versions_moved": 0, "digest_msgs": 0, "bucket_msgs": 0}
        range_payload = [[start, end] for start, end in ranges]
        try:
            reply = yield from node.endpoint.call(
                peer, "DIGESTS",
                {"buckets": buckets, "ranges": range_payload},
                policy=REPLICATION_POLICY,
            )
        except _PEER_ERRORS + (SimulationError,):
            self.sim.metrics.inc("dynamo.anti_entropy_errors")
            return stats
        stats["digest_msgs"] += 1
        theirs = reply["digests"]
        view = split_buckets(
            self._range_view(node, range_payload), buckets, self.ring.position
        )
        mine = [bucket_digest(part) for part in view]
        for bucket, part in enumerate(view):
            if mine[bucket] == theirs[bucket]:
                continue
            payload = []
            for key, versions in part.items():
                for version in versions:
                    payload.append({"key": key, "value": version.value,
                                    "clock": dict(version.clock.counters)})
            try:
                sync_reply = yield from node.endpoint.call(
                    peer, "SYNC_BUCKET",
                    {"bucket": bucket, "buckets": buckets,
                     "ranges": range_payload, "versions": payload},
                    policy=REPLICATION_POLICY,
                )
            except _PEER_ERRORS + (SimulationError,):
                self.sim.metrics.inc("dynamo.anti_entropy_errors")
                break
            stats["bucket_msgs"] += 1
            # Count versions that changed someone's state, not wire
            # payloads: syncing the same arc with a second source ships
            # bytes but moves no new information.
            stats["versions_moved"] += sync_reply.get("integrated", 0)
            for entry in sync_reply["versions"]:
                key = entry["key"]
                if node.name not in self.ring.intended_owners(key, self.n):
                    continue
                version = VersionedValue(
                    entry["value"], VectorClock(entry["clock"])
                )
                if not self._holds(node, key, version.clock):
                    stats["versions_moved"] += 1
                node.store_version(key, version)
        return stats


class DynamoClient:
    """A coordinator endpoint implementing GET/PUT with sloppy quorum."""

    def __init__(
        self,
        cluster: DynamoCluster,
        name: str,
        policy: Optional[RetryPolicy] = None,
        view: Optional[Any] = None,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.name = name
        self.policy = policy or CLIENT_POLICY
        # When routing by a node's gossip view, the coordinator skips
        # peers that view holds dead/left — even if they are reachable.
        # A stale view therefore degrades to sloppy quorum + hinted
        # handoff, never to a stuck request.
        self.view = view
        self.endpoint = Endpoint(cluster.network, name)
        self.endpoint.start()
        # Per-key high-water mark of this client's own clock component. A
        # stale GET (sloppy quorum during a partition) can hand back a
        # context that predates our own last write; naively incrementing
        # it would mint a clock we already used — and two values under
        # one clock collapse arbitrarily at the store. A client always
        # knows how often it wrote, so it never reuses a counter.
        self._write_seq: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def get(self, key: str) -> Generator[Any, Any, GetResult]:
        """Read R replicas; returns the sibling frontier and its context.

        Raises :class:`QuorumUnavailable` when fewer than R nodes answer.
        """
        targets = self.cluster.ring.preference_list(
            key, self.cluster.n, alive=self._can_reach
        )
        responses = yield from self._scatter(targets, "GET", {"key": key})
        if len(responses) < self.cluster.r:
            raise QuorumUnavailable(f"GET {key!r}: {len(responses)} < R={self.cluster.r}")
        versions: List[VersionedValue] = []
        per_node_clocks: Dict[str, set] = {}
        for target, payload in responses:
            clocks = set()
            for entry in payload["versions"]:
                version = VersionedValue(entry["value"], VectorClock(entry["clock"]))
                versions.append(version)
                clocks.add(version.clock)
            per_node_clocks[target] = clocks
        siblings = prune_dominated(versions)
        context = VectorClock()
        for sibling in siblings:
            context = context.merge(sibling.clock)
        if len(siblings) > 1:
            self.sim.metrics.inc("dynamo.sibling_gets")
        if self.cluster.read_repair:
            self._read_repair(key, siblings, per_node_clocks)
        return GetResult(siblings=siblings, context=context)

    def _read_repair(
        self,
        key: str,
        siblings: List[VersionedValue],
        per_node_clocks: Dict[str, set],
    ) -> None:
        """Push the sibling frontier back to any responding node that is
        missing part of it (fire-and-forget, like Dynamo's read repair)."""
        frontier_clocks = {sibling.clock for sibling in siblings}
        for target, clocks in per_node_clocks.items():
            missing = frontier_clocks - clocks
            for sibling in siblings:
                if sibling.clock in missing:
                    self.endpoint.cast(
                        target, "PUT",
                        {"key": key, "value": sibling.value,
                         "clock": dict(sibling.clock.counters)},
                    )
                    self.sim.metrics.inc("dynamo.read_repairs")

    def put(
        self, key: str, value: Any, context: Optional[VectorClock] = None
    ) -> Generator[Any, Any, VectorClock]:
        """Write with a context clock (from the preceding GET); returns the
        new version's clock. Needs W stores; with hinted handoff enabled,
        fallback nodes count toward W."""
        base = context or VectorClock()
        seq = max(self._write_seq.get(key, 0), base.counters.get(self.name, 0)) + 1
        self._write_seq[key] = seq
        clock = VectorClock({**base.counters, self.name: seq})
        intended = self.cluster.ring.intended_owners(key, self.cluster.n)
        if self.cluster.hinted_handoff:
            targets = self.cluster.ring.preference_list(
                key, self.cluster.n, alive=self._can_reach
            )
        else:
            targets = [t for t in intended if self._can_reach(t)]
        # Pair each fallback target with one of the intended owners it is
        # standing in for, so its hint can be delivered home later.
        missing_owners = [node for node in intended if node not in targets]
        hint_map = dict(
            zip((t for t in targets if t not in intended), missing_owners)
        )
        payloads = []
        for target in targets:
            payload = {"key": key, "value": value, "clock": dict(clock.counters)}
            if target in hint_map:
                payload["hint_for"] = hint_map[target]
            payloads.append((target, payload))
        responses = yield from self._scatter_pairs(payloads, "PUT")
        if len(responses) < self.cluster.w:
            raise QuorumUnavailable(f"PUT {key!r}: {len(responses)} < W={self.cluster.w}")
        self.sim.metrics.inc("dynamo.puts")
        return clock

    # ------------------------------------------------------------------

    def _can_reach(self, node_name: str) -> bool:
        """This coordinator's failure-detector view: a node is usable if
        it is up *and* on our side of any partition — and, when routing
        by a gossip view, not believed dead/left by that view."""
        if self.view is not None and not self.view.is_usable(node_name):
            return False
        return self.cluster.network.reachable(self.name, node_name)

    def _scatter(
        self, targets: List[str], verb: str, payload: Dict[str, Any]
    ) -> Generator[Any, Any, List]:
        return (yield from self._scatter_pairs([(t, payload) for t in targets], verb))

    def _scatter_pairs(
        self, pairs: List, verb: str
    ) -> Generator[Any, Any, List]:
        """Call all targets in parallel; returns (target, reply-payload)
        for each successful reply."""
        procs = [
            (target, self.sim.spawn(
                self._call_safe(target, verb, payload),
                name=f"{self.name}.{verb}.{target}",
            ))
            for target, payload in pairs
        ]
        if not procs:
            return []
        results = yield AllOf([proc for _target, proc in procs])
        return [
            (target, results[proc.done])
            for target, proc in procs
            if results[proc.done] is not None
        ]

    def _call_safe(
        self, target: str, verb: str, payload: Dict[str, Any]
    ) -> Generator[Any, Any, Optional[Dict[str, Any]]]:
        try:
            result = yield from self.endpoint.call(
                target, verb, dict(payload), policy=self.policy
            )
            return result
        except (TimeoutError_, RpcError):
            return None
