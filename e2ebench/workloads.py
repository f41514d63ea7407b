"""The benchmark's four workloads.

A run repeats episodes, and each workload splits an episode the same
way:

- ``prepare(seed, index)`` builds the episode's world from nothing
  (zipf CDF, cluster, preload); ``setup_s`` times it;
- ``run(world, probe)`` does the episode's fixed amount of work, timing
  only that, and returns an :class:`Outcome`;
- ``check(evidence)`` returns the episode's correctness violations.

An episode is a pure function of ``(seed, index)``: its simulator, its
RNG streams and its key choices all derive from them, so the same seed
replays the same simulated outcome whatever the host does. Every count a
"per op" metric divides by is fixed by the workload (``Outcome.ops``),
never by what the program decides.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cart.service import CartService
from repro.cart.strategies import OpCartStrategy
from repro.chaos.game_day import GameDayScenario
from repro.dynamo.cluster import DynamoClient, DynamoCluster, QuorumUnavailable
from repro.dynamo.versions import VectorClock, VersionedValue
from repro.errors import CrashedError, TimeoutError_
from repro.logship import LogShippingSystem
from repro.net.latency import ExponentialLatency
from repro.net.network import LinkConfig, Network
from repro.net.rpc import RpcError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.workload.zipf import ZipfKeyGenerator

from probe import Probe

#: Client-op failures a driver counts instead of raising.
CLIENT_ERRORS = (QuorumUnavailable, TimeoutError_, RpcError, CrashedError)

#: Client-facing calls that get a span (and an op id) in the traced run.
CLIENT_OPS = (
    (DynamoClient, "get"), (DynamoClient, "put"),
    (CartService, "add"), (CartService, "view"),
    (LogShippingSystem, "submit_to"),
)

#: Further layer boundaries the traced run puts a span on.
SPAN_BOUNDS = (
    (ZipfKeyGenerator, "__init__"),
    (GameDayScenario, "run"),
    (DynamoCluster, "run_merkle_round"),
    (DynamoCluster, "run_anti_entropy_round"),
    (DynamoCluster, "run_handoff_round"),
    (DynamoCluster, "join"),
    (DynamoCluster, "decommission"),
    (LogShippingSystem, "take_over"),
)


def episode_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def lan(sim: Simulator) -> Network:
    """A LAN with a latency floor plus an exponential tail: simulated
    latencies then depend on the seed instead of being a fixed multiple
    of one hop."""
    return Network(sim, default_link=LinkConfig(
        latency=ExponentialLatency(floor=0.0005, mean_extra=0.0005)))


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def clock_items(clock: VectorClock) -> List[Tuple[str, int]]:
    return sorted(clock.counters.items())


def store_state(clusters: List[DynamoCluster]) -> Dict[str, Any]:
    """Every replica's sibling frontier, in a replay-stable order."""
    return {
        f"{index}:{name}": {
            key: sorted(
                [json.dumps(version.value, sort_keys=True, default=repr),
                 clock_items(version.clock)]
                for version in versions
            )
            for key, versions in node.store.items()
        }
        for index, cluster in enumerate(clusters)
        for name, node in cluster.nodes.items()
    }


def sim_state(sims: List[Simulator]) -> List[Any]:
    return [[sim.now, sim.steps, sorted(sim.metrics.counters().items())] for sim in sims]


@dataclass
class Outcome:
    """What one episode did."""

    ops: int                      # fixed by the workload
    attempts: int                 # client ops issued to the simulated system
    acked: int                    # client ops it acknowledged
    latencies: List[float]        # simulated seconds per acked client op
    host_s: float                 # host seconds of the measured phase
    evidence: Dict[str, Any]      # what check() reads
    digest: str                   # sim counters + final replica stores
    sim: Dict[str, float] = field(default_factory=dict)  # outcome numbers


class Stopwatch:
    """Host seconds accumulated over the phases the workload measures."""

    def __init__(self) -> None:
        self.total = 0.0
        self._started: Optional[float] = None

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> None:
        assert self._started is not None
        self.total += time.perf_counter() - self._started
        self._started = None


def events_and_msgs(sims: List[Simulator]) -> Dict[str, float]:
    return {
        "events": float(sum(sim.steps for sim in sims)),
        "msgs": float(sum(sim.metrics.counters().get("net.sent", 0.0) for sim in sims)),
    }


# ----------------------------------------------------------------------


class RingServe:
    """Open loop in simulated time: Poisson arrivals of zipf(0.99) GETs
    and read-modify-write PUTs, 90% reads, over a million-key space on an
    8-node ring. The read path at scale; its setup (the zipf CDF) is the
    heaviest of the four."""

    name = "ring_serve"
    untraced_ops: Tuple[Tuple[type, str], ...] = ()
    fixed_episodes = 1
    requests = 2000
    rate = 400.0
    get_fraction = 0.9
    keyspace = 1_000_000
    theta = 0.99

    def prepare(self, seed: int, index: int) -> Dict[str, Any]:
        keys = ZipfKeyGenerator(random.Random(episode_seed(seed, index)),
                                keyspace=self.keyspace, theta=self.theta)
        sim = Simulator(seed=episode_seed(seed, index))
        cluster = DynamoCluster(num_nodes=8, sim=sim, network=lan(sim))
        return {"sim": sim, "cluster": cluster, "keys": keys}

    def run(self, world: Dict[str, Any], probe: Probe) -> Outcome:
        sim, cluster, keys = world["sim"], world["cluster"], world["keys"]
        client = cluster.client("serve")
        rng = sim.rng.stream("bench.serve")
        latencies: List[float] = []
        acked_puts: List[Tuple[str, str, List[Tuple[str, int]]]] = []

        def request(index: int, key: str, is_get: bool):
            due = sim.now
            try:
                result = yield from client.get(key)
                if not is_get:
                    value = f"v{index}"
                    clock = yield from client.put(key, value, context=result.context)
                    acked_puts.append((key, value, clock_items(clock)))
            except CLIENT_ERRORS:
                return
            latencies.append(sim.now - due)

        def arrivals():
            for index in range(self.requests):
                yield Timeout(rng.expovariate(self.rate))
                gen = request(index, keys.key(), rng.random() < self.get_fraction)
                if probe.spans:
                    gen = probe.op("ring_serve.request", gen, sim)
                sim.spawn(gen, name=f"serve-{index}")

        watch = Stopwatch()
        watch.start()
        sim.spawn(arrivals(), name="serve.arrivals")
        sim.run()
        watch.stop()

        reader = cluster.client("final-reader")
        final: Dict[str, List[Any]] = {}

        def read_back():
            for key in sorted({key for key, _value, _clock in acked_puts}):
                result = yield from reader.get(key)
                final[key] = [[s.value, clock_items(s.clock)] for s in result.siblings]

        sim.run_process(read_back())
        return Outcome(
            ops=self.requests,
            attempts=self.requests,
            acked=len(latencies),
            latencies=latencies,
            host_s=watch.total,
            evidence={"acked_puts": acked_puts, "final": final},
            digest=digest([sim_state([sim]), store_state([cluster])]),
            sim=events_and_msgs([sim]),
        )

    @staticmethod
    def check(evidence: Dict[str, Any]) -> List[str]:
        """Every acked PUT is readable by the final quorum GET: some
        returned sibling's clock descends the acked clock, and a sibling
        with exactly that clock holds exactly that value."""
        errors = []
        for key, value, clock in evidence["acked_puts"]:
            acked = VectorClock(dict(clock))
            readable = False
            for sibling_value, sibling_clock in evidence["final"].get(key, []):
                sibling = VectorClock(dict(sibling_clock))
                if sibling == acked:
                    readable = sibling_value == value
                    break
                readable = readable or sibling.descends(acked)
            if not readable:
                errors.append(f"ring_serve: acked PUT {key}={value} not readable")
        return errors


class CartHot:
    """Closed loop: one shopper alternating two devices on one hot cart
    (§6.1) — add, view every 10th op, 10 ms think time. The write path
    into the same Dynamo layer, with vector-clock merges on one key."""

    name = "cart_hot"
    untraced_ops: Tuple[Tuple[type, str], ...] = ()
    fixed_episodes = 1
    adds = 600
    view_every = 10
    think = 0.01

    def prepare(self, seed: int, index: int) -> Dict[str, Any]:
        sim = Simulator(seed=episode_seed(seed, index))
        cluster = DynamoCluster(num_nodes=5, sim=sim, network=lan(sim))
        devices = [
            CartService(cluster, OpCartStrategy(), client=cluster.client(device))
            for device in ("phone", "laptop")
        ]
        return {"sim": sim, "cluster": cluster, "devices": devices}

    def run(self, world: Dict[str, Any], probe: Probe) -> Outcome:
        sim, cluster, devices = world["sim"], world["cluster"], world["devices"]
        latencies: List[float] = []
        items = [f"item{index}" for index in range(self.adds)]

        def shopping():
            for index, item in enumerate(items):
                device = devices[index % 2]
                due = sim.now
                yield from device.add("cart", item)
                latencies.append(sim.now - due)
                if index % self.view_every == self.view_every - 1:
                    due = sim.now
                    yield from device.view("cart")
                    latencies.append(sim.now - due)
                yield Timeout(self.think)

        watch = Stopwatch()
        watch.start()
        sim.run_process(shopping())
        sim.run()
        watch.stop()
        view = sim.run_process(devices[0].view("cart"))
        ops = self.adds + self.adds // self.view_every
        return Outcome(
            ops=ops,
            attempts=ops,
            acked=len(latencies),
            latencies=latencies,
            host_s=watch.total,
            evidence={"added": items, "view": view},
            digest=digest([sim_state([sim]), store_state([cluster])]),
            sim=events_and_msgs([sim]),
        )

    @staticmethod
    def check(evidence: Dict[str, Any]) -> List[str]:
        """The final view holds every added item, once."""
        view = evidence["view"]
        return [
            f"cart_hot: {item} missing from the final view (has {view.get(item, 0)})"
            for item in evidence["added"]
            if view.get(item, 0) != 1
        ]


class RingRepair:
    """Preload K keys onto their owners; cut one node off while a writer
    lands read-modify-write puts; heal; run Merkle rounds until one
    ships no bucket; then join one node and decommission another.
    Protocol-bound (ring hashing, digests), with few simulated events."""

    name = "ring_repair"
    untraced_ops: Tuple[Tuple[type, str], ...] = ()
    fixed_episodes = 2
    keys = 1000
    writes = 200
    think = 0.01
    max_rounds = 8

    def prepare(self, seed: int, index: int) -> Dict[str, Any]:
        sim = Simulator(seed=episode_seed(seed, index))
        cluster = DynamoCluster(num_nodes=8, sim=sim, network=lan(sim))
        rng = random.Random(episode_seed(seed, index))
        keys = [f"key{n}" for n in rng.sample(range(10_000_000), self.keys)]
        for value, key in enumerate(keys):
            version = VersionedValue(value, VectorClock({"loader": 1}))
            for owner in cluster.ring.intended_owners(key, cluster.n):
                cluster.nodes[owner].store_version(key, version)
        victim, leaver = rng.sample(sorted(cluster.nodes), 2)
        return {"sim": sim, "cluster": cluster, "keys": keys, "rng": rng,
                "victim": victim, "leaver": leaver}

    def run(self, world: Dict[str, Any], probe: Probe) -> Outcome:
        sim, cluster, keys = world["sim"], world["cluster"], world["keys"]
        rng = world["rng"]
        targets = [rng.choice(keys) for _ in range(self.writes)]
        latencies: List[float] = []
        acked = 0

        def writer(client: DynamoClient):
            nonlocal acked
            for index, key in enumerate(targets):
                due = sim.now
                try:
                    result = yield from client.get(key)
                    yield from client.put(key, f"w{index}", context=result.context)
                except CLIENT_ERRORS:
                    pass
                else:
                    acked += 1
                    latencies.append(sim.now - due)
                yield Timeout(self.think)

        def repair():
            shipped, rounds = [], 0
            while rounds < self.max_rounds:
                stats = yield from cluster.run_merkle_round()
                rounds += 1
                if stats["bucket_msgs"] == 0:
                    break
                shipped.append(sim.now)
            return shipped, rounds

        watch = Stopwatch()
        watch.start()
        client = cluster.client("repair-writer")
        cluster.network.partition([[world["victim"]]])
        sim.run_process(writer(client))
        cluster.network.heal()
        healed_at = sim.now
        shipped, rounds = sim.run_process(repair())
        watch.stop()
        converged = {key: cluster.converged_on(key) for key in keys}
        watch.start()
        sim.run_process(cluster.join(f"node{len(cluster.nodes)}"))
        sim.run_process(cluster.decommission(world["leaver"]))
        sim.run()
        watch.stop()
        ownership = {
            key: [owner for owner in cluster.ring.intended_owners(key, cluster.n)
                  if owner not in cluster.nodes or not cluster.nodes[owner].versions_of(key)]
            for key in keys
        }
        outcome = {"converge_s": (shipped[-1] if shipped else healed_at) - healed_at}
        outcome.update(events_and_msgs([sim]))
        return Outcome(
            ops=self.keys,
            attempts=self.writes,
            acked=acked,
            latencies=latencies,
            host_s=watch.total,
            evidence={
                "converged": converged,
                "unowned": {key: owners for key, owners in ownership.items() if owners},
                "rounds": rounds,
                "max_rounds": self.max_rounds,
                "leaver": world["leaver"],
                "ring_nodes": sorted(cluster.ring.nodes),
            },
            digest=digest([sim_state([sim]), store_state([cluster])]),
            sim=outcome,
        )

    @staticmethod
    def check(evidence: Dict[str, Any]) -> List[str]:
        """Merkle repair converged every key before the reshape, and
        after join + decommission every key's intended owners hold it."""
        errors = [
            f"ring_repair: owners of {key} disagree after repair"
            for key, ok in evidence["converged"].items() if not ok
        ]
        if evidence["rounds"] >= evidence["max_rounds"]:
            errors.append("ring_repair: Merkle rounds never went quiet")
        errors += [
            f"ring_repair: intended owners {owners} lack {key} after reshape"
            for key, owners in evidence["unowned"].items()
        ]
        if evidence["leaver"] in evidence["ring_nodes"]:
            errors.append(f"ring_repair: {evidence['leaver']} still on the ring")
        return errors


class GameDay:
    """A serial sweep of fenced, phi-detector game days: three DCs, a WAN
    cut, a retry storm and a slow disk in one window. The only workload
    with injected faults, and the only one that runs failover, log
    shipping, storage, chaos and the WAN topology."""

    name = "game_day"
    fixed_episodes = 8
    cut_length = 8.0
    # The scenario issues its own writes: count and time them as they
    # cross into the Dynamo and log-shipping clients.
    untraced_ops = ((DynamoClient, "put"), (LogShippingSystem, "submit_to"))

    def prepare(self, seed: int, index: int) -> Dict[str, Any]:
        # The cut starts at a seed-drawn phase of the heartbeat period, so
        # detection and takeover times vary with the seed.
        cut_start = 8.0 + random.Random(episode_seed(seed, index)).uniform(0.0, 0.25)
        scenario = GameDayScenario(
            policy="fenced", detector="phi",
            cut_start=cut_start, cut_end=cut_start + self.cut_length,
        )
        return {"scenario": scenario, "seed": episode_seed(seed, index),
                "plan": scenario.spec().sample(episode_seed(seed, index))}

    def run(self, world: Dict[str, Any], probe: Probe) -> Outcome:
        scenario = world["scenario"]
        first_record = len(probe.records)
        first_instance = len(probe.instances)
        started = time.perf_counter()
        report = scenario.run(world["seed"], world["plan"])
        host_s = time.perf_counter() - started
        records = probe.records[first_record:]
        built = probe.instances[first_instance:]
        sims = [obj for obj in built if isinstance(obj, Simulator)]
        clusters = [obj for obj in built if isinstance(obj, DynamoCluster)]
        systems = [obj for obj in built if isinstance(obj, LogShippingSystem)]
        counters = report.counters
        failover_time = systems[0].failover_time
        outcome = {
            "takeover_s": failover_time - scenario.cut_start if failover_time is not None else -1.0,
            "detect_s": scenario.detection_latency if scenario.detection_latency is not None else -1.0,
            "converge_s": (
                scenario.converged_at - (scenario.horizon + scenario.drain)
                if scenario.converged_at is not None else -1.0
            ),
            "false_convictions": counters.get("failover.false_convictions", 0.0),
            "failed_writes": counters.get("chaos.gameday.informed_failures", 0.0),
            "stale_rejected": counters.get("logship.stale_epoch_rejected", 0.0),
        }
        outcome.update(events_and_msgs(sims))
        primaries = [sorted(system.primary.state.items()) for system in systems]
        return Outcome(
            ops=len(records),
            attempts=len(records),
            acked=sum(1 for record in records if record.ok),
            latencies=[record.sim_end - record.sim_start for record in records if record.ok],
            host_s=host_s,
            evidence={
                "violations": [f"{v}" for v in report.violations],
                "lost_acked_writes": scenario.lost_acked_writes,
                "lost_updates": scenario.lost_updates,
            },
            digest=digest([sim_state(sims), store_state(clusters), primaries]),
            sim=outcome,
        )

    @staticmethod
    def check(evidence: Dict[str, Any]) -> List[str]:
        """Zero invariant violations and zero lost acked writes."""
        errors = [f"game_day: invariant violated: {v}" for v in evidence["violations"]]
        if evidence["lost_acked_writes"]:
            errors.append(f"game_day: {evidence['lost_acked_writes']} acked writes lost")
        if evidence["lost_updates"]:
            errors.append(f"game_day: {evidence['lost_updates']} acked updates lost")
        return errors


WORKLOADS = {w.name: w for w in (RingServe(), CartHot(), RingRepair(), GameDay())}
