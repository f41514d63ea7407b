"""Seeded runs whose rendered traces are frozen as golden fixtures.

The fixtures under ``tests/golden/fixtures/`` were captured from the
kernel *before* the perf overhaul (lazy trace formatting, batched drain
loop, network fast path). Every kernel optimization must keep these runs
bit-identical: same rendered trace lines, same final counters, same end
time. If a fixture ever needs regenerating, that is a semantic change to
the simulator and needs to be called out loudly in review:

    PYTHONPATH=src python -m tests.golden.capture
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

from repro.chaos.game_day import GameDayScenario
from repro.chaos.membership_divergence import MembershipDivergenceScenario
from repro.chaos.mixed_txn import MixedTxnScenario
from repro.chaos.rejoin import RejoinScenario
from repro.chaos.retrystorm import RetryStormScenario
from repro.chaos.ring_rebalance import RingRebalanceScenario
from repro.chaos.scenarios import BankClearingScenario, CartDynamoScenario
from repro.chaos.splitbrain import SplitBrainScenario
from repro.dynamo import DynamoCluster, VectorClock, VersionedValue
from repro.errors import CrashedError, TimeoutError_, TransactionAborted
from repro.logship import LogShippingSystem, ShipMode
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig
from repro.net.rpc import RpcError
from repro.net.topology import Site, Topology, TopologyNetwork, WanLink
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.tandem import TandemConfig, TandemSystem

FIXTURES = Path(__file__).parent / "fixtures"


def render_trace(sim: Any) -> str:
    """The canonical rendered form of a run's trace: one repr per record,
    then the eviction count and final clock. This is what must stay
    bit-identical across kernel optimizations."""
    lines = [repr(record) for record in sim.trace.records]
    lines.append(f"dropped={sim.trace.dropped}")
    lines.append(f"end={sim.now:.6g}")
    return "\n".join(lines) + "\n"


def render_counters(counters: Dict[str, float]) -> str:
    return json.dumps(counters, sort_keys=True, indent=1) + "\n"


# ----------------------------------------------------------------------
# The three frozen runs


def run_bank(seed: int = 7) -> Tuple[str, str]:
    scenario = BankClearingScenario(policy="correct")
    plan = scenario.spec().sample(seed)
    report = scenario.run(seed, plan)
    return render_trace(scenario._sim), render_counters(report.counters)


def run_cart(seed: int = 11) -> Tuple[str, str]:
    scenario = CartDynamoScenario(policy="correct")
    plan = scenario.spec().sample(seed)
    report = scenario.run(seed, plan)
    return render_trace(scenario._sim), render_counters(report.counters)


def run_tandem(seed: int = 3) -> Tuple[str, str]:
    system = TandemSystem(TandemConfig(mode="dp2", num_dps=2), seed=seed)
    sim = system.sim
    client = system.client()
    rng = sim.rng.stream("golden.tandem")

    def job():
        for i in range(25):
            txn = client.begin()
            try:
                yield from client.write(txn, f"dp{i % 2}", f"k{i % 5}", i)
                if rng.random() < 0.3:
                    yield from client.write(txn, f"dp{(i + 1) % 2}", f"j{i % 3}", i)
                yield from client.commit(txn)
            except TransactionAborted:
                sim.metrics.inc("golden.aborted")
            yield Timeout(0.002 * rng.uniform(0.5, 1.5))

    def saboteur():
        yield Timeout(0.03)
        aborted = system.crash_primary("dp0")
        sim.metrics.inc("golden.crash_aborts", len(aborted))

    sim.spawn(job(), name="golden.tandem.job")
    sim.spawn(saboteur(), name="golden.tandem.saboteur")
    sim.run(until=1.0)
    counters = sim.metrics.counters()
    counters["golden.committed_durable"] = float(system.committed_durable())
    return render_trace(sim), render_counters(counters)


def run_recovery(seed: int = 5) -> Tuple[str, str]:
    """The frozen recovery story: commits under a running snapshotter,
    fail-over (east crashes cold), a few txns in the new regime, then
    east rejoins — snapshot load, tail replay, CATCHUP re-ship. The trace
    pins the whole checkpoint/recover/rejoin path bit-for-bit."""
    system = LogShippingSystem(
        ship_interval=0.02, seed=seed, snapshot_cadence=0.4
    )
    sim = system.sim

    def job():
        for i in range(20):
            yield from system.submit({f"k{i % 5}": i})
            yield Timeout(0.05)
        # Crash before the next checkpoint fires, so recovery replays a
        # real WAL tail past the last covered LSN.
        yield Timeout(0.05)
        system.fail_over()
        for i in range(3):
            yield from system.submit({f"post{i}": i})
            yield Timeout(0.05)
        result = yield from system.rejoin("east")
        sim.metrics.inc("golden.tail_replayed", result["replayed_records"])
        yield Timeout(2.0)

    sim.run_process(job())
    counters = sim.metrics.counters()
    counters["golden.states_match"] = float(
        system.backup.state == system.primary.state
    )
    return render_trace(sim), render_counters(counters)


def run_geo(seed: int = 13) -> Tuple[str, str]:
    """The frozen two-datacenter run: log shipping across a
    :class:`TopologyNetwork` (east in one site, west + client in the
    other), a scripted WAN cut mid-stream, writes acked locally while
    shipping retries into the cut, then heal and drain. Pins the
    site-routed latency path, the site-pair fault overlay, and the
    bandwidth pipe bit-for-bit."""
    sim = Simulator(seed=seed)
    lan = FixedLatency(0.0005)
    topology = Topology(
        [Site("dc-a", lan=lan), Site("dc-b", lan=lan)],
        default_wan=WanLink(FixedLatency(0.02), bandwidth=500.0),
    )
    network = TopologyNetwork(
        sim, topology, default_link=LinkConfig(latency=FixedLatency(0.001))
    )
    system = LogShippingSystem(
        mode=ShipMode.ASYNC, ship_interval=0.02, sim=sim, network=network
    )
    topology.place("east", "dc-a")
    topology.place_all(("west", "lsclient"), "dc-b")

    def job():
        for i in range(6):
            yield from system.submit({f"k{i % 3}": i})
            yield Timeout(0.05)
        faults = network.cut_sites("dc-a", "dc-b")
        for i in range(6, 12):
            yield from system.submit({f"k{i % 3}": i})
            yield Timeout(0.05)
        network.heal_sites(faults)
        yield Timeout(2.0)

    sim.run_process(job())
    counters = sim.metrics.counters()
    counters["golden.states_match"] = float(
        system.backup.state == system.primary.state
    )
    return render_trace(sim), render_counters(counters)


def run_merkle(seed: int = 17) -> Tuple[str, str]:
    """The frozen anti-entropy story: 200 keys preloaded on an 8-node
    ring, one node cut off while a writer lands read-modify-write puts,
    heal, Merkle rounds until one ships no bucket, then a join and a
    decommission. Each round's stats and every node's final store go
    into the trace, so DIGESTS/SYNC_BUCKET payloads, range transfers and
    the stores they leave behind are pinned bit-for-bit."""
    from repro.dynamo.cluster import QuorumUnavailable

    cluster = DynamoCluster(num_nodes=8, seed=seed)
    sim = cluster.sim
    rng = sim.rng.stream("golden.merkle")
    keys = [f"key{n}" for n in rng.sample(range(1_000_000), 200)]
    for value, key in enumerate(keys):
        version = VersionedValue(value, VectorClock({"loader": 1}))
        for owner in cluster.ring.intended_owners(key, cluster.n):
            cluster.nodes[owner].store_version(key, version)
    victim, leaver = rng.sample(sorted(cluster.nodes), 2)
    targets = [rng.choice(keys) for _ in range(40)]
    client_errors = (QuorumUnavailable, TimeoutError_, RpcError, CrashedError)

    def job():
        client = cluster.client("golden-writer")
        cluster.network.partition([[victim]])
        for index, key in enumerate(targets):
            try:
                result = yield from client.get(key)
                yield from client.put(key, f"w{index}", context=result.context)
            except client_errors:
                sim.metrics.inc("golden.failed_writes")
            yield Timeout(0.01)
        cluster.network.heal()
        for round_no in range(1, 9):
            stats = yield from cluster.run_merkle_round()
            sim.trace.emit("golden", "merkle.round", round=round_no, **stats)
            if stats["bucket_msgs"] == 0:
                break
        joined = yield from cluster.join(f"node{len(cluster.nodes)}")
        sim.trace.emit("golden", "merkle.join", **joined)
        left = yield from cluster.decommission(leaver)
        sim.trace.emit("golden", "merkle.decommission", **left)
        yield Timeout(1.0)
        for name in sorted(cluster.nodes):
            store = cluster.nodes[name].store
            frontier = [
                (key, sorted((repr(v.value), sorted(v.clock.counters.items()))
                             for v in store[key]))
                for key in sorted(store)
            ]
            sim.trace.emit(
                "golden", "merkle.store", node=name, keys=len(store),
                sha256=hashlib.sha256(repr(frontier).encode()).hexdigest(),
            )

    sim.run_process(job())
    return render_trace(sim), render_counters(sim.metrics.counters())


GOLDEN_RUNS = {
    "bank_seed7": run_bank,
    "cart_seed11": run_cart,
    "geo_seed13": run_geo,
    "merkle_seed17": run_merkle,
    "recovery_seed5": run_recovery,
    "tandem_seed3": run_tandem,
}


def fixture_paths(name: str) -> Tuple[Path, Path]:
    return FIXTURES / f"{name}.trace.txt", FIXTURES / f"{name}.counters.json"


# ----------------------------------------------------------------------
# Chaos scenarios without a full trace fixture: one seed-0 run each, in
# the configuration the ``--smoke`` sweep uses, frozen as a digest
# (end time, counters, violation signatures, SHA-256 of the rendered
# trace). Refactors of the scenario code must leave every entry as is.

_MIXED_TXN_SHORT = dict(
    horizon=16.0, partition_start=4.0, partition_end=9.0, drain=8.0
)

CHAOS_VARIANTS: Dict[str, Callable[[], Any]] = {
    "rejoin_snapshot": lambda: RejoinScenario(policy="snapshot"),
    "rejoin_no_snapshot": lambda: RejoinScenario(policy="no-snapshot"),
    "ring_rebalance": RingRebalanceScenario,
    "membership_divergence": MembershipDivergenceScenario,
    "retry_storm_resilient": lambda: RetryStormScenario(policy="resilient"),
    "retry_storm_naive": lambda: RetryStormScenario(policy="naive"),
    "mixed_txn_leader": lambda: MixedTxnScenario(
        policy="leader", **_MIXED_TXN_SHORT
    ),
    "mixed_txn_minority": lambda: MixedTxnScenario(
        policy="minority", **_MIXED_TXN_SHORT
    ),
    "split_brain_fenced": lambda: SplitBrainScenario(policy="fenced"),
    "split_brain_unfenced": lambda: SplitBrainScenario(policy="unfenced"),
    "game_day": lambda: GameDayScenario(policy="fenced", detector="phi"),
}

CHAOS_BEHAVIOUR = FIXTURES / "chaos_behaviour.json"


def run_chaos_variant(name: str, seed: int = 0) -> Dict[str, Any]:
    scenario = CHAOS_VARIANTS[name]()
    report = scenario.run(seed, scenario.spec().sample(seed))
    trace = render_trace(scenario._sim).encode()
    return {
        "end_time": report.end_time,
        "counters": report.counters,
        "violations": [list(v.signature) for v in report.violations],
        "trace_sha256": hashlib.sha256(trace).hexdigest(),
    }


def render_chaos_behaviour() -> str:
    behaviour = {name: run_chaos_variant(name) for name in CHAOS_VARIANTS}
    return json.dumps(behaviour, sort_keys=True, indent=1) + "\n"
