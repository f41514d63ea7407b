"""Calibrated workloads for the perf harness.

Each workload is a pure function of its scale knob (and fixed seeds), so
two runs on the same interpreter do the same work — wall time is the only
thing that varies. ``events`` is the number of kernel callbacks executed
(``Simulator.steps``), except for ``trace_storm`` where it counts emitted
trace records (the kernel never runs; the emit path itself is the subject).

The five-plus workloads cover the kernel's load-bearing paths:

- ``sched_churn``   — pure scheduler: future timers plus the zero-delay
                      cascade every process resume generates.
- ``rpc_ping``      — request/reply storm over the Network (mailboxes,
                      AnyOf timers, spawn-per-request).
- ``cart_mix``      — the §6.1 Dynamo cart: quorum fan-outs, vector
                      clocks, sloppy quorum bookkeeping.
- ``tandem_cadence``— the §3 DP2 pipeline: WRITE/FLUSH/COMMIT/APPLY with
                      group commit lollygagging.
- ``chaos_sweep``   — seeded BankClearingScenario sweeps, the shape every
                      chaos CI gate runs.
- ``resilient_rpc`` — the rpc_ping storm with the full resilience stack
                      engaged (policy calls, deadline stamping, breaker
                      bookkeeping, admission decisions) — prices the
                      per-call overhead of repro.resilience.
- ``trace_storm``   — TraceLog.emit under a formatting-heavy payload (the
                      lazy-rendering fast path).
- ``snapshot_recovery`` — log-ship commits under a running snapshotter,
                      then a cold rejoin: checkpoint install, manifest
                      chain materialize, and tail replay (§3/§5.8).
- ``zipf_ring``     — open-loop zipf GET/PUT storm against the Dynamo
                      ring over a million-key space (skewed traffic on
                      the quorum fan-out path).
- ``ring_rebalance``— elastic membership: a preloaded ring takes a join
                      and a decommission back to back (moved-range
                      computation + range-scoped Merkle transfer).
- ``game_day``      — seeded geo game-day sweeps: 100+ processes across
                      three sites on a TopologyNetwork under the
                      compound WAN-cut/storm/slow-disk plan.
- ``mixed_txn``     — seeded mixed-consistency txn sweeps: the guess /
                      stabilize / apologize hot path (speculative-state
                      rebuilds, ordering batches, fenced takeover) under
                      the scripted leader cut.
- ``gossip_membership`` — the SWIM-style rumor mill: 12 views probing,
                      piggybacking deltas, and expiring suspicions while
                      one member flaps (the per-round cost of liveness
                      as rumor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.cart.service import CartService
from repro.cart.strategies import OpCartStrategy
from repro.chaos.scenarios import BankClearingScenario
from repro.dynamo.cluster import DynamoCluster
from repro.errors import TransactionAborted
from repro.net.message import Message
from repro.net.network import Network
from repro.net.rpc import Endpoint
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.tandem import TandemConfig, TandemSystem


@dataclass
class WorkloadRun:
    """What one workload execution did."""

    events: int
    notes: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A registered workload: a function plus its per-mode scales."""

    fn: Callable[..., WorkloadRun]  # fn(scale, trace=True) -> WorkloadRun
    quick_scale: int
    full_scale: int
    description: str
    #: Whether running with the trace disabled is meaningful (used for the
    #: trace-overhead measurement).
    trace_toggle: bool = False

    def scale(self, quick: bool) -> int:
        return self.quick_scale if quick else self.full_scale


# ----------------------------------------------------------------------


def sched_churn(scale: int, trace: bool = True) -> WorkloadRun:
    """Pure scheduler churn: 64 self-perpetuating timers, each firing a
    3-deep zero-delay cascade — the signature pattern of process resumes."""
    sim = Simulator(seed=1)
    sim.trace.enabled = trace
    state = [0]

    def cont() -> None:
        state[0] += 1

    def tick() -> None:
        state[0] += 1
        if state[0] < scale:
            sim.schedule(0.0, cont)
            sim.schedule(0.0, cont)
            sim.schedule(0.0, cont)
            sim.schedule(0.13, tick)

    for k in range(64):
        sim.schedule(0.01 * (k + 1), tick)
    sim.run()
    return WorkloadRun(events=sim.steps, notes={"callbacks": state[0]})


def rpc_ping(scale: int, trace: bool = True) -> WorkloadRun:
    """RPC ping storm: 4 clients hammering one server with sequential
    request/reply calls (spawn-per-request, AnyOf reply-or-timer)."""
    sim = Simulator(seed=2)
    sim.trace.enabled = trace
    network = Network(sim)
    server = Endpoint(network, "server")
    server.register("PING", lambda _ep, msg: {"pong": msg.payload["n"]})
    server.start()

    def client(name: str, calls: int):
        endpoint = Endpoint(network, name)
        endpoint.start()
        for n in range(calls):
            reply = yield from endpoint.call("server", "PING", {"n": n})
            assert reply["pong"] == n

    per_client = scale // 4
    for index in range(4):
        sim.spawn(client(f"client{index}", per_client), name=f"pinger{index}")
    sim.run()
    return WorkloadRun(events=sim.steps, notes={"calls": per_client * 4})


def cart_mix(scale: int, trace: bool = True) -> WorkloadRun:
    """Dynamo cart mix: two shoppers adding items with periodic reads,
    quorum fan-outs and vector-clock merges on every operation."""
    sim = Simulator(seed=3)
    sim.trace.enabled = trace
    cluster = DynamoCluster(num_nodes=5, sim=sim)
    shoppers = [
        CartService(cluster, OpCartStrategy(), client=cluster.client(device))
        for device in ("phone", "laptop")
    ]

    def shopping():
        for i in range(scale):
            cart = shoppers[i % 2]
            yield from cart.add("cart", f"item{i}")
            if i % 10 == 9:
                yield from cart.view("cart")
            yield Timeout(0.01)

    sim.spawn(shopping(), name="perf.cart")
    sim.run()
    return WorkloadRun(events=sim.steps, notes={"adds": scale})


def tandem_cadence(scale: int, trace: bool = True) -> WorkloadRun:
    """Tandem DP2 checkpoint cadence: back-to-back transactions of two
    WRITEs plus commit, exercising group commit and the ADP disk."""
    system = TandemSystem(TandemConfig(mode="dp2", num_dps=2), seed=4)
    sim = system.sim
    sim.trace.enabled = trace
    client = system.client()

    def jobs():
        for i in range(scale):
            txn = client.begin()
            try:
                yield from client.write(txn, f"dp{i % 2}", f"k{i % 8}", i)
                yield from client.write(txn, f"dp{(i + 1) % 2}", f"j{i % 8}", i)
                yield from client.commit(txn)
            except TransactionAborted:  # pragma: no cover - no chaos here
                pass

    sim.spawn(jobs(), name="perf.tandem")
    sim.run()
    return WorkloadRun(events=sim.steps, notes={"txns": scale})


def chaos_sweep(scale: int, trace: bool = True) -> WorkloadRun:
    """Chaos seed sweep: the BankClearingScenario under sampled plans,
    one full scenario run per seed (no shrinking)."""
    scenario = BankClearingScenario(policy="correct")
    events = 0
    violations = 0
    for seed in range(scale):
        report = scenario.run(seed, scenario.spec().sample(seed))
        events += scenario._sim.steps
        violations += len(report.violations)
    return WorkloadRun(events=events, notes={"seeds": scale, "violations": violations})


def resilient_rpc(scale: int, trace: bool = True) -> WorkloadRun:
    """The rpc_ping storm with the resilience stack turned on: every
    call runs through a RetryPolicy with a deadline (stamped into each
    payload), a per-destination circuit breaker records every outcome,
    and the server's admission control rules on every arrival. Measures
    what the opt-in layer costs on the happy path."""
    from repro.resilience import AdmissionConfig, BreakerConfig, RetryPolicy

    sim = Simulator(seed=6)
    sim.trace.enabled = trace
    network = Network(sim)
    server = Endpoint(network, "server")
    server.use_admission(AdmissionConfig(max_inflight=64))
    server.register("PING", lambda _ep, msg: {"pong": msg.payload["n"]})
    server.start()
    policy = RetryPolicy(
        max_attempts=3, timeout=1.0, backoff="exponential",
        base_delay=0.05, jitter=0.2, deadline=5.0,
    )

    def client(name: str, calls: int):
        endpoint = Endpoint(network, name)
        endpoint.use_breaker(BreakerConfig())
        endpoint.start()
        for n in range(calls):
            reply = yield from endpoint.call("server", "PING", {"n": n}, policy=policy)
            assert reply["pong"] == n

    per_client = scale // 4
    for index in range(4):
        sim.spawn(client(f"client{index}", per_client), name=f"pinger{index}")
    sim.run()
    return WorkloadRun(events=sim.steps, notes={"calls": per_client * 4})


def trace_storm(scale: int, trace: bool = True) -> WorkloadRun:
    """TraceLog.emit storm through the Network's drop path, whose payload
    carries a formatted message repr — the lazy-formatting fast path."""
    sim = Simulator(seed=5)
    sim.trace.enabled = trace
    network = Network(sim)
    network.attach("src")
    network.attach("sink")
    network.detach("sink")  # every send emits drop.unreachable
    for n in range(scale):
        network.send(Message(src="src", dst="sink", kind="NOISE", payload={"n": n}))
    return WorkloadRun(events=scale, notes={"records": len(sim.trace.records)})


def snapshot_recovery(scale: int, trace: bool = True) -> WorkloadRun:
    """Log-ship commits with the snapshotter running, then a cold rejoin:
    exercises checkpoint capture/install, the incremental manifest chain,
    and snapshot + tail recovery end to end."""
    from repro.logship import LogShippingSystem

    system = LogShippingSystem(ship_interval=0.02, seed=7, snapshot_cadence=0.5)
    sim = system.sim
    sim.trace.enabled = trace

    def job():
        for i in range(scale):
            yield from system.submit({f"k{i % 16}": i})
            yield Timeout(0.05)
        yield Timeout(0.5)
        system.fail_over()
        result = yield from system.rejoin("east")
        yield Timeout(2.0)
        return result

    result = sim.run_process(job())
    return WorkloadRun(
        events=sim.steps,
        notes={"txns": scale, "tail_replayed": result["replayed_records"]},
    )


def zipf_ring(scale: int, trace: bool = True) -> WorkloadRun:
    """Open-loop zipf GET/PUT against an 8-node ring: Poisson arrivals,
    90% GETs, read-modify-write PUTs, keys drawn zipf(0.99) from a
    million-key space — the skewed-traffic shape of §6.1 at scale."""
    from repro.workload.zipf import ZipfKeyGenerator, zipf_open_loop

    sim = Simulator(seed=8)
    sim.trace.enabled = trace
    cluster = DynamoCluster(num_nodes=8, sim=sim)
    client = cluster.client("zipf")
    keys = ZipfKeyGenerator(
        sim.rng.stream("perf.zipf"), keyspace=1_000_000, theta=0.99
    )
    stats: Dict[str, int] = {}
    sim.spawn(
        zipf_open_loop(sim, client, keys, rate=400.0, count=scale, stats=stats),
        name="perf.zipf",
    )
    sim.run()
    return WorkloadRun(
        events=sim.steps,
        notes={"requests": scale, "gets": stats["gets"], "puts": stats["puts"]},
    )


def ring_rebalance(scale: int, trace: bool = True) -> WorkloadRun:
    """Elastic membership hot path: preload ``scale`` keys straight onto
    their owners, then join a node (bootstrap pull) and decommission one
    (drain push) — moved-range math plus range-scoped Merkle transfer."""
    from repro.dynamo.versions import VectorClock, VersionedValue

    sim = Simulator(seed=9)
    sim.trace.enabled = trace
    cluster = DynamoCluster(num_nodes=8, sim=sim)
    for i in range(scale):
        key = f"k{i}"
        clock = VectorClock({"loader": 1})
        for owner in cluster.ring.intended_owners(key, cluster.n):
            cluster.nodes[owner].store_version(key, VersionedValue(i, clock))

    def reshape():
        joined = yield from cluster.join("node8")
        left = yield from cluster.decommission("node0")
        return joined["versions_moved"] + left["versions_moved"]

    moved = sim.run_process(reshape())
    return WorkloadRun(events=sim.steps, notes={"keys": scale, "moved": moved})


def game_day(scale: int, trace: bool = True) -> WorkloadRun:
    """Geo game-day sweep: one full fenced+phi multi-DC run per seed —
    site-routed delivery, the WAN bandwidth pipe, compound fault
    install/restore, and the quiesce repair rounds, at 100+ endpoints."""
    from repro.chaos.game_day import GameDayScenario

    events = 0
    violations = 0
    for seed in range(scale):
        scenario = GameDayScenario(policy="fenced", detector="phi")
        report = scenario.run(seed, scenario.spec().sample(seed))
        events += scenario._sim.steps
        violations += len(report.violations)
    return WorkloadRun(
        events=events, notes={"seeds": scale, "violations": violations}
    )


def mixed_txn(scale: int, trace: bool = True) -> WorkloadRun:
    """Mixed-consistency txn sweep: one leader-cut run per seed — weak
    guesses answered from speculative state, ordering batches minted and
    acked, the fenced takeover, and the post-heal stabilization that
    rolls the tentative suffix back and apologizes for what changed."""
    from repro.chaos.mixed_txn import MixedTxnScenario

    events = 0
    apologies = 0.0
    violations = 0
    for seed in range(scale):
        scenario = MixedTxnScenario(
            policy="leader", horizon=16.0, partition_start=4.0,
            partition_end=9.0, drain=8.0,
        )
        report = scenario.run(seed, scenario.spec().sample(seed))
        events += scenario._sim.steps
        apologies += report.counters.get("txn.apologies", 0.0)
        violations += len(report.violations)
    return WorkloadRun(
        events=events,
        notes={"seeds": scale, "apologies": apologies,
               "violations": violations},
    )


def gossip_membership(scale: int, trace: bool = True) -> WorkloadRun:
    """SWIM-style membership churn: a 12-view rumor mill gossiping for
    ``scale`` periods while one member flaps — probe rounds, delta
    piggybacking, suspicion timers, and incarnation-bumped refutations
    all on the hot path."""
    from repro.cluster.gossip_membership import MembershipGossip, MembershipView
    from repro.net.latency import FixedLatency
    from repro.net.network import LinkConfig

    sim = Simulator(seed=10)
    sim.trace.enabled = trace
    period = 0.25
    horizon = scale * period
    names = [f"m{i}" for i in range(12)]
    network = Network(sim, default_link=LinkConfig(latency=FixedLatency(0.002)))
    views, gossips = {}, {}
    for name in names:
        view = MembershipView(name, sim, suspicion_timeout=1.0)
        view.seed(names)
        views[name] = view
        gossips[name] = MembershipGossip(
            view, network=network, period=period, fanout=2
        )
        gossips[name].run(horizon)

    def flap():
        flapper = gossips[names[-1]]
        while sim.now + 4.0 <= horizon:
            yield Timeout(2.0)
            flapper.stop()
            yield Timeout(2.0)
            flapper.endpoint.restart()
            flapper.run(horizon)

    sim.spawn(flap(), name="perf.mship.flap")
    sim.run(until=horizon)
    counters = sim.metrics.counters()
    return WorkloadRun(
        events=sim.steps,
        notes={
            "rounds": int(counters.get("membership.rounds", 0)),
            "changes": int(counters.get("membership.changes", 0)),
            "refutations": int(counters.get("membership.refutations", 0)),
        },
    )


WORKLOADS: Dict[str, Workload] = {
    "sched_churn": Workload(
        sched_churn, quick_scale=150_000, full_scale=600_000,
        description="pure scheduler churn (timers + zero-delay cascades)",
    ),
    "rpc_ping": Workload(
        rpc_ping, quick_scale=2_000, full_scale=10_000,
        description="RPC ping storm over the simulated network",
    ),
    "cart_mix": Workload(
        cart_mix, quick_scale=1_000, full_scale=5_000,
        description="Dynamo cart add/view mix (§6.1)",
    ),
    "tandem_cadence": Workload(
        tandem_cadence, quick_scale=400, full_scale=2_000,
        description="Tandem DP2 transaction + group-commit cadence (§3)",
    ),
    "chaos_sweep": Workload(
        chaos_sweep, quick_scale=8, full_scale=30,
        description="seeded chaos sweep of the bank-clearing scenario",
    ),
    "resilient_rpc": Workload(
        resilient_rpc, quick_scale=2_000, full_scale=10_000,
        description="RPC ping storm with policy + breaker + admission engaged",
    ),
    "trace_storm": Workload(
        trace_storm, quick_scale=100_000, full_scale=400_000,
        description="TraceLog.emit with formatting-heavy payloads",
        trace_toggle=True,
    ),
    "snapshot_recovery": Workload(
        snapshot_recovery, quick_scale=300, full_scale=1_500,
        description="log-ship commits + checkpoints, then a cold rejoin (§3)",
    ),
    "zipf_ring": Workload(
        zipf_ring, quick_scale=2_000, full_scale=10_000,
        description="open-loop zipf GET/PUT storm on the Dynamo ring (§6.1)",
    ),
    "ring_rebalance": Workload(
        ring_rebalance, quick_scale=600, full_scale=3_000,
        description="elastic ring join + decommission with range transfer",
    ),
    "game_day": Workload(
        game_day, quick_scale=2, full_scale=8,
        description="geo game-day sweep: 3 DCs, compound faults, 100+ procs",
    ),
    "mixed_txn": Workload(
        mixed_txn, quick_scale=2, full_scale=8,
        description="mixed-consistency txn sweep: guess/stabilize/apologize",
    ),
    "gossip_membership": Workload(
        gossip_membership, quick_scale=60, full_scale=240,
        description="SWIM-style membership rumor mill with a flapping member",
    ),
}


def resolve(name: str) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r} (have {sorted(WORKLOADS)})")
    return WORKLOADS[name]
