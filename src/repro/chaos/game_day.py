"""The geo-scale game day: every fault engine at once, across 3 DCs.

Everything before this scenario exercised one failure mode at a time on
one flat network. The game day is the paper's world at production shape:
a hundred-plus processes spread over three datacenters on one
:class:`~repro.net.topology.TopologyNetwork` — the log-shipping pair
(east in ``dc-east``, west in ``dc-west``) and a 96-node Dynamo ring
striped across all three sites — while a scheduled compound plan lands
the fault engines *together*:

- a **WAN cut** between ``dc-east`` and ``dc-west`` (a
  :class:`~repro.chaos.plan.WanCutEpisode` lowered onto site-pair fault
  overlays), which manufactures the split-brain ambiguity: east is alive
  but unreachable, the detector convicts, west takes over;
- a fabric-wide **link fault** (loss) that turns the quorum traffic into
  a retry storm for the duration;
- a **slow disk** on the east site, so the deposed primary is degraded
  as well as isolated.

The sweep axes are the failover guesses-and-apologies knobs: failure
detector (``fixed`` timeout vs ``phi`` accrual) × fencing policy
(``fenced`` vs ``unfenced``). The full invariant suite watches every
run: epoch monotonicity and no-lost-update on the log-ship pair, no
acked write lost and reconvergence on the ring, and escrow conservation
on the account the writers debit. Fenced configurations must come out
clean; the unfenced ablation loses the post-takeover acks when the
healed east ships its stale tail — the §5.1 lost update, at WAN scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.invariants import (
    InvariantMonitor,
    NoAckedWriteLost,
    escrow_non_negative,
    reconverged,
)
from repro.chaos.plan import (
    ChaosPlan,
    ChaosSpec,
    DiskFaultEpisode,
    Episode,
    LinkFaultEpisode,
    WanCutEpisode,
)
from repro.chaos.skeleton import (
    ChaosReport,
    repair_until_converged,
    unique_key_writer,
)
from repro.chaos.splitbrain import SplitBrainClients
from repro.core.escrow import EscrowAccount
from repro.dynamo.cluster import DynamoCluster
from repro.errors import (
    CrashedError,
    SimulationError,
    StaleEpochError,
    TimeoutError_,
)
from repro.failover import (
    FixedTimeoutDetector,
    LogshipFailover,
    PhiAccrualDetector,
)
from repro.logship import LogShippingSystem, ShipMode
from repro.net.latency import ExponentialLatency, FixedLatency
from repro.net.network import LinkConfig
from repro.net.topology import Site, Topology, TopologyNetwork, WanLink
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class GameDaySpec:
    """The game day's plan source: a scripted compound-fault timeline
    that every seed gets, plus a :class:`ChaosSpec` that samples mild
    extra chaos (link faults, a second sampled WAN cut) per seed.
    Frozen and field-picklable, so multiprocessing sweeps carry it to
    workers and sample bit-identically to the parent."""

    compound: Tuple[Episode, ...]
    base: ChaosSpec

    def sample(self, seed: int) -> ChaosPlan:
        extra = self.base.sample(seed)
        return ChaosPlan(self.compound + extra.episodes)


class GameDayScenario:
    """Detector × fencing policy under the compound multi-DC fault."""

    name = "game-day"
    policies = ("fenced", "unfenced")

    SITES = ("dc-east", "dc-west", "dc-south")

    def __init__(
        self,
        policy: str = "fenced",
        detector: str = "phi",
        nodes_per_site: int = 32,
        horizon: float = 30.0,
        cut_start: float = 8.0,
        cut_end: float = 16.0,
        storm_loss: float = 0.15,
        disk_slow_factor: float = 4.0,
        write_interval: float = 0.4,
        num_keys: int = 8,
        put_interval: float = 0.2,
        heartbeat_interval: float = 0.25,
        detect_timeout: float = 1.0,
        phi_threshold: float = 8.0,
        ship_interval: float = 0.05,
        lan_latency: float = 0.0005,
        wan_floor: float = 0.02,
        wan_jitter: float = 0.005,
        wan_bandwidth: Optional[float] = 5000.0,
        escrow_initial: float = 500.0,
        cadence: float = 1.0,
        drain: float = 8.0,
        repair_rounds: int = 4,
    ) -> None:
        if policy not in self.policies:
            raise SimulationError(f"unknown game-day policy {policy!r}")
        if detector not in ("phi", "fixed"):
            raise SimulationError(f"unknown game-day detector {detector!r}")
        if nodes_per_site < 2:
            raise SimulationError("game day needs >= 2 nodes per site")
        if not 0.0 < cut_start < cut_end <= horizon:
            raise SimulationError(
                f"bad cut window [{cut_start}, {cut_end}] in horizon {horizon}"
            )
        self.policy = policy
        self.detector = detector
        self.nodes_per_site = nodes_per_site
        self.horizon = horizon
        self.cut_start = cut_start
        self.cut_end = cut_end
        self.storm_loss = storm_loss
        self.disk_slow_factor = disk_slow_factor
        self.write_interval = write_interval
        self.num_keys = num_keys
        self.put_interval = put_interval
        self.heartbeat_interval = heartbeat_interval
        self.detect_timeout = detect_timeout
        self.phi_threshold = phi_threshold
        self.ship_interval = ship_interval
        self.lan_latency = lan_latency
        self.wan_floor = wan_floor
        self.wan_jitter = wan_jitter
        self.wan_bandwidth = wan_bandwidth
        self.escrow_initial = escrow_initial
        self.cadence = cadence
        self.drain = drain
        self.repair_rounds = repair_rounds
        # Filled in by run(); read by E17 and the tests.
        self.endpoint_count = 0
        self.detection_latency: Optional[float] = None
        self.lost_acked_writes = 0
        self.lost_updates = 0
        self.converged_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Layout

    @property
    def num_nodes(self) -> int:
        return self.nodes_per_site * len(self.SITES)

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"node{i}" for i in range(self.num_nodes))

    def site_of_node(self, index: int) -> str:
        return self.SITES[index % len(self.SITES)]

    def compound_episodes(self) -> Tuple[Episode, ...]:
        """The scripted timeline every seed gets: WAN cut + retry-storm
        loss + a slow disk on the cut-off site, all overlapping."""
        return (
            WanCutEpisode(self.cut_start, self.cut_end, "dc-east", "dc-west"),
            LinkFaultEpisode(
                self.cut_start, self.cut_end, loss=self.storm_loss
            ),
            DiskFaultEpisode(
                "east.disk",
                at=self.cut_start,
                repair_at=self.cut_end,
                slow_factor=self.disk_slow_factor,
            ),
        )

    def spec(self, **overrides: Any) -> GameDaySpec:
        """Compound timeline + sampled extras. The extras stay mild (no
        crashes, no flat partitions: store durability and at least one
        reachable quorum path are what keep the invariants sound) and may
        include a sampled WAN cut on the pairs the scripted cut spares."""
        params: Dict[str, Any] = dict(
            nodes=self.node_names() + ("east", "west"),
            horizon=self.horizon,
            max_crashes=0,
            max_partitions=0,
            max_link_faults=1,
            min_episode=1.0,
            max_episode=4.0,
            fault_loss=0.05,
            fault_duplicate=0.05,
            site_pairs=(("dc-east", "dc-south"), ("dc-west", "dc-south")),
            max_wan_cuts=1,
        )
        params.update(overrides)
        return GameDaySpec(
            compound=self.compound_episodes(), base=ChaosSpec(**params)
        )

    def _build_topology(self) -> Topology:
        lan = FixedLatency(self.lan_latency)
        wan = WanLink(
            ExponentialLatency(floor=self.wan_floor, mean_extra=self.wan_jitter),
            bandwidth=self.wan_bandwidth,
        )
        return Topology(
            [Site(name, lan=lan) for name in self.SITES], default_wan=wan
        )

    # ------------------------------------------------------------------

    def run(self, seed: int, plan: ChaosPlan) -> ChaosReport:
        sim = Simulator(seed=seed, trace_capacity=50000)
        self._sim = sim
        topology = self._build_topology()
        network = TopologyNetwork(
            sim,
            topology,
            default_link=LinkConfig(latency=FixedLatency(self.lan_latency)),
        )

        cluster = DynamoCluster(
            num_nodes=self.num_nodes, sim=sim, network=network
        )
        self._cluster = cluster
        for index, name in enumerate(self.node_names()):
            topology.place(name, self.site_of_node(index))

        system = LogShippingSystem(
            mode=ShipMode.ASYNC,
            ship_interval=self.ship_interval,
            sim=sim,
            network=network,
        )
        self._system = system
        topology.place("east", "dc-east")
        topology.place_all(("west", "lsclient"), "dc-west")

        failover = LogshipFailover(
            system,
            fenced=(self.policy == "fenced"),
            heartbeat_interval=self.heartbeat_interval,
            detector=self._make_detector(sim, system),
        )
        self._failover = failover
        topology.place(failover.monitor_name, "dc-west")
        failover.start()

        # Quorum writers live in the third DC: the scripted cut severs
        # dc-east<->dc-west only, so every key keeps a reachable quorum
        # path and "no acked write lost" stays a claim about the system,
        # not about the plan.
        writers = [cluster.client(f"gd-writer{i}") for i in (1, 2)]
        topology.place_all((w.name for w in writers), "dc-south")

        escrow = EscrowAccount(
            sim, self.escrow_initial, minimum=0.0, name="gameday.escrow"
        )
        self._escrow = escrow
        self._escrow_committed = 0.0

        engine = ChaosEngine(
            ChaosTargets(
                sim,
                network=network,
                disks={
                    "east.disk": system.sites["east"].disk,
                    "west.disk": system.sites["west"].disk,
                },
            )
        )
        engine.install(plan)

        clients = SplitBrainClients(
            sim, system, "chaos.gameday", self.num_keys, self.write_interval
        )
        acked: Dict[str, int] = {}
        lost_writes = NoAckedWriteLost(cluster, acked, "missing from the ring")

        monitor = InvariantMonitor(sim)
        monitor.register("epoch-monotonic", clients.check_epoch_monotonic)
        monitor.register("escrow-conserved", self._check_escrow_conserved)
        monitor.register("escrow-bounds", escrow_non_negative(escrow))
        monitor.register("no-lost-update", clients.check_no_lost_update,
                         when="quiesce")
        monitor.register("no-acked-write-lost", lost_writes, when="quiesce")
        monitor.register(
            "ring-reconverges",
            reconverged(
                lambda: self.converged_at,
                "owners never agreed after repair rounds",
            ),
            when="quiesce",
        )
        monitor.start(self.cadence, self.horizon)

        sim.spawn(self._informed_writer(clients), name="chaos.gameday.informed")
        sim.spawn(clients.stale_writer(self.horizon), name="chaos.gameday.stale")
        # Unique-key puts from the third DC.
        for writer in writers:
            sim.spawn(
                unique_key_writer(
                    sim, writer, acked, self.put_interval, self.horizon,
                    stream=f"chaos.gameday.{writer.name}",
                    metrics="chaos.gameday", key_prefix=f"{writer.name}-w",
                ),
                name=f"chaos.gameday.{writer.name}",
            )

        self.endpoint_count = len(network._mailboxes)
        sim.run(until=self.horizon)

        # Quiesce: restore the fabric, then repair the ring until every
        # acked key's owners agree (bounded rounds — at this scale the
        # budget is part of the claim).
        engine.restore()
        sim.run(until=self.horizon + self.drain)
        # Stop the perpetual processes (heartbeats, detector poll) so the
        # repair rounds below can drain the event heap; the shippers are
        # event-driven and go idle once the healed tails land.
        failover.stop()
        self.converged_at = repair_until_converged(
            sim, cluster, acked, self.repair_rounds,
            cluster.run_anti_entropy_round, "chaos.gameday.time_to_converged",
        )
        monitor.check_now("quiesce")

        self.lost_updates = clients.lost_updates
        self.lost_acked_writes = len(lost_writes.lost)
        if lost_writes.lost:
            sim.metrics.inc("chaos.gameday.lost_acked_writes", len(lost_writes.lost))
        detector = failover.detector
        convicted_at = detector.conviction_time("east")
        self.detection_latency = (
            convicted_at - self.cut_start if convicted_at is not None else None
        )

        return ChaosReport.of(self.name, seed, plan, monitor)

    def _make_detector(
        self, sim: Simulator, system: LogShippingSystem
    ) -> Any:
        if self.detector == "fixed":
            return FixedTimeoutDetector(
                sim, [system.serving], timeout=self.detect_timeout
            )
        return PhiAccrualDetector(
            sim, [system.serving], threshold=self.phi_threshold
        )

    # ------------------------------------------------------------------
    # Log-ship writers (the split-brain pattern, now under a WAN cut)

    def _informed_writer(
        self, clients: SplitBrainClients
    ) -> Generator[Any, Any, None]:
        """Always reaches the currently serving site; every write debits
        the escrow account (reserve -> submit -> commit, abort on
        failure), so escrow conservation rides the same fault timeline.
        Stops at the heal so quiesce checks its last acked values."""
        sim = self._sim
        system = self._system
        escrow = self._escrow
        rng = sim.rng.stream("chaos.gameday.informed")
        while True:
            think = self.write_interval * rng.uniform(0.5, 1.5)
            if sim.now + think > self.cut_end:
                return
            yield Timeout(think)
            seq, key = clients.next_write()
            value = f"v{seq}"
            txn = f"gd-esc-{seq}"
            yield from escrow.reserve(txn, -1.0)
            try:
                yield from system.submit({key: value})
            except (StaleEpochError, TimeoutError_, CrashedError):
                escrow.abort(txn)
                sim.metrics.inc("chaos.gameday.informed_failures")
                continue
            escrow.commit(txn)
            self._escrow_committed += -1.0
            sim.metrics.inc("chaos.gameday.informed_acks")
            if system.failover_time is not None:
                clients.post_acks[key] = value

    # ------------------------------------------------------------------
    # Invariants

    def _check_escrow_conserved(self) -> Optional[str]:
        """The account's committed value equals the opening balance plus
        exactly the deltas the workload committed — escrow under faults
        may block or abort, never mint or lose money."""
        expected = self.escrow_initial + self._escrow_committed
        if abs(self._escrow.value - expected) > 1e-9:
            return (
                f"escrow value {self._escrow.value} != opening "
                f"{self.escrow_initial} + committed {self._escrow_committed}"
            )
        return None
