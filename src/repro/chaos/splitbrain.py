"""The split-brain scenario: partition the primary without killing it.

The backup of §2–3 "cannot distinguish a slow primary from a dead one".
This scenario manufactures exactly that ambiguity: the serving site is
partitioned away from the backup, the client side, and the failure
detector's monitor — but it stays *alive*, committing writes for the
clients still bound to it. The detector convicts, the controller
promotes the backup, and now there are two sites that each believe they
are primary.

What happens next is the policy under test:

- ``policy="fenced"`` — the takeover minted a fresh epoch and armed the
  new primary with it. When the partition heals and the deposed
  primary's shipper finally lands its batch, the batch bounces off the
  fence (``logship.stale_epoch_rejected``), the old primary learns it is
  deposed, and its clients get :class:`~repro.errors.StaleEpochError`
  instead of silent acks. Nothing acked at the new primary is ever
  overwritten.
- ``policy="unfenced"`` — same conviction, same promotion, no fence.
  The healed shipper replays the deposed regime's tail straight into the
  new primary, clobbering post-takeover writes with older data: the
  **lost updates** the no-lost-update invariant latches.

Either way the conviction itself was *wrong* — the primary was alive all
along — and the detector records the contradiction when the first
post-heal heartbeat arrives (``failover.false_convictions``). Fencing
does not make the guess right; it makes the wrong guess safe.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional, Tuple

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.invariants import InvariantMonitor
from repro.chaos.plan import ChaosPlan, ChaosSpec
from repro.chaos.skeleton import ChaosReport
from repro.errors import SimulationError, StaleEpochError, TimeoutError_
from repro.failover import FixedTimeoutDetector, LogshipFailover
from repro.logship import LogShippingSystem, ShipMode
from repro.net.latency import FixedLatency
from repro.net.network import NetFault
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator


class SplitBrainClients:
    """The client side of the split-brain story over a log-shipping pair,
    shared by :class:`SplitBrainScenario` and the game day.

    It holds one write sequence over ``num_keys`` keys, the writes the
    post-takeover regime acked, the stale client still bound to east, and
    the two checks on what the regime promised. RNG streams and metrics
    are named ``<prefix>.*``.
    """

    def __init__(
        self,
        sim: Simulator,
        system: LogShippingSystem,
        prefix: str,
        num_keys: int,
        write_interval: float,
    ) -> None:
        self.sim = sim
        self.system = system
        self.prefix = prefix
        self.num_keys = num_keys
        self.write_interval = write_interval
        #: key -> last value acked by the *current regime* after takeover.
        self.post_acks: Dict[str, str] = {}
        self.lost_updates = 0
        self._seq = itertools.count(1)
        self._last_epoch = system.epoch

    def next_write(self) -> Tuple[int, str]:
        """The next (sequence number, key) of the shared write sequence."""
        seq = next(self._seq)
        return seq, f"k{seq % self.num_keys}"

    def stale_writer(self, until: float) -> Generator[Any, Any, None]:
        """A client bound to east — it keeps writing there through the
        partition and past the takeover, because nobody told it. Under
        fencing it eventually gets :class:`StaleEpochError` and fails
        over to the serving site; without fencing it is never told at
        all."""
        sim, system = self.sim, self.system
        rng = sim.rng.stream(f"{self.prefix}.stale")
        deposed = False
        while True:
            think = self.write_interval * rng.uniform(0.5, 1.5)
            if sim.now + think > until:
                return
            yield Timeout(think)
            seq, key = self.next_write()
            value = f"s{seq}"
            if deposed:
                yield from system.submit({key: value})
                if system.failover_time is not None:
                    self.post_acks[key] = value
                continue
            try:
                yield from system.submit_to("east", {key: value})
            except StaleEpochError:
                deposed = True
                sim.metrics.inc(f"{self.prefix}.stale_rejected")
                continue
            except TimeoutError_:
                continue
            if system.failover_time is not None:
                # East acked a write after it was deposed — the client
                # walks away believing it committed.
                sim.metrics.inc(f"{self.prefix}.stale_acks")

    def check_epoch_monotonic(self) -> Optional[str]:
        """Fencing tokens totally order regimes: the system epoch never
        moves backwards."""
        epoch = self.system.epoch
        if epoch < self._last_epoch:
            return f"epoch went backwards: {self._last_epoch} -> {epoch}"
        self._last_epoch = epoch
        return None

    def check_no_lost_update(self) -> Optional[str]:
        """Every write acked by the post-takeover regime must still hold
        its value at the serving primary once everything settles. A
        deposed primary's resurrected tail overwriting one is the §5.1
        lost update."""
        state = self.system.primary.state
        lost = [
            (key, value, state.get(key))
            for key, value in sorted(self.post_acks.items())
            if state.get(key) != value
        ]
        if lost:
            self.lost_updates = len(lost)
            self.sim.metrics.inc(f"{self.prefix}.lost_updates", len(lost))
            key, value, found = lost[0]
            return (
                f"{len(lost)} acked writes lost (e.g. {key}={value!r} "
                f"overwritten by {found!r})"
            )
        return None


class SplitBrainScenario:
    """Fenced vs unfenced automatic takeover under a primary partition."""

    name = "split-brain"
    policies = ("fenced", "unfenced")

    def __init__(
        self,
        policy: str = "fenced",
        horizon: float = 30.0,
        partition_start: Optional[float] = 6.0,
        partition_end: float = 16.0,
        write_interval: float = 0.4,
        num_keys: int = 8,
        heartbeat_interval: float = 0.25,
        detect_timeout: float = 1.0,
        poll_interval: float = 0.1,
        ship_interval: float = 0.05,
        heartbeat_loss: float = 0.0,
        cadence: float = 1.0,
        drain: float = 8.0,
    ) -> None:
        if policy not in self.policies:
            raise SimulationError(f"unknown split-brain policy {policy!r}")
        self.policy = policy
        self.horizon = horizon
        self.partition_start = partition_start
        self.partition_end = partition_end
        self.write_interval = write_interval
        self.num_keys = num_keys
        self.heartbeat_interval = heartbeat_interval
        self.detect_timeout = detect_timeout
        self.poll_interval = poll_interval
        self.ship_interval = ship_interval
        self.heartbeat_loss = heartbeat_loss
        self.cadence = cadence
        self.drain = drain
        # Filled in by run(); read by E14's serial sweeps.
        self.detection_latency: Optional[float] = None
        self.false_takeover = False

    def node_names(self) -> Tuple[str, ...]:
        return ("east", "west")

    def spec(self, **overrides: Any) -> ChaosSpec:
        """Sweep bounds: mild extra link faults on top of the intrinsic
        partition (which *is* the story — no sampled crashes or
        partitions, so shrinking converges on the scripted ambiguity)."""
        params: Dict[str, Any] = dict(
            nodes=self.node_names(), horizon=self.horizon,
            max_crashes=0, max_partitions=0, max_link_faults=1,
            min_episode=1.0, max_episode=4.0, fault_loss=0.1,
        )
        params.update(overrides)
        return ChaosSpec(**params)

    # ------------------------------------------------------------------

    def run(self, seed: int, plan: ChaosPlan) -> ChaosReport:
        sim = Simulator(seed=seed, trace_capacity=50000)
        self._sim = sim
        system = LogShippingSystem(
            mode=ShipMode.ASYNC,
            ship_interval=self.ship_interval,
            wan_latency=FixedLatency(0.01),
            sim=sim,
        )
        self._system = system
        failover = LogshipFailover(
            system,
            fenced=(self.policy == "fenced"),
            heartbeat_interval=self.heartbeat_interval,
            detector=FixedTimeoutDetector(
                sim, [system.serving], timeout=self.detect_timeout
            ),
            poll_interval=self.poll_interval,
        )
        self._failover = failover
        failover.start()

        clients = SplitBrainClients(
            sim, system, "chaos.splitbrain", self.num_keys, self.write_interval
        )

        if self.heartbeat_loss > 0.0:
            # The tradeoff sweep's knob: heartbeats (and only traffic from
            # the primary to the monitor) get lossy, so a twitchy detector
            # convicts a perfectly healthy primary.
            system.network.inject_fault(NetFault(
                loss_probability=self.heartbeat_loss,
                src="east", dst=failover.monitor_name,
            ))

        if self.partition_start is not None:
            sim.schedule_at(self.partition_start, self._cut, system)
            sim.schedule_at(self.partition_end, system.network.heal)

        engine = ChaosEngine(ChaosTargets(sim, network=system.network))
        engine.install(plan)

        monitor = InvariantMonitor(sim)
        monitor.register("epoch-monotonic", clients.check_epoch_monotonic)
        monitor.register("no-lost-update", clients.check_no_lost_update,
                         when="quiesce")
        monitor.start(self.cadence, self.horizon)

        sim.spawn(self._informed_writer(clients), name="chaos.splitbrain.informed")
        sim.spawn(clients.stale_writer(self.horizon), name="chaos.splitbrain.stale")
        sim.run(until=self.horizon)

        engine.restore()
        sim.run(until=self.horizon + self.drain)
        monitor.check_now("quiesce")
        failover.stop()

        detector = failover.detector
        convicted_at = detector.conviction_time("east")
        if convicted_at is not None and self.partition_start is not None:
            self.detection_latency = convicted_at - self.partition_start
        self.false_takeover = (
            convicted_at is not None and self.partition_start is None
        )

        return ChaosReport.of(self.name, seed, plan, monitor)

    # ------------------------------------------------------------------
    # The intrinsic ambiguity

    @staticmethod
    def _cut(system: LogShippingSystem) -> None:
        """East alone on one side; backup, client, and monitor on the
        other. East is NOT crashed — that is the whole point."""
        system.network.partition([
            {"east"},
            {"west", "lsclient", "failover.monitor"},
        ])

    # ------------------------------------------------------------------

    def _informed_writer(
        self, clients: SplitBrainClients
    ) -> Generator[Any, Any, None]:
        """A client that always reaches the *currently serving* site (it
        learns about takeovers instantly — the best case). Stops at the
        heal so its last acked values are what quiesce must still find."""
        sim = self._sim
        system = self._system
        rng = sim.rng.stream("chaos.splitbrain.informed")
        stop_at = (
            self.partition_end if self.partition_start is not None
            else self.horizon
        )
        while True:
            think = self.write_interval * rng.uniform(0.5, 1.5)
            if sim.now + think > stop_at:
                return
            yield Timeout(think)
            seq, key = clients.next_write()
            value = f"v{seq}"
            yield from system.submit({key: value})
            sim.metrics.inc("chaos.splitbrain.informed_acks")
            if system.failover_time is not None:
                clients.post_acks[key] = value
