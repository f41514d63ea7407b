"""The mixed-txn scenario: partition the txn fabric mid-stream.

Three replicas of an escrow machine take a mixed weak/strong stream.
Mid-run the scripted partition cuts the fabric — by default isolating
the *leader*, so the failover stack promotes a successor on the majority
side while the deposed leader keeps acking weak guesses to its local
clients. At the heal, those guesses meet the agreed order: some reorder,
and every reorder that changed an acked answer must surface as exactly
one structured apology with its compensation executed against the
fulfillment pool.

Three invariants, continuously checked:

- **apology-pairs-reorder** — the set of apologized uniquifiers equals
  the set of reordered guesses, always (no silent retractions, no
  apologies for nothing);
- **escrow-conservation** (quiesce) — after stabilization every
  replica's stable state grants at most its capacity, all replicas agree
  on *which* uniquifiers hold units, that set matches what the clients'
  final results imply, and the §7.4 fulfillment pool mirrors it exactly
  (guess-time allocations, apology-time releases/re-reserves);
- **strong-order-preserved** — committed prefixes only ever extend, no
  replica latches a prefix violation, and no strong op ever appears
  among the reordered or apologized.

The weak ops (RESERVE / CANCEL / RESTOCK) ride the guess fast path; the
strong ops (SET_CAPACITY on a reserve-free side category) need the total
order. Capacity on the contended category only ever grows (+1 RESTOCKs),
so a stable state granting beyond capacity can only mean a real
conservation bug, never a workload artifact.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.invariants import InvariantMonitor
from repro.chaos.plan import ChaosPlan, ChaosSpec
from repro.chaos.skeleton import ChaosReport
from repro.core.operation import Operation
from repro.errors import SimulationError
from repro.resources import FungiblePool
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.txn import MixedTxnSystem, ResourceMachine


class MixedTxnScenario:
    """Weak guesses vs strong order under a mid-stream fabric partition."""

    name = "mixed-txn"
    #: Which side the scripted partition isolates: the leader (takeover
    #: on the majority side) or a follower (quiet minority drift).
    policies = ("leader", "minority")

    def __init__(
        self,
        policy: str = "leader",
        horizon: float = 30.0,
        partition_start: float = 6.0,
        partition_end: float = 16.0,
        capacity: int = 8,
        weak_fraction: float = 0.8,
        submit_interval: float = 0.2,
        heartbeat_interval: float = 0.25,
        detect_timeout: float = 1.0,
        poll_interval: float = 0.1,
        cadence: float = 1.0,
        drain: float = 12.0,
    ) -> None:
        if policy not in self.policies:
            raise SimulationError(f"unknown mixed-txn policy {policy!r}")
        if not 0.0 <= weak_fraction <= 1.0:
            raise SimulationError(f"bad weak fraction {weak_fraction}")
        self.policy = policy
        self.horizon = horizon
        self.partition_start = partition_start
        self.partition_end = partition_end
        self.capacity = capacity
        self.weak_fraction = weak_fraction
        self.submit_interval = submit_interval
        self.heartbeat_interval = heartbeat_interval
        self.detect_timeout = detect_timeout
        self.poll_interval = poll_interval
        self.cadence = cadence
        self.drain = drain

    def node_names(self) -> Tuple[str, ...]:
        return ("txn0", "txn1", "txn2")

    def spec(self, **overrides: Any) -> ChaosSpec:
        """Sampled chaos rides on top of the scripted partition (which is
        the story): link faults only, so a sampled partition never
        overwrites the scripted groups."""
        params: Dict[str, Any] = dict(
            nodes=self.node_names(), horizon=self.horizon,
            max_crashes=0, max_partitions=0, max_link_faults=2,
            min_episode=1.0, max_episode=4.0, fault_loss=0.2,
        )
        params.update(overrides)
        return ChaosSpec(**params)

    # ------------------------------------------------------------------

    def run(self, seed: int, plan: ChaosPlan) -> ChaosReport:
        sim = Simulator(seed=seed, trace_capacity=50000)
        self._sim = sim
        #: "seats" is the tight escrow the drama happens on; "annex" is
        #: the reserve-free category the strong overwrites land on, so
        #: capacity on "seats" only ever grows and over-grant is always a
        #: bug, never a workload artifact.
        machine = ResourceMachine(
            {"seats": self.capacity, "annex": self.capacity}
        )
        self._fulfillment = FungiblePool("seats", 10_000)
        system = MixedTxnSystem(
            sim, machine,
            apology_pool=self._fulfillment,
            heartbeat_interval=self.heartbeat_interval,
            detect_timeout=self.detect_timeout,
            poll_interval=self.poll_interval,
        )
        self._system = system
        system.start()

        self.tickets: List[Any] = []
        self._strong_uniqs: set = set()
        self._committed_seen: Dict[str, List[str]] = {}

        sim.schedule_at(self.partition_start, self._cut_fabric)
        sim.schedule_at(self.partition_end, system.network.heal)

        engine = ChaosEngine(ChaosTargets(sim, network=system.network))
        engine.install(plan)

        monitor = InvariantMonitor(sim)
        monitor.register("apology-pairs-reorder", self._check_apology_pairing)
        monitor.register("strong-order-preserved", self._check_strong_order)
        monitor.register("escrow-conservation", self._check_escrow,
                         when="quiesce")
        monitor.start(self.cadence, self.horizon)

        for name in self.node_names():
            sim.spawn(self._client(name), name=f"chaos.mixed_txn.{name}")
        sim.run(until=self.horizon)

        engine.restore()
        sim.run(until=self.horizon + self.drain)
        self._settle_fulfillment()
        monitor.check_now("quiesce")
        system.stop()

        return ChaosReport.of(self.name, seed, plan, monitor)

    # ------------------------------------------------------------------

    def _cut_fabric(self) -> None:
        if self.policy == "leader":
            # Isolate the incumbent: the majority side (with the monitor)
            # promotes a successor; the deposed leader keeps guessing.
            self._system.network.partition([
                {"txn0"}, {"txn1", "txn2", "txn.monitor"},
            ])
        else:
            # Quiet cut: a non-leader replica drifts alone, no failover.
            self._system.network.partition([
                {"txn0", "txn1", "txn.monitor"}, {"txn2"},
            ])

    # ------------------------------------------------------------------
    # Workload

    def _client(self, replica: str) -> Generator[Any, Any, None]:
        sim, system = self._sim, self._system
        rng = sim.rng.stream(f"chaos.mixed_txn.client.{replica}")
        seq = itertools.count(1)
        open_reserves: List[str] = []
        while True:
            think = self.submit_interval * rng.uniform(0.5, 1.5)
            if sim.now + think > self.horizon:
                return
            yield Timeout(think)
            n = next(seq)
            if rng.uniform(0.0, 1.0) < self.weak_fraction:
                roll = rng.uniform(0.0, 1.0)
                if roll < 0.6 or not open_reserves:
                    op = Operation(
                        "RESERVE", {"category": "seats"},
                        uniquifier=f"{replica}-r{n}",
                    )
                elif roll < 0.85:
                    op = Operation(
                        "CANCEL",
                        {"category": "seats", "target": open_reserves.pop(0)},
                        uniquifier=f"{replica}-c{n}",
                    )
                else:
                    op = Operation(
                        "RESTOCK", {"category": "seats", "quantity": 1},
                        uniquifier=f"{replica}-k{n}",
                    )
            else:
                op = Operation(
                    "SET_CAPACITY",
                    {"category": "annex", "value": self.capacity + n},
                    uniquifier=f"{replica}-s{n}",
                )
                self._strong_uniqs.add(op.uniquifier)
            ticket = system.submit(replica, op)
            self.tickets.append(ticket)
            if op.op_type == "RESERVE":
                if ticket.guess == {"ok": True}:
                    # The app acts on the guess: a real unit is set aside.
                    self._fulfillment.allocate(op.uniquifier)
                    open_reserves.append(op.uniquifier)
                sim.metrics.inc("chaos.mixed_txn.weak_acks")
            elif ticket.op_class == "weak":
                sim.metrics.inc("chaos.mixed_txn.weak_acks")

    def _settle_fulfillment(self) -> None:
        """Apply the *stabilized* cancel results to the fulfillment pool
        (cancellations release real units only once they are truth, not
        on a guess — a cancel needs no apology path)."""
        for ticket in self.tickets:
            if ticket.op.op_type != "CANCEL" or not ticket.stabilized:
                continue
            if ticket.done.value == {"cancelled": True}:
                self._fulfillment.release(ticket.op.args["target"])

    # ------------------------------------------------------------------
    # Invariants

    def _check_apology_pairing(self) -> Optional[str]:
        apologized = self._system.apology_uniquifiers()
        reordered = self._system.reordered_uniquifiers()
        if apologized != reordered:
            orphans = sorted(apologized ^ reordered)
            return f"apology/reorder sets differ: {orphans[:6]}"
        counters = self._sim.metrics.counters()
        if counters.get("txn.apologies", 0) != counters.get("txn.reordered", 0):
            return (
                f"apologies={counters.get('txn.apologies', 0)} "
                f"reordered={counters.get('txn.reordered', 0)}"
            )
        return None

    def _check_strong_order(self) -> Optional[str]:
        system = self._system
        for name, replica in system.replicas.items():
            if replica.prefix_violation:
                return f"{name} latched a committed-prefix violation"
            committed = replica.committed_uniquifiers()
            seen = self._committed_seen.get(name, [])
            if committed[: len(seen)] != seen:
                return f"{name} rewrote its committed order"
            self._committed_seen[name] = committed
        touched = self._strong_uniqs & (
            system.reordered_uniquifiers() | system.apology_uniquifiers()
        )
        if touched:
            return f"strong ops reordered/apologized: {sorted(touched)[:4]}"
        return None

    def _check_escrow(self) -> Optional[str]:
        system = self._system
        unsettled = [t.op.uniquifier for t in self.tickets if not t.stabilized]
        if unsettled:
            return (
                f"{len(unsettled)} ops never stabilized "
                f"(e.g. {unsettled[:4]})"
            )
        # What the clients' final answers imply the escrow holds.
        expected = {
            t.op.uniquifier
            for t in self.tickets
            if t.op.op_type == "RESERVE" and t.done.value == {"ok": True}
        }
        expected -= {
            t.op.args["target"]
            for t in self.tickets
            if t.op.op_type == "CANCEL"
            and t.done.value == {"cancelled": True}
        }
        for name, replica in system.replicas.items():
            pool = replica.stable_state["seats"]
            granted = set(pool["granted"])
            if len(granted) > pool["capacity"]:
                return (
                    f"{name} over-granted after stabilization: "
                    f"{len(granted)} > {pool['capacity']}"
                )
            if granted != expected:
                drift = sorted(granted ^ expected)
                return f"{name} grant set diverges from acks: {drift[:6]}"
        mirror = self._fulfillment.granted_uniquifiers()
        if mirror != expected:
            drift = sorted(mirror ^ expected)
            return f"fulfillment pool drifted from the escrow: {drift[:6]}"
        return None
