"""Rejoin chaos: rolling cold crash/restart of a fraction of the ring.

The scenario the snapshot layer exists for: Dynamo nodes whose memory
actually burns down with them. One by one, 20% of the ring cold-crashes
(store lost), stays down for a seeded outage, then rejoins — seeded from
its latest snapshot, with hinted handoff and Merkle anti-entropy closing
the diff the checkpoint missed. The sampled plan layers message chaos
(loss/duplication/delay) on top; crash scheduling stays with the
scenario itself so crashes are *rolling*: repair completes between
losses, which is what makes the invariant sound — with N=3 and W=2,
every acked write has two homes, and only one node's memory is ever in
flames at a time.

Invariants: **no acked write lost** after quiesce (every acknowledged
put's value is readable from the converged ring), and **the ring
re-converges** — with ``time_to_converged`` measured from quiesce start.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Generator, Optional, Tuple

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.invariants import InvariantMonitor, NoAckedWriteLost, reconverged
from repro.chaos.plan import ChaosPlan, ChaosSpec
from repro.chaos.skeleton import (
    ChaosReport,
    CrashAdapter,
    repair_until_converged,
    unique_key_writer,
)
from repro.dynamo.cluster import DynamoCluster
from repro.errors import SimulationError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator


class RejoinScenario:
    """Unique-key writers against a ring under rolling cold restarts."""

    name = "rejoin"
    policies = ("snapshot", "no-snapshot")

    def __init__(
        self,
        num_nodes: int = 10,
        horizon: float = 20.0,
        put_interval: float = 0.15,
        crash_fraction: float = 0.2,
        outage: float = 2.0,
        snapshot_cadence: Optional[float] = 1.0,
        policy: str = "snapshot",
    ) -> None:
        if policy not in self.policies:
            raise SimulationError(f"unknown rejoin policy {policy!r}")
        if not 0.0 < crash_fraction <= 0.5:
            raise SimulationError(f"crash fraction {crash_fraction} not in (0, 0.5]")
        self.num_nodes = num_nodes
        self.horizon = horizon
        self.put_interval = put_interval
        self.crash_fraction = crash_fraction
        self.outage = outage
        self.policy = policy
        self.snapshot_cadence = (
            snapshot_cadence if policy == "snapshot" else None
        )
        # Filled in by run(): when the quiesce repair rounds converged.
        self.converged_at: Optional[float] = None

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"node{i}" for i in range(self.num_nodes))

    def victim_count(self) -> int:
        return max(1, math.ceil(self.crash_fraction * self.num_nodes))

    def spec(self, **overrides: Any) -> ChaosSpec:
        """Message chaos only: the rolling cold-crash cycle is the
        scenario's own (seeded) schedule, so repair always completes
        between losses — sampled simultaneous crashes would make 'no
        acked write lost' unsatisfiable by design, not by bug."""
        params: Dict[str, Any] = dict(
            nodes=self.node_names() + ("writer",),
            horizon=self.horizon,
            min_crashes=0, max_crashes=0,
            max_partitions=0,
            max_link_faults=2,
            fault_loss=0.15,
            min_episode=0.5, max_episode=0.2 * self.horizon,
        )
        params.update(overrides)
        return ChaosSpec(**params)

    # ------------------------------------------------------------------

    def run(self, seed: int, plan: ChaosPlan) -> ChaosReport:
        sim = Simulator(seed=seed, trace_capacity=50000)
        self._sim = sim  # exposed for trace inspection (golden tests)
        cluster = DynamoCluster(
            num_nodes=self.num_nodes, sim=sim,
            snapshot_cadence=self.snapshot_cadence,
        )
        client = cluster.client("writer")

        # Node targets cold-crash (store lost) and restart by spawning their
        # own snapshot-seeded rejoin (it takes disk time), so even a
        # hand-written plan with crash episodes exercises the cold path.
        targets = {
            name: CrashAdapter(
                lambda _cause, n=name: cluster.cold_crash(n),
                lambda n=name: sim.spawn(
                    cluster.cold_restart(n), name=f"chaos.rejoin.restart.{n}"
                ),
            )
            for name in self.node_names()
        }
        engine = ChaosEngine(
            ChaosTargets(sim, network=cluster.network, nodes=targets)
        )
        engine.install(plan)

        acked: Dict[str, int] = {}
        monitor = InvariantMonitor(sim)
        monitor.register(
            "no-acked-write-lost",
            NoAckedWriteLost(cluster, acked, "missing from the ring"),
            when="quiesce",
        )
        monitor.register(
            "ring-reconverges",
            reconverged(
                lambda: self.converged_at,
                "owners never agreed after repair rounds",
            ),
            when="quiesce",
        )

        sim.spawn(
            unique_key_writer(
                sim, client, acked, self.put_interval, self.horizon,
                stream="chaos.rejoin.workload", metrics="chaos.rejoin",
            ),
            name="chaos.rejoin.workload",
        )
        sim.spawn(
            self._rolling_restarts(sim, cluster), name="chaos.rejoin.cycle"
        )
        sim.run(until=self.horizon)

        # Quiesce: restore the fabric, bring back anyone still down, then
        # repair until every acked key's owners agree — timing it.
        engine.restore()
        sim.run()  # drain spawned rejoin processes before checking who's up
        quiesce_start = sim.now
        for name in self.node_names():
            if not cluster.alive(name):
                sim.run_process(cluster.cold_restart(name))
        self.converged_at = repair_until_converged(
            sim, cluster, acked, self.num_nodes + 2, cluster.run_merkle_round,
            "chaos.rejoin.time_to_converged", since=quiesce_start,
        )
        monitor.check_now("quiesce")

        return ChaosReport.of(self.name, seed, plan, monitor)

    # ------------------------------------------------------------------

    def _rolling_restarts(
        self, sim: Simulator, cluster: DynamoCluster
    ) -> Generator:
        """Cold-crash ``crash_fraction`` of the ring, one node at a time:
        crash, seeded outage, snapshot-seeded rejoin, repair rounds, next.
        """
        rng = sim.rng.stream("chaos.rejoin.cycle")
        names = list(self.node_names())
        victims = [names.pop(rng.randrange(len(names)))
                   for _ in range(self.victim_count())]
        # Space the cycle inside the horizon, leaving tail time to settle.
        yield Timeout(0.2 * self.horizon)
        for victim in victims:
            lost = cluster.cold_crash(victim)
            sim.metrics.inc("chaos.rejoin.versions_lost_at_crash", lost)
            yield Timeout(self.outage * rng.uniform(0.8, 1.2))
            result = yield from cluster.cold_restart(victim)
            sim.metrics.inc(
                "chaos.rejoin.seeded_versions", result["seeded_versions"]
            )
            # Repair before the next victim: the invariant's soundness
            # depends on at most one lost store at a time.
            yield from cluster.run_handoff_round()
            yield from cluster.run_merkle_round()
            yield Timeout(0.5)
