"""Ring-rebalance chaos: join/leave under zipf traffic and message chaos.

The elastic ring's reason to exist — and its sharpest failure window.
While a seeded open-loop zipf GET/PUT stream and a unique-key writer
hammer the cluster, the scenario reshapes the ring on a seeded schedule:
two nodes join (each bootstrapping its gained ranges from the previous
owners via range-scoped Merkle transfer) and one original node is
decommissioned (streaming its ranges out before departing). The sampled
plan layers message chaos (loss/duplication/delay) on top; the reshape
schedule stays with the scenario so joins and leaves land *mid-traffic*,
which is the point — every hinted-handoff and intended-owner decision
must consult the current ring or an acked write strands on a topology
that no longer exists.

Invariants: **no acked write lost** (every acknowledged unique-key put
is readable somewhere in the final ring — including from the joiners,
never from the decommissioned node) and **the ring re-converges** after
quiesce, with ``time_to_converged`` measured.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.invariants import InvariantMonitor, NoAckedWriteLost, reconverged
from repro.chaos.plan import ChaosPlan, ChaosSpec
from repro.chaos.skeleton import (
    ChaosReport,
    repair_until_converged,
    unique_key_writer,
)
from repro.dynamo.cluster import DynamoCluster
from repro.errors import SimulationError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.workload.zipf import ZipfKeyGenerator, zipf_open_loop


class RingRebalanceScenario:
    """Elastic-ring reshaping under zipf load and message chaos."""

    name = "ring_rebalance"
    policies = ("elastic",)

    def __init__(
        self,
        num_nodes: int = 8,
        horizon: float = 16.0,
        put_interval: float = 0.12,
        zipf_rate: float = 30.0,
        zipf_keyspace: int = 5_000,
        policy: str = "elastic",
    ) -> None:
        if policy not in self.policies:
            raise SimulationError(f"unknown ring_rebalance policy {policy!r}")
        if num_nodes < 5:
            raise SimulationError("ring_rebalance needs >= 5 nodes (N=3 "
                                  "must survive a decommission)")
        self.num_nodes = num_nodes
        self.horizon = horizon
        self.put_interval = put_interval
        self.zipf_rate = zipf_rate
        self.zipf_keyspace = zipf_keyspace
        self.policy = policy
        # Filled in by run(): when the quiesce repair rounds converged.
        self.converged_at: Optional[float] = None

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"node{i}" for i in range(self.num_nodes))

    def joiner_names(self) -> Tuple[str, ...]:
        return ("joiner0", "joiner1")

    def spec(self, **overrides: Any) -> ChaosSpec:
        """Message chaos only: the join/decommission schedule is the
        scenario's own (seeded) timeline — sampled crashes on top would
        make 'no acked write lost' unsatisfiable by design when the
        leaver's replicas are simultaneously dark."""
        params: Dict[str, Any] = dict(
            nodes=self.node_names() + self.joiner_names() + ("writer", "zipf"),
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
        self._sim = sim  # exposed for trace inspection
        cluster = DynamoCluster(num_nodes=self.num_nodes, sim=sim)
        writer = cluster.client("writer")
        zipf_client = cluster.client("zipf")

        engine = ChaosEngine(ChaosTargets(sim, network=cluster.network))
        engine.install(plan)

        acked: Dict[str, int] = {}
        monitor = InvariantMonitor(sim)
        monitor.register(
            "no-acked-write-lost",
            NoAckedWriteLost(cluster, acked, "missing from the reshaped ring"),
            when="quiesce",
        )
        monitor.register(
            "ring-reconverges",
            reconverged(
                lambda: self.converged_at,
                "owners never agreed after the reshape + repair rounds",
            ),
            when="quiesce",
        )

        zipf_keys = ZipfKeyGenerator(
            sim.rng.stream("chaos.rebalance.zipf"),
            keyspace=self.zipf_keyspace, theta=0.99, prefix="zk",
        )
        sim.spawn(
            unique_key_writer(
                sim, writer, acked, self.put_interval, self.horizon,
                stream="chaos.rebalance.writer", metrics="chaos.rebalance",
            ),
            name="chaos.rebalance.writer",
        )
        sim.spawn(
            zipf_open_loop(
                sim, zipf_client, zipf_keys, rate=self.zipf_rate,
                until=self.horizon, stream="chaos.rebalance.zipf.arrivals",
            ),
            name="chaos.rebalance.zipf",
        )
        sim.spawn(self._reshape(sim, cluster), name="chaos.rebalance.reshape")
        sim.run(until=self.horizon)

        # Quiesce: heal the fabric, then repair until every acked key's
        # (current!) owners agree — timing it.
        engine.restore()
        sim.run()  # drain in-flight reshapes and requests
        self.converged_at = repair_until_converged(
            sim, cluster, acked, self.num_nodes + 4, cluster.run_merkle_round,
            "chaos.rebalance.time_to_converged",
        )
        monitor.check_now("quiesce")

        return ChaosReport.of(self.name, seed, plan, monitor)

    # ------------------------------------------------------------------

    def _reshape(self, sim: Simulator, cluster: DynamoCluster) -> Generator:
        """The seeded elasticity timeline: join, decommission, join —
        all mid-traffic, all while message chaos is live."""
        rng = sim.rng.stream("chaos.rebalance.reshape")
        victim = f"node{rng.randrange(self.num_nodes)}"
        schedule = [
            (0.30 * self.horizon, "join", "joiner0"),
            (0.50 * self.horizon, "decommission", victim),
            (0.65 * self.horizon, "join", "joiner1"),
        ]
        for at, action, target in schedule:
            delay = at - sim.now
            if delay > 0:
                yield Timeout(delay)
            if action == "join":
                stats = yield from cluster.join(target)
            else:
                stats = yield from cluster.decommission(target)
            sim.metrics.inc(
                "chaos.rebalance.versions_rebalanced", stats["versions_moved"]
            )
