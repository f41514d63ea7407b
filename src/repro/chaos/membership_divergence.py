"""Membership-divergence chaos: gossiped liveness views under fire.

With gossip membership attached, *who is alive* is no longer a fact —
it is N simultaneously-held opinions, each fed by local probes and
second-hand rumors, each possibly stale, each driving real routing
decisions (preference walks, anti-entropy pairing, client quorums).
This scenario partitions and degrades the fabric while a seeded write
stream runs, letting the views diverge as far as the chaos can push
them, then heals the world and checks three claims:

- **views converge after heal**: driven full push-pull rounds bring
  every live node's view to entry-for-entry agreement (time measured);
- **a refuted suspicion never sticks**: any node that is actually alive
  at quiesce ends ``alive`` in every view — a suspicion or death verdict
  planted during the chaos is always outbid by the member's own
  incarnation bump once the rumors can travel;
- **no acked write lost while views disagree**: every PUT acknowledged
  under divergent routing (stale views steering writes to fallback
  nodes, hinted handoff carrying them) is readable somewhere after the
  heal + repair rounds.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.invariants import InvariantMonitor, NoAckedWriteLost, reconverged
from repro.chaos.plan import ChaosPlan, ChaosSpec
from repro.chaos.skeleton import ChaosReport, CrashAdapter, unique_key_writer
from repro.cluster.gossip_membership import ALIVE, views_converged
from repro.dynamo.cluster import DynamoCluster
from repro.errors import SimulationError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.workload.zipf import ZipfKeyGenerator, zipf_open_loop


class MembershipDivergenceScenario:
    """Gossiped membership views diverging — and reconverging — under
    partitions, lossy links, and crash/restart."""

    name = "membership_divergence"
    policies = ("gossip",)

    def __init__(
        self,
        num_nodes: int = 6,
        horizon: float = 14.0,
        put_interval: float = 0.12,
        zipf_rate: float = 25.0,
        zipf_keyspace: int = 4_000,
        gossip_period: float = 0.25,
        fanout: int = 2,
        suspicion_timeout: float = 1.0,
        policy: str = "gossip",
    ) -> None:
        if policy not in self.policies:
            raise SimulationError(
                f"unknown membership_divergence policy {policy!r}"
            )
        if num_nodes < 4:
            raise SimulationError("membership_divergence needs >= 4 nodes")
        self.num_nodes = num_nodes
        self.horizon = horizon
        self.put_interval = put_interval
        self.zipf_rate = zipf_rate
        self.zipf_keyspace = zipf_keyspace
        self.gossip_period = gossip_period
        self.fanout = fanout
        self.suspicion_timeout = suspicion_timeout
        self.policy = policy

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"node{i}" for i in range(self.num_nodes))

    def spec(self, **overrides: Any) -> ChaosSpec:
        """Partitions are the interesting weather here (they split the
        rumor mill itself); lossy links flap individual probes, and one
        crash/restart exercises the dead-verdict path. At most one node
        is down at a time so W=2 quorums stay satisfiable and 'no acked
        write lost' is a fair claim."""
        params: Dict[str, Any] = dict(
            nodes=self.node_names() + ("writer", "zipf"),
            horizon=self.horizon,
            min_crashes=0, max_crashes=1,
            max_partitions=2,
            max_link_faults=2,
            fault_loss=0.25,
            min_episode=2.0 * self.suspicion_timeout,
            max_episode=0.25 * self.horizon,
        )
        params.update(overrides)
        return ChaosSpec(**params)

    # ------------------------------------------------------------------

    def run(self, seed: int, plan: ChaosPlan) -> ChaosReport:
        sim = Simulator(seed=seed, trace_capacity=50000)
        self._sim = sim  # exposed for trace inspection
        cluster = DynamoCluster(num_nodes=self.num_nodes, sim=sim)
        cluster.attach_gossip_membership(
            period=self.gossip_period,
            fanout=self.fanout,
            suspicion_timeout=self.suspicion_timeout,
        )
        cluster.start_membership_gossip(until=self.horizon)
        # Each coordinator routes by a *different* node's local view —
        # divergence between those two views is load-bearing, not
        # cosmetic.
        writer = cluster.client("writer", view_of="node0")
        zipf_client = cluster.client("zipf", view_of="node1")

        targets: Dict[str, Any] = {
            name: CrashAdapter(
                lambda _cause, n=name: self._crash_node(cluster, n),
                lambda n=name: self._restart_node(cluster, n),
            )
            for name in cluster.nodes
        }
        for client in (writer, zipf_client):
            targets[client.name] = CrashAdapter(
                client.endpoint.stop, client.endpoint.restart
            )
        engine = ChaosEngine(
            ChaosTargets(sim, network=cluster.network, nodes=targets)
        )
        engine.install(plan)

        acked: Dict[str, int] = {}
        results: Dict[str, Any] = {"stuck": [], "converged_at": None}
        monitor = InvariantMonitor(sim)
        monitor.register(
            "views-converge-after-heal",
            reconverged(
                lambda: results["converged_at"],
                "views never reached entry-for-entry agreement after the heal",
            ),
            when="quiesce",
        )
        monitor.register(
            "refuted-suspicion-never-sticks",
            lambda: (
                f"{len(results['stuck'])} live nodes still believed "
                f"dead/left somewhere, first: {results['stuck'][:5]}"
                if results["stuck"] else None
            ),
            when="quiesce",
        )
        monitor.register(
            "no-acked-write-lost",
            NoAckedWriteLost(cluster, acked, "unreadable after heal"),
            when="quiesce",
        )

        zipf_keys = ZipfKeyGenerator(
            sim.rng.stream("chaos.mship.zipf"),
            keyspace=self.zipf_keyspace, theta=0.99, prefix="mk",
        )
        sim.spawn(
            unique_key_writer(
                sim, writer, acked, self.put_interval, self.horizon,
                stream="chaos.mship.writer", metrics="chaos.mship",
            ),
            name="chaos.mship.writer",
        )
        sim.spawn(
            zipf_open_loop(
                sim, zipf_client, zipf_keys, rate=self.zipf_rate,
                until=self.horizon, stream="chaos.mship.zipf.arrivals",
            ),
            name="chaos.mship.zipf",
        )
        sim.spawn(
            self._divergence_sampler(sim, cluster), name="chaos.mship.sampler"
        )
        sim.run(until=self.horizon)

        # Quiesce: heal everything, then drive forced full push-pull
        # rounds until every view agrees (epidemic spread is O(log n)
        # rounds; the bound below is generous, not load-bearing).
        engine.restore()
        sim.run()  # drain in-flight requests and suspicion timers
        quiesce_start = sim.now
        for _ in range(self.num_nodes + 6):
            for name in sorted(cluster.membership_gossips):
                if cluster.alive(name):
                    sim.run_process(
                        cluster.membership_gossips[name].round_once(
                            force_full=True
                        )
                    )
            if views_converged(list(cluster.views.values())):
                results["converged_at"] = sim.now
                break
        if results["converged_at"] is not None:
            sim.metrics.observe(
                "chaos.mship.time_to_view_converged",
                results["converged_at"] - quiesce_start,
            )
        results["stuck"] = self._stuck_suspicions(cluster)

        # Repair rounds so hinted and rerouted writes land home, then
        # audit every acked write.
        for _ in range(self.num_nodes + 2):
            sim.run_process(cluster.run_handoff_round())
            sim.run_process(cluster.run_merkle_round())
        monitor.check_now("quiesce")

        return ChaosReport.of(self.name, seed, plan, monitor)

    # ------------------------------------------------------------------

    def _crash_node(self, cluster: DynamoCluster, name: str) -> None:
        """A crashed node serves nothing and *computes* nothing: its
        membership gossip loop stops with it (a corpse spreads no rumors,
        and suspects nobody)."""
        cluster.crash(name)
        cluster.membership_gossips[name].stop()

    def _restart_node(self, cluster: DynamoCluster, name: str) -> None:
        cluster.restart(name)
        # Resumes only if the horizon is still ahead; the quiesce-time
        # restarts from engine.restore() fall through (the scenario
        # drives convergence rounds explicitly then).
        cluster.membership_gossips[name].run(self.horizon)

    def _divergence_sampler(
        self, sim: Simulator, cluster: DynamoCluster
    ) -> Generator:
        """Cadence sampling of how split the opinions are: the count of
        ticks on which live nodes' views disagreed (the divergence
        window the no-lost-write claim must hold through)."""
        while sim.now + 0.5 <= self.horizon:
            yield Timeout(0.5)
            live_views = [
                cluster.views[name]
                for name in cluster.views
                if cluster.alive(name)
            ]
            if not views_converged(live_views):
                sim.metrics.inc("chaos.mship.divergent_ticks")

    def _stuck_suspicions(
        self, cluster: DynamoCluster
    ) -> List[Tuple[str, str, str]]:
        """(viewer, node, believed-status) for every live node some view
        still refuses to believe in after heal + convergence rounds."""
        stuck = []
        for viewer, view in sorted(cluster.views.items()):
            if not cluster.alive(viewer):
                continue
            for name in cluster.nodes:
                if not cluster.alive(name):
                    continue
                status = view.status_of(name)
                if status != ALIVE:
                    stuck.append((viewer, name, status))
        return stuck
