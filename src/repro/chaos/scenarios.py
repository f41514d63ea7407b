"""Chaos scenarios: a workload + targets + invariants under one plan.

A scenario is the unit the :class:`~repro.chaos.runner.ChaosRunner`
sweeps: ``run(seed, plan)`` builds a fresh simulator, installs the plan
through the :class:`~repro.chaos.engine.ChaosEngine`, drives a seeded
workload, restores the world at the horizon (heal, repair, restart),
forces convergence, and reports every invariant violation. Everything is
a pure function of (seed, plan), so a failing report replays exactly.
Every scenario builds its run from the shared pieces in
:mod:`repro.chaos.skeleton`.

This module holds the two application scenarios:

- :class:`BankClearingScenario` — §6.2 replicated check clearing over
  the gossip fabric. Its ``policy`` knob deliberately breaks the
  recovery or uniquifier discipline so the runner has real bugs to find:
  ``amnesiac-restart`` re-credits the opening deposit on every restart
  (non-idempotent recovery — it needs a crash to fire), and
  ``branch-uniquifier`` forgets that the check number *is* the identity,
  so dual-presented checks debit twice.
- :class:`CartDynamoScenario` — §6.1 shopping cart on the Dynamo model;
  ``policy="lww"`` swaps in the last-writer-wins cart that loses adds.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Generator, List, Tuple

from repro.bank.account import build_account_registry, overdraft_rule
from repro.cart.service import CartService
from repro.cart.strategies import LwwCartStrategy, OpCartStrategy
from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.invariants import (
    InvariantMonitor,
    balance_matches_entries,
    no_duplicate_debits,
    no_lost_cart_adds,
    no_money_created,
    replicas_converge,
)
from repro.chaos.plan import ChaosPlan, ChaosSpec
from repro.chaos.skeleton import WORKLOAD_ERRORS, ChaosReport, CrashAdapter
from repro.core.antientropy import sync_all
from repro.core.operation import Operation
from repro.core.rules import RuleEngine
from repro.dynamo.cluster import DynamoCluster
from repro.errors import RuleViolation, SimulationError
from repro.gossip.cluster import GossipCluster
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator


# ----------------------------------------------------------------------
# Bank clearing over the gossip fabric


class BankClearingScenario:
    """Replicated check clearing under chaos, invariants watching."""

    name = "bank-clearing"
    policies = ("correct", "amnesiac-restart", "branch-uniquifier")

    def __init__(
        self,
        num_replicas: int = 3,
        horizon: float = 30.0,
        opening: float = 1000.0,
        gossip_period: float = 0.5,
        check_interval: float = 1.0,
        deposit_interval: float = 6.0,
        dual_rate: float = 0.35,
        cadence: float = 1.0,
        policy: str = "correct",
    ) -> None:
        if policy not in self.policies:
            raise SimulationError(f"unknown bank policy {policy!r}")
        self.num_replicas = num_replicas
        self.horizon = horizon
        self.opening = opening
        self.gossip_period = gossip_period
        self.check_interval = check_interval
        self.deposit_interval = deposit_interval
        self.dual_rate = dual_rate
        self.cadence = cadence
        self.policy = policy

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"g{i}" for i in range(self.num_replicas))

    def spec(self, **overrides: Any) -> ChaosSpec:
        """The default sampling bounds for this scenario's sweeps."""
        params: Dict[str, Any] = dict(
            nodes=self.node_names(), horizon=self.horizon,
            min_episode=1.0, max_episode=0.2 * self.horizon,
        )
        params.update(overrides)
        return ChaosSpec(**params)

    # ------------------------------------------------------------------

    def run(self, seed: int, plan: ChaosPlan) -> ChaosReport:
        sim = Simulator(seed=seed, trace_capacity=50000)
        cluster = GossipCluster(
            build_account_registry(),
            num_replicas=self.num_replicas,
            period=self.gossip_period,
            sim=sim,
            rules_factory=lambda: RuleEngine([overdraft_rule()]),
        )
        replicas = [cluster.replica(name) for name in cluster.nodes]
        opening = Operation(
            "DEPOSIT", {"amount": self.opening},
            uniquifier="opening", origin="bank", ingress_time=0.0,
        )
        for replica in replicas:
            replica.integrate([opening])
        self._deposits_total = self.opening
        self._sim = sim
        self._restarts: Counter = Counter()

        branches = {
            name: CrashAdapter(
                gnode.crash, lambda g=gnode: self._restart_branch(g)
            )
            for name, gnode in cluster.nodes.items()
        }
        engine = ChaosEngine(
            ChaosTargets(sim, network=cluster.network, nodes=branches)
        )
        engine.install(plan)

        monitor = InvariantMonitor(sim)
        monitor.register("balance-matches-entries", balance_matches_entries(replicas))
        monitor.register(
            "conservation-of-money",
            no_money_created(replicas, lambda: self._deposits_total),
        )
        monitor.register("no-duplicate-debit", no_duplicate_debits(replicas))
        monitor.register("convergence", replicas_converge(replicas), when="quiesce")
        monitor.start(self.cadence, self.horizon)

        sim.spawn(self._workload(sim, cluster), name="chaos.bank.workload")
        for gnode in cluster.nodes.values():
            gnode.run(self.horizon)
        sim.run(until=self.horizon)

        # Quiesce: restore the world, force convergence, final check.
        engine.restore()
        sync_all(replicas, rounds=len(replicas) + 1)
        monitor.check_now("quiesce")

        return ChaosReport.of(self.name, seed, plan, monitor)

    # ------------------------------------------------------------------

    def _restart_branch(self, gnode: Any) -> None:
        """Bring a branch back up, then run its recovery routine."""
        gnode.restart(until=self.horizon)
        replica = gnode.replica
        self._restarts[replica.name] += 1
        if self.policy != "amnesiac-restart":
            return
        # The bug: recovery "restores" the opening balance with a fresh
        # uniquifier instead of trusting the op log — money from nothing.
        recovery = Operation(
            "DEPOSIT", {"amount": self.opening},
            uniquifier=f"recovery:{replica.name}:{self._restarts[replica.name]}",
            origin=replica.name, ingress_time=self._sim.now,
        )
        replica.integrate([recovery])

    def _check_uniquifier(self, check_no: int, branch: str) -> str:
        if self.policy == "branch-uniquifier":
            # The bug: the identity wrongly includes where the check was
            # presented, so the same check is new work at each branch.
            return f"check:{check_no}@{branch}"
        return f"check:{check_no}"

    def _workload(self, sim: Simulator, cluster: GossipCluster) -> Generator:
        rng = sim.rng.stream("chaos.bank.workload")
        names = list(cluster.nodes)
        next_deposit = self.deposit_interval
        check_no = 0
        while True:
            delay = self.check_interval * rng.uniform(0.8, 1.2)
            if sim.now + delay > self.horizon:
                return
            yield Timeout(delay)
            check_no += 1
            amount = round(rng.uniform(5.0, 60.0), 2)
            branch = names[rng.randrange(len(names))]
            dual = rng.random() < self.dual_rate
            other = names[rng.randrange(len(names))]
            self._present(sim, cluster, branch, check_no, amount)
            if dual and other != branch:
                self._present(sim, cluster, other, check_no, amount)
            if sim.now >= next_deposit:
                next_deposit += self.deposit_interval
                dep_no = int(next_deposit / self.deposit_interval)
                dep_amount = round(rng.uniform(40.0, 120.0), 2)
                dep_branch = names[rng.randrange(len(names))]
                self._deposit(sim, cluster, dep_branch, dep_no, dep_amount)

    def _present(
        self, sim: Simulator, cluster: GossipCluster,
        branch: str, check_no: int, amount: float,
    ) -> None:
        if not cluster.network.is_attached(branch):
            sim.metrics.inc("chaos.bank.branch_closed")
            return
        op = Operation(
            "CLEAR_CHECK", {"amount": amount, "check_no": check_no},
            uniquifier=self._check_uniquifier(check_no, branch),
            origin=branch, ingress_time=sim.now,
        )
        try:
            cluster.submit(branch, op)
            sim.metrics.inc("chaos.bank.presented")
        except RuleViolation:
            sim.metrics.inc("chaos.bank.bounced")

    def _deposit(
        self, sim: Simulator, cluster: GossipCluster,
        branch: str, dep_no: int, amount: float,
    ) -> None:
        if not cluster.network.is_attached(branch):
            sim.metrics.inc("chaos.bank.branch_closed")
            return
        op = Operation(
            "DEPOSIT", {"amount": amount},
            uniquifier=f"dep:{dep_no}", origin=branch, ingress_time=sim.now,
        )
        if cluster.submit(branch, op):
            self._deposits_total += amount
            sim.metrics.inc("chaos.bank.deposited")


# ----------------------------------------------------------------------
# Shopping cart on Dynamo


class CartDynamoScenario:
    """One shopper against the Dynamo cart while the fabric misbehaves."""

    name = "cart-dynamo"
    policies = ("correct", "lww")

    def __init__(
        self,
        num_nodes: int = 5,
        horizon: float = 15.0,
        add_interval: float = 0.4,
        policy: str = "correct",
        cart_key: str = "cart",
    ) -> None:
        if policy not in self.policies:
            raise SimulationError(f"unknown cart policy {policy!r}")
        self.num_nodes = num_nodes
        self.horizon = horizon
        self.add_interval = add_interval
        self.policy = policy
        self.cart_key = cart_key

    def node_names(self) -> Tuple[str, ...]:
        return tuple(f"node{i}" for i in range(self.num_nodes))

    def client_names(self) -> Tuple[str, ...]:
        return ("phone", "laptop")

    def spec(self, **overrides: Any) -> ChaosSpec:
        # Clients are chaos targets too: partitions must name them or the
        # implicit remainder group would cut both shoppers off from every
        # storage node at once.
        params: Dict[str, Any] = dict(
            nodes=self.node_names() + self.client_names(), horizon=self.horizon,
            max_crashes=1,  # N=3 replication survives one node at a time
            min_episode=0.5, max_episode=0.25 * self.horizon,
        )
        params.update(overrides)
        return ChaosSpec(**params)

    def run(self, seed: int, plan: ChaosPlan) -> ChaosReport:
        sim = Simulator(seed=seed, trace_capacity=50000)
        self._sim = sim  # exposed for trace inspection (golden tests)
        cluster = DynamoCluster(num_nodes=self.num_nodes, sim=sim)
        strategy = LwwCartStrategy() if self.policy == "lww" else OpCartStrategy()
        # Two devices sharing one cart (§6.1): when a partition makes
        # their writes diverge into siblings, the merge policy decides
        # whether an acknowledged add can vanish.
        shoppers = [
            CartService(cluster, strategy, client=cluster.client(device))
            for device in ("phone", "laptop")
        ]

        targets: Dict[str, Any] = {
            name: CrashAdapter(lambda _cause, n=node: n.crash(), node.restart)
            for name, node in cluster.nodes.items()
        }
        for service in shoppers:
            endpoint = service.client.endpoint
            targets[service.client.name] = CrashAdapter(
                lambda _cause, e=endpoint: e.stop("crash"), endpoint.restart
            )
        engine = ChaosEngine(ChaosTargets(sim, network=cluster.network, nodes=targets))
        engine.install(plan)

        acked: Dict[str, int] = {}
        final_view: Dict[str, Dict[str, int]] = {"view": {}}
        monitor = InvariantMonitor(sim)
        monitor.register(
            "no-lost-cart-adds",
            no_lost_cart_adds(lambda: dict(acked), lambda: final_view["view"]),
            when="quiesce",
        )

        sim.spawn(self._workload(sim, shoppers, acked), name="chaos.cart.workload")
        sim.run(until=self.horizon)

        # Quiesce: restore, deliver hints, anti-entropy, then read back.
        engine.restore()
        sim.run_process(cluster.run_handoff_round())
        sim.run_process(cluster.run_anti_entropy_round())
        final_view["view"] = sim.run_process(shoppers[0].view(self.cart_key))
        monitor.check_now("quiesce")

        return ChaosReport.of(self.name, seed, plan, monitor)

    def _workload(
        self, sim: Simulator, shoppers: List[CartService], acked: Dict[str, int]
    ) -> Generator:
        rng = sim.rng.stream("chaos.cart.workload")
        item_no = 0
        while True:
            delay = self.add_interval * rng.uniform(0.7, 1.3)
            if sim.now + delay > self.horizon:
                return
            yield Timeout(delay)
            item_no += 1
            item = f"item{item_no}"
            cart = shoppers[item_no % len(shoppers)]
            try:
                yield from cart.add(self.cart_key, item)
            except WORKLOAD_ERRORS:
                # Not acknowledged: the shopper saw the failure, so losing
                # this add would be an acceptable apology.
                sim.metrics.inc("chaos.cart.failed_adds")
                continue
            acked[item] = acked.get(item, 0) + 1
            sim.metrics.inc("chaos.cart.acked_adds")
