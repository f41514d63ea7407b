"""The retry-storm scenario: recovery machinery as the outage (E13).

A serialized server slows down for a window (a GC pause, a hot disk, a
bad deploy — the cause doesn't matter). What matters is what the
*clients* do about it:

- ``policy="naive"`` — the fixed-timer discipline everywhere circa the
  paper: a short timeout, a couple of wire retries, and then the
  application layer re-submits the same logical request **as new work**
  (fresh uniquifier). Every timed-out request becomes several queued
  requests; offered load rises exactly when capacity fell; the queue is
  full of work nobody is waiting for. Goodput collapses and stays
  collapsed after the fault clears (the metastable signature).
- ``policy="resilient"`` — the same workload through the
  :mod:`repro.resilience` stack: one call per logical request with
  exponential backoff + seeded jitter and an overall deadline (stable
  uniquifier, so wire retries are answered by the dedup cache, not
  re-executed); a per-destination circuit breaker; server-side
  admission control bounding the handler queue with a degraded-mode
  "stale guess" answer beyond the watermark; and in-handler deadline
  shedding so the server never burns its slow window on expired work.

Invariants hold in **both** modes — a retry storm is not an
application-correctness bug, it is a *goodput* catastrophe; the chaos
runner checks the former, experiment E13 measures the latter
(``chaos.retrystorm.ok_window`` inside the slow window).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional, Set, Tuple

from repro.chaos.engine import ChaosEngine, ChaosTargets
from repro.chaos.invariants import InvariantMonitor
from repro.chaos.plan import ChaosPlan, ChaosSpec
from repro.chaos.skeleton import ChaosReport, CrashAdapter
from repro.errors import (
    BreakerOpenError,
    CrashedError,
    SimulationError,
    TimeoutError_,
)
from repro.net.latency import FixedLatency
from repro.net.network import LinkConfig, Network
from repro.net.rpc import Endpoint, RpcClient, RpcError
from repro.resilience import (
    AdmissionConfig,
    BreakerConfig,
    RetryPolicy,
    expired,
)
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator
from repro.sim.sync import Lock


class RetryStormScenario:
    """Fixed-timer reissue vs the resilience stack, same slow server."""

    name = "retry-storm"
    policies = ("naive", "resilient")

    def __init__(
        self,
        policy: str = "resilient",
        num_clients: int = 8,
        horizon: float = 30.0,
        slow_start: float = 8.0,
        slow_end: float = 18.0,
        slow_factor: float = 20.0,
        service_time: float = 0.02,
        think_time: float = 0.2,
        naive_timeout: float = 0.2,
        naive_retries: int = 2,
        naive_reissues: int = 6,
        watermark: int = 8,
        deadline: float = 2.0,
        cadence: float = 1.0,
    ) -> None:
        if policy not in self.policies:
            raise SimulationError(f"unknown retry-storm policy {policy!r}")
        self.policy = policy
        self.num_clients = num_clients
        self.horizon = horizon
        self.slow_start = slow_start
        self.slow_end = slow_end
        self.slow_factor = slow_factor
        self.service_time = service_time
        self.think_time = think_time
        self.naive_timeout = naive_timeout
        self.naive_retries = naive_retries
        self.naive_reissues = naive_reissues
        self.watermark = watermark
        self.deadline = deadline
        self.cadence = cadence

    def node_names(self) -> Tuple[str, ...]:
        return ("server",)

    def spec(self, **overrides: Any) -> ChaosSpec:
        """Sweep bounds: short server outages and mild link faults on
        top of the intrinsic slow window (no partitions — one server)."""
        params: Dict[str, Any] = dict(
            nodes=self.node_names(), horizon=self.horizon,
            max_crashes=1, max_partitions=0, max_link_faults=1,
            min_episode=1.0, max_episode=4.0, fault_loss=0.1,
        )
        params.update(overrides)
        return ChaosSpec(**params)

    # ------------------------------------------------------------------

    def run(self, seed: int, plan: ChaosPlan) -> ChaosReport:
        sim = Simulator(seed=seed, trace_capacity=50000)
        self._sim = sim
        network = Network(sim)
        network.default_link = LinkConfig(latency=FixedLatency(0.001))

        self._lock = Lock(sim, name="retrystorm.server")
        self._incarnation = 0
        self._executions: list = []            # (incarnation, uniquifier)
        self._executed_uniqs: Set[str] = set()
        self._acked_uniqs: Set[str] = set()    # real (non-degraded) acks
        self._last_value: Optional[int] = None
        self._peak_inflight = 0
        self._req_counter = itertools.count(1)

        server = Endpoint(network, "server", dedup=True)
        server.register("WORK", self._handle_work)
        if self.policy == "resilient":
            server.use_admission(AdmissionConfig(max_inflight=self.watermark))
            server.register_degraded("WORK", self._degraded_work)
        server.start()
        self._server = server

        self._resilient_policy = RetryPolicy(
            max_attempts=4, timeout=self.naive_timeout,
            backoff="exponential", base_delay=0.1, multiplier=2.0,
            max_delay=1.0, jitter=0.3, deadline=self.deadline,
        )
        clients = []
        for index in range(self.num_clients):
            client = RpcClient(network, f"c{index}")
            if self.policy == "resilient":
                client.use_breaker(BreakerConfig(
                    failure_threshold=5, recovery_time=0.5, half_open_probes=2,
                ))
            clients.append(client)

        engine = ChaosEngine(ChaosTargets(
            sim, network=network,
            nodes={"server": CrashAdapter(server.stop, self._restart_server)},
        ))
        engine.install(plan)

        monitor = InvariantMonitor(sim)
        monitor.register("acked-implies-executed", self._check_acked_executed)
        monitor.register("at-most-once-per-incarnation", self._check_at_most_once)
        if self.policy == "resilient":
            monitor.register("bounded-inflight", self._check_bounded_inflight)
        monitor.start(self.cadence, self.horizon)

        for index, client in enumerate(clients):
            sim.spawn(
                self._client_loop(sim, client, index),
                name=f"chaos.retrystorm.c{index}",
            )
        sim.run(until=self.horizon)

        engine.restore()
        # Quiesce: let the server drain whatever the storm left queued —
        # the naive backlog is the metastability being measured, so give
        # it bounded (not unbounded) drain time before the final check.
        sim.run(until=self.horizon + 5.0)
        monitor.check_now("quiesce")

        return ChaosReport.of(self.name, seed, plan, monitor)

    # ------------------------------------------------------------------
    # Server

    def _restart_server(self) -> None:
        """A crash killed the endpoint (fail-fasting every in-flight
        handler) and abandoned the serialization lock: in-memory state
        dies with the process, so the restart gets a fresh lock and a new
        incarnation number (the scenario's at-most-once claims are
        per-incarnation, exactly like the volatile dedup cache)."""
        self._incarnation += 1
        self._lock = Lock(self._sim, name="retrystorm.server")
        self._server.restart()

    def _in_slow_window(self) -> bool:
        return self.slow_start <= self._sim.now < self.slow_end

    def _handle_work(self, endpoint: Endpoint, msg: Any) -> Generator:
        sim = self._sim
        self._peak_inflight = max(self._peak_inflight, endpoint.inflight_handlers)
        lock = self._lock
        yield lock.acquire()
        try:
            if self.policy == "resilient" and expired(sim, msg.payload):
                # Late shed: admitted before its deadline, reached the
                # head of the line after. Don't burn the slow window on
                # an answer nobody is waiting for.
                sim.metrics.inc("chaos.retrystorm.shed_late")
                return {"shed": True}
            factor = self.slow_factor if self._in_slow_window() else 1.0
            yield Timeout(self.service_time * factor)
            value = msg.payload["item"] * 2
            uniquifier = msg.payload["uniquifier"]
            self._executions.append((self._incarnation, uniquifier))
            self._executed_uniqs.add(uniquifier)
            self._last_value = value
            sim.metrics.inc("chaos.retrystorm.executed")
            return {"value": value}
        finally:
            if lock is self._lock:  # a crash may have replaced the lock
                lock.release()

    def _degraded_work(self, _endpoint: Endpoint, _msg: Any) -> Optional[Dict[str, Any]]:
        """Creek-style degraded read: the last computed value as a stale
        guess, or None (fall back to BUSY) before anything has run."""
        if self._last_value is None:
            return None
        return {"value": self._last_value, "stale": True}

    # ------------------------------------------------------------------
    # Clients

    def _client_loop(self, sim: Simulator, client: RpcClient, index: int) -> Generator:
        rng = sim.rng.stream(f"chaos.retrystorm.client.{index}")
        while True:
            think = self.think_time * rng.uniform(0.5, 1.5)
            if sim.now + think > self.horizon:
                return
            yield Timeout(think)
            req_no = next(self._req_counter)
            if self.policy == "naive":
                yield from self._issue_naive(sim, client, req_no)
            else:
                yield from self._issue_resilient(sim, client, req_no)

    def _issue_naive(self, sim: Simulator, client: RpcClient, req_no: int) -> Generator:
        """The storm: each app-layer reissue forgets it already asked and
        mints a fresh uniquifier — timed-out work stays queued AND gets
        resubmitted, so offered load multiplies exactly under overload."""
        for reissue in range(self.naive_reissues):
            payload = {
                "item": req_no,
                "uniquifier": f"req-{req_no}-try{reissue}",
            }
            sim.metrics.inc("chaos.retrystorm.issued")
            if reissue:
                sim.metrics.inc("chaos.retrystorm.reissues")
            try:
                reply = yield from client.call(
                    "server", "WORK", payload,
                    timeout=self.naive_timeout, retries=self.naive_retries,
                )
            except (TimeoutError_, RpcError, CrashedError):
                continue
            self._record_success(sim, reply, payload["uniquifier"])
            return
        sim.metrics.inc("chaos.retrystorm.give_ups")

    def _issue_resilient(self, sim: Simulator, client: RpcClient, req_no: int) -> Generator:
        """One call per logical request: a stable uniquifier (wire
        retries are dedup territory), backoff + jitter, an overall
        deadline, and the breaker deciding whether to talk at all."""
        payload = {"item": req_no, "uniquifier": f"req-{req_no}"}
        sim.metrics.inc("chaos.retrystorm.issued")
        try:
            reply = yield from client.call(
                "server", "WORK", payload, policy=self._resilient_policy,
            )
        except BreakerOpenError:
            sim.metrics.inc("chaos.retrystorm.breaker_give_ups")
            return
        except (TimeoutError_, RpcError, CrashedError):
            sim.metrics.inc("chaos.retrystorm.give_ups")
            return
        if reply.get("shed"):
            sim.metrics.inc("chaos.retrystorm.give_ups")
            return
        self._record_success(sim, reply, payload["uniquifier"])

    def _record_success(self, sim: Simulator, reply: Dict[str, Any], uniquifier: str) -> None:
        sim.metrics.inc("chaos.retrystorm.ok")
        if reply.get("degraded"):
            sim.metrics.inc("chaos.retrystorm.ok_degraded")
        else:
            self._acked_uniqs.add(uniquifier)
        if self.slow_start <= sim.now <= self.slow_end:
            sim.metrics.inc("chaos.retrystorm.ok_window")

    # ------------------------------------------------------------------
    # Invariants

    def _check_acked_executed(self) -> Optional[str]:
        """Every non-degraded success the clients counted corresponds to
        work the server actually executed (no phantom acks)."""
        phantom = self._acked_uniqs - self._executed_uniqs
        if phantom:
            return f"{len(phantom)} acked but never executed (e.g. {sorted(phantom)[0]})"
        return None

    def _check_at_most_once(self) -> Optional[str]:
        """Within one server incarnation the §2.1 discipline (dedup cache
        + in-flight parking) executes each uniquifier at most once. A
        crash wipes the cache, so *across* incarnations duplicates are
        expected — that is the paper's point, not a bug."""
        seen: Set[Tuple[int, str]] = set()
        for entry in self._executions:
            if entry in seen:
                return f"uniquifier {entry[1]!r} executed twice in incarnation {entry[0]}"
            seen.add(entry)
        return None

    def _check_bounded_inflight(self) -> Optional[str]:
        """Admission control holds the watermark: the server never serves
        more than ``max_inflight`` handlers concurrently."""
        if self._peak_inflight > self.watermark:
            return f"peak inflight {self._peak_inflight} exceeds watermark {self.watermark}"
        return None
