"""The shared pieces every chaos scenario's ``run(seed, plan)`` is built from.

Scenarios compose these rather than inherit a template: each still owns
its ``run`` (spawn order, process names, RNG streams and metric names are
part of its replayable behaviour), but the parts that used to be written
once per scenario live here once:

- :class:`CrashAdapter` — the idempotent crash/restart target handed to
  the :class:`~repro.chaos.engine.ChaosEngine`;
- :func:`unique_key_writer` and :data:`WORKLOAD_ERRORS` — the Dynamo
  writer whose every ack is its own fact, and what counts as "not acked";
- :func:`repair_until_converged` — the quiesce-time repair loop of a
  Dynamo ring;
- :meth:`ChaosReport.of` — the report every run returns.

The lost-write and reconvergence checks sit with the other invariants in
:mod:`repro.chaos.invariants`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    Optional,
    Tuple,
)

from repro.chaos.invariants import InvariantMonitor, Violation
from repro.chaos.plan import ChaosPlan
from repro.dynamo.cluster import DynamoCluster, QuorumUnavailable
from repro.errors import CrashedError, SimulationError, TimeoutError_
from repro.net.rpc import RpcError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator

#: A client request that raised one of these was not acknowledged: the
#: client saw the failure, so losing the write is an acceptable apology.
WORKLOAD_ERRORS = (
    QuorumUnavailable, TimeoutError_, RpcError, CrashedError, SimulationError,
)


@dataclass(frozen=True)
class ChaosReport:
    """What one (seed, plan) run produced."""

    scenario: str
    seed: int
    plan: ChaosPlan
    violations: Tuple[Violation, ...]
    counters: Dict[str, float]
    end_time: float

    @classmethod
    def of(
        cls, scenario: str, seed: int, plan: ChaosPlan, monitor: InvariantMonitor
    ) -> "ChaosReport":
        """The report of a finished run, read off its monitor's simulator."""
        return cls(
            scenario=scenario,
            seed=seed,
            plan=plan,
            violations=tuple(monitor.violations),
            counters=monitor.sim.metrics.counters(),
            end_time=monitor.sim.now,
        )

    @property
    def failed(self) -> bool:
        return bool(self.violations)

    @property
    def first_violation(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None


class CrashAdapter:
    """Idempotent crash/restart target: a second crash while down, or a
    restart while up, does nothing.

    ``crash`` is called with the injector's cause string; ``restart``
    with no arguments. What a crash or restart *means* (warm or cold,
    which loops stop, what recovery runs) is the scenario's callbacks.
    """

    def __init__(
        self, crash: Callable[[str], Any], restart: Callable[[], Any]
    ) -> None:
        self._crash = crash
        self._restart = restart
        self.up = True

    def crash(self, cause: str = "injected") -> None:
        if not self.up:
            return
        self.up = False
        self._crash(cause)

    def restart(self) -> None:
        if self.up:
            return
        self.up = True
        self._restart()


def unique_key_writer(
    sim: Simulator,
    client: Any,
    acked: Dict[str, int],
    interval: float,
    until: float,
    stream: str,
    metrics: str,
    key_prefix: str = "w",
) -> Generator:
    """Unique-key puts every ``interval`` (±30%, from RNG ``stream``)
    until ``until``. Each acknowledged write is its own fact, so "lost"
    has no sibling-merge ambiguity to hide behind; acks land in
    ``acked`` and count as ``<metrics>.acked_puts``, failures as
    ``<metrics>.failed_puts``."""
    rng = sim.rng.stream(stream)
    acked_metric = f"{metrics}.acked_puts"
    failed_metric = f"{metrics}.failed_puts"
    seq = 0
    while True:
        delay = interval * rng.uniform(0.7, 1.3)
        if sim.now + delay > until:
            return
        yield Timeout(delay)
        seq += 1
        key, value = f"{key_prefix}{seq}", seq
        try:
            yield from client.put(key, value)
        except WORKLOAD_ERRORS:
            sim.metrics.inc(failed_metric)
            continue
        acked[key] = value
        sim.metrics.inc(acked_metric)


def repair_until_converged(
    sim: Simulator,
    cluster: DynamoCluster,
    keys: Iterable[str],
    rounds: int,
    repair_round: Callable[[], Generator],
    metric: str,
    since: Optional[float] = None,
) -> Optional[float]:
    """Run up to ``rounds`` of hinted handoff + ``repair_round`` (Merkle
    or anti-entropy) until every key's live owners agree.

    Returns the simulated time of agreement and observes how long it took
    (from ``since``, default now) as ``metric``; None if the rounds ran
    out first.
    """
    started = sim.now if since is None else since
    for _ in range(rounds):
        sim.run_process(cluster.run_handoff_round())
        sim.run_process(repair_round())
        if all(cluster.converged_on(key) for key in keys):
            sim.metrics.observe(metric, sim.now - started)
            return sim.now
    return None
