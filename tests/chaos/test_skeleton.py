"""The shared scenario pieces: crash adapter, writer, repair loop, report."""

from repro.chaos.invariants import InvariantMonitor
from repro.chaos.plan import ChaosPlan
from repro.chaos.skeleton import (
    ChaosReport,
    CrashAdapter,
    repair_until_converged,
    unique_key_writer,
)
from repro.dynamo.cluster import DynamoCluster
from repro.dynamo.versions import VectorClock, VersionedValue
from repro.errors import SimulationError
from repro.sim.events import Timeout
from repro.sim.scheduler import Simulator


def recording_adapter():
    calls = []
    adapter = CrashAdapter(
        lambda cause: calls.append(("crash", cause)),
        lambda: calls.append(("restart",)),
    )
    return adapter, calls


def test_double_crash_crashes_the_target_once():
    adapter, calls = recording_adapter()
    adapter.crash()
    adapter.crash("again")
    assert not adapter.up
    assert calls == [("crash", "injected")]


def test_restart_while_up_is_a_no_op():
    adapter, calls = recording_adapter()
    adapter.restart()
    assert adapter.up
    assert calls == []

    adapter.crash("partition")
    adapter.restart()
    adapter.restart()
    assert adapter.up
    assert calls == [("crash", "partition"), ("restart",)]


class FlakyClient:
    """Acknowledges even values; odd ones fail the way a quorum does."""

    def put(self, key, value):
        yield Timeout(0.01)
        if value % 2:
            raise SimulationError(f"no quorum for {key}")


def test_unique_key_writer_records_only_acked_writes():
    sim = Simulator(seed=3)
    acked = {}
    sim.spawn(
        unique_key_writer(
            sim, FlakyClient(), acked, interval=0.1, until=2.0,
            stream="test.writer", metrics="test", key_prefix="k-",
        ),
        name="test.writer",
    )
    sim.run()
    counters = sim.metrics.counters()
    assert acked
    assert all(key == f"k-{value}" and value % 2 == 0 for key, value in acked.items())
    assert counters["test.acked_puts"] == len(acked)
    assert counters["test.failed_puts"] >= len(acked) - 1
    assert sim.now <= 2.0 + 0.01


def test_repair_until_converged_times_the_repair():
    sim = Simulator(seed=0)
    cluster = DynamoCluster(num_nodes=4, sim=sim)
    owner = cluster.ring.intended_owners("k", cluster.n)[0]
    cluster.nodes[owner].store_version("k", VersionedValue(1, VectorClock({owner: 1})))
    assert not cluster.converged_on("k")

    assert repair_until_converged(
        sim, cluster, ["k"], 0, cluster.run_merkle_round, "test.converge"
    ) is None
    at = repair_until_converged(
        sim, cluster, ["k"], 3, cluster.run_merkle_round, "test.converge",
        since=0.0,
    )
    assert at is not None and cluster.converged_on("k")
    assert sim.metrics.histogram("test.converge").values == [at]


def test_report_reads_the_monitor_simulator():
    sim = Simulator(seed=0)
    sim.metrics.inc("test.events", 2)
    monitor = InvariantMonitor(sim)
    monitor.register("always-broken", lambda: "broken")
    monitor.check_now()
    report = ChaosReport.of("test", 5, ChaosPlan(), monitor)
    assert report.scenario == "test" and report.seed == 5
    assert report.failed
    assert report.first_violation.invariant == "always-broken"
    assert report.counters["test.events"] == 2
    assert report.end_time == sim.now
