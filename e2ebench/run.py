"""The repository benchmark: one command, four workloads.

    python3 e2ebench/run.py --workload ring_serve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off and checks
every episode's outcome; ``--trace 1`` is the separate traced run that
attributes the same episodes to the program's packages and writes its
spans to ``e2ebench/out/``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The lines
before it are for people: every metric with its unit, the outcome
metrics that are not in the JSON, and the fingerprint of the simulated
outcome. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import statistics
import sys
import time
import tracemalloc
import traceback
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The tail is the highest latency with at least this many samples
#: strictly beyond it.
TAIL_BEYOND = 10

#: Host time is reported in reference seconds: host seconds scaled so that
#: the reference loop, timed right before and right after each episode,
#: takes REFERENCE_S. A shared host can change speed by 1.8x within
#: seconds; the loop sees the same slowdown as the program, so the ratio
#: measures the code instead of the host.
REFERENCE_S = 0.01

#: Each side of an episode takes the fastest of this many reference
#: loops, so an interrupt during one loop does not read as a slow host.
REFERENCE_REPEATS = 3

OUT = HERE / "out"


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest sample that has
    at least ``TAIL_BEYOND`` samples strictly greater than it. Ties count
    as one value, so a plateau at a timeout budget is reported as the
    largest latency still below it."""
    ordered = sorted(round(sample, 9) for sample in samples)  # ties at 1 ns
    for index in range(len(ordered) - TAIL_BEYOND - 1, -1, -1):
        beyond = len(ordered) - bisect_right(ordered, ordered[index])
        if beyond >= TAIL_BEYOND:
            return ordered[index], 100.0 * (len(ordered) - beyond) / len(ordered), beyond
    return float("nan"), float("nan"), 0


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def reference_s() -> float:
    """Host seconds a fixed pure-Python loop takes now: generator
    resumes, small objects, dict updates, list copies and a sort — the
    simulator's diet. The collector is off while it runs."""
    def entries(n: int) -> Iterator[_Entry]:
        seen: Dict[int, int] = {}
        for i in range(n):
            seen[i & 255] = seen.get(i & 255, 0) + 1
            yield _Entry(f"k{i}", i)

    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for _ in range(5):
            log: List[Dict[str, str]] = []
            for entry in entries(1000):
                total += entry.value
                log = log + [{"key": entry.key}] if len(log) < 300 else log[1:]
            sorted(str(i) for i in range(500))
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


@dataclass
class Sample:
    """One checked episode, host times in reference seconds."""

    setup_s: float
    host_s: float
    speed: float  # REFERENCE_S / the reference loop's host seconds
    outcome: Any


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs one workload's episodes and keeps its correctness verdict.
    Episode ``i`` is the same simulated work in every pass."""

    def __init__(self, workload: Any, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.errors: List[str] = []
        self.failed_ops = 0

    def probe(self, spans: bool = False) -> Any:
        from probe import Probe
        from workloads import CLIENT_OPS, SPAN_BOUNDS

        if spans:
            return Probe(ops=CLIENT_OPS, bounds=SPAN_BOUNDS, spans=True)
        return Probe(ops=self.workload.untraced_ops)

    def episode(self, index: int, probe: Any) -> Optional[Sample]:
        """One episode, timed and checked; None when it raised. Every
        episode starts from a collected heap, so the collector's work
        inside it does not depend on what ran before."""
        gc.collect()
        try:
            before = min(reference_s() for _ in range(REFERENCE_REPEATS))
            started = time.perf_counter()
            world = self.workload.prepare(self.seed, index)
            setup_s = time.perf_counter() - started
            outcome = self.workload.run(world, probe)
            after = min(reference_s() for _ in range(REFERENCE_REPEATS))
            speed = REFERENCE_S / ((before + after) / 2)
        except Exception:  # noqa: BLE001 - a crashing program is a failed run
            self.errors.append(f"episode {index} raised:\n{traceback.format_exc()}")
            self.failed_ops += 1
            return None
        finally:
            probe.records.clear()
            probe.instances.clear()
        errors = self.workload.check(outcome.evidence)
        if errors:
            self.errors.extend(errors)
            self.failed_ops += outcome.ops
        outcome.evidence = None  # checked; free it
        return Sample(setup_s * speed, outcome.host_s * speed, speed, outcome)

    def fixed_pass(self, probe: Any) -> Optional[List[Sample]]:
        """The fixed episodes, or None if one raised."""
        samples = []
        with probe:
            for index in range(self.workload.fixed_episodes):
                sample = self.episode(index, probe)
                if sample is None:
                    return None
                samples.append(sample)
        return samples

    def profiled_pass(self) -> Tuple[Dict[str, Any], cProfile.Profile]:
        """The fixed episodes' measured phases under cProfile."""
        from probe import layer_profile

        profile = cProfile.Profile()
        with self.probe() as probe:
            for index in range(self.workload.fixed_episodes):
                world = self.workload.prepare(self.seed, index)
                gc.collect()
                profile.enable()
                self.workload.run(world, probe)
                profile.disable()
        return layer_profile(profile), profile

    def peak_heap_mb(self) -> float:
        """tracemalloc peak over the first episode, set-up included."""
        gc.collect()
        tracemalloc.start()
        try:
            world = self.workload.prepare(self.seed, 0)
            with self.probe() as probe:
                self.workload.run(world, probe)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def setup_heap_mb(self, package: str) -> float:
        """MiB still held after set-up by allocations made in one of the
        program's packages."""
        gc.collect()
        tracemalloc.start()
        try:
            world = self.workload.prepare(self.seed, 0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        del world
        held = snapshot.filter_traces([tracemalloc.Filter(True, f"*/repro/{package}/*")])
        return sum(stat.size for stat in held.statistics("filename")) / 2**20


def outcome_metrics(fixed: List[Any]) -> Dict[str, Any]:
    """The simulated outcome of the fixed episodes: exact for a seed."""
    import workloads

    latencies = [lat for outcome in fixed for lat in outcome.latencies]
    tail_s, tail_pct, beyond = tail(latencies)
    attempts = sum(outcome.attempts for outcome in fixed)
    acked = sum(outcome.acked for outcome in fixed)

    def sim_median(name: str) -> Optional[float]:
        values = [outcome.sim[name] for outcome in fixed if name in outcome.sim]
        return statistics.median(values) if values else None

    return {
        "sim_p50_ms": statistics.median(latencies) * 1000.0,
        "sim_tail_ms": tail_s * 1000.0,
        "sim_tail_pct": tail_pct,
        "sim_tail_beyond": beyond,
        "sim_samples": len(latencies),
        "acked_frac": acked / attempts,
        "failed_frac": 1.0 - acked / attempts,
        "takeover_s": sim_median("takeover_s"),
        "converge_s": sim_median("converge_s"),
        "fingerprint": workloads.digest([outcome.digest for outcome in fixed]),
    }


# ----------------------------------------------------------------------
# --trace 0: end-to-end


def end_to_end(runner: Runner, seconds: float) -> Tuple[Dict[str, Any], Dict[str, Any], int]:
    """Episodes back to back until ``seconds`` pass (the fixed ones at
    least); every episode gives one set-up time and one ops/s sample."""
    workload = runner.workload
    samples: List[Sample] = []
    deadline = time.perf_counter() + seconds
    with runner.probe() as probe:
        while len(samples) < workload.fixed_episodes or time.perf_counter() < deadline:
            sample = runner.episode(len(samples), probe)
            if sample is None:
                break
            samples.append(sample)
    attempted = sum(sample.outcome.ops for sample in samples)
    if len(samples) < workload.fixed_episodes:
        return {}, {}, max(attempted, 1)
    fixed = [sample.outcome for sample in samples[:workload.fixed_episodes]]
    summary = outcome_metrics(fixed)
    summary["episodes"] = len(samples)
    summary["host_ops_per_s"] = statistics.median(
        sample.outcome.ops / sample.outcome.host_s for sample in samples)
    summary["host_speed"] = statistics.median(sample.speed for sample in samples)
    layers, _profile = runner.profiled_pass()
    metrics = {
        "ops_per_s": metric(statistics.median(
            sample.outcome.ops / sample.host_s for sample in samples), "ops/s"),
        "calls_per_op": metric(layers["total_calls"] / sum(o.ops for o in fixed), "calls/op"),
        "setup_s": metric(statistics.median(sample.setup_s for sample in samples), "s"),
        "peak_heap_mb": metric(runner.peak_heap_mb(), "MiB"),
        "sim_p50_ms": metric(summary["sim_p50_ms"], "sim_ms"),
        "sim_tail_ms": metric(summary["sim_tail_ms"], "sim_ms"),
        "acked_frac": metric(summary["acked_frac"], "ratio"),
    }
    return metrics, summary, attempted


# ----------------------------------------------------------------------
# --trace 1: per layer


def per_layer(runner: Runner, seconds: float) -> Tuple[Dict[str, Any], Dict[str, Any], int]:
    """Untraced and span-traced passes over the fixed episodes, alternated
    until ``seconds`` pass, then one profiled pass."""
    from probe import LAYERS
    from repro.dynamo.ring import ring_hash
    from repro.sim.process import Process

    workload = runner.workload
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    fixed: List[Any] = []
    traced: Any = None
    speed = 1.0
    deadline = time.perf_counter() + seconds
    while not plain_walls or time.perf_counter() < deadline:
        plain = runner.fixed_pass(runner.probe())
        probe = runner.probe(spans=True)
        spanned = runner.fixed_pass(probe)
        if plain is None or spanned is None:
            return {}, {}, 1
        plain_walls.append(sum(sample.host_s for sample in plain))
        traced_walls.append(sum(sample.host_s for sample in spanned))
        if traced is None:
            fixed = [sample.outcome for sample in plain]
            traced = probe
            speed = statistics.median(sample.speed for sample in spanned)
    layers, profile = runner.profiled_pass()

    episodes = len(fixed)
    ops = sum(outcome.ops for outcome in fixed)
    spans = traced.span_log

    def busy(name: str) -> List[float]:
        """Reference seconds each span of ``name`` spent running."""
        return [span.busy * speed for span in spans if span.name == name]

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def calls_of(fn: Callable[..., Any]) -> float:
        code = getattr(fn, "__code__", None)
        return float(sum(entry.callcount for entry in profile.getstats() if entry.code is code))

    def sim_values(name: str) -> List[float]:
        return [outcome.sim[name] for outcome in fixed if name in outcome.sim]

    moved = 0.0
    rounds = 0
    for span in spans:
        if not span.ok:
            continue
        if span.name == "DynamoCluster.run_merkle_round":
            moved += span.result["versions_moved"]
            rounds += 1
        elif span.name == "DynamoCluster.run_anti_entropy_round":
            moved += span.result
            rounds += 1
        elif span.name == "DynamoCluster.join":
            moved += span.result["versions_moved"]
        elif span.name == "DynamoCluster.decommission":
            moved += span.result["versions_moved"] + span.result["leftover_pushes"]
    total_self = layers["total_self_s"] or 1.0
    metrics: Dict[str, Any] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = metric(layers["self_s"].get(layer, 0.0) / total_self, "ratio")
        metrics[f"{layer}.calls_per_op"] = metric(layers["calls"].get(layer, 0.0) / ops, "calls/op")
    coord = busy("DynamoClient.get") + busy("DynamoClient.put")
    metrics.update({
        "sim.events_per_op": metric(sum(sim_values("events")) / ops, "events/op"),
        "sim.processes_per_op": metric(calls_of(Process.__init__) / ops, "procs/op"),
        "net.msgs_per_op": metric(sum(sim_values("msgs")) / ops, "msgs/op"),
        "net.rpc_calls_per_op": metric(traced.rpc_calls / ops, "calls/op"),
        "net.rpc_failed_frac": metric(traced.rpc_failed / max(traced.rpc_calls, 1), "ratio"),
        "dynamo.ring_hash_per_op": metric(calls_of(ring_hash) / ops, "hashes/op"),
        "dynamo.merkle_round_s": metric(mean(busy("DynamoCluster.run_merkle_round")), "s"),
        "dynamo.anti_entropy_s": metric(mean(busy("DynamoCluster.run_anti_entropy_round")), "s"),
        "dynamo.versions_moved": metric(moved / episodes, "versions"),
        "dynamo.repair_rounds": metric(rounds / episodes, "rounds"),
        "dynamo.coord_busy_ms": metric(1000.0 * sum(coord) / ops, "ms/op"),
        "dynamo.converge_s": metric(median_or_zero(sim_values("converge_s")), "sim_s"),
        "workload.setup_s": metric(mean(busy("ZipfKeyGenerator.__init__")), "s"),
        "workload.heap_mb": metric(runner.setup_heap_mb("workload"), "MiB"),
        "failover.detect_s": metric(median_or_zero(sim_values("detect_s")), "sim_s"),
        "failover.takeover_s": metric(median_or_zero(sim_values("takeover_s")), "sim_s"),
        "failover.false_convictions": metric(sum(sim_values("false_convictions")) / episodes, "count"),
        "logship.failed_writes": metric(sum(sim_values("failed_writes")) / episodes, "count"),
        "logship.stale_rejected": metric(sum(sim_values("stale_rejected")) / episodes, "count"),
        "trace_overhead": metric(statistics.median(traced_walls) / statistics.median(plain_walls), "ratio"),
    })
    summary = outcome_metrics(fixed)
    summary["passes"] = len(plain_walls)
    OUT.mkdir(exist_ok=True)
    origin = min((span.start for span in spans), default=0.0)
    (OUT / f"{workload.name}-seed{runner.seed}.trace.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": runner.seed,
        "ops": ops,
        "episodes": episodes,
        "fingerprint": summary["fingerprint"],
        "packages": {"self_s": layers["self_s"], "calls": layers["calls"]},
        "per_layer": {name: entry["value"] for name, entry in metrics.items()},
        "spans": [span.to_json(origin) for span in spans],
    }, indent=1))
    return metrics, summary, ops * len(plain_walls)


# ----------------------------------------------------------------------


def print_summary(workload: str, seed: int, metrics: Dict[str, Any], summary: Dict[str, Any]) -> None:
    print(f"workload {workload} seed {seed}")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:.6g} {entry['unit']}")
    if summary:
        print(f"  sim_tail is p{summary['sim_tail_pct']:.2f} with {summary['sim_tail_beyond']} "
              f"of {summary['sim_samples']} samples beyond it")
        print(f"  {'failed_frac':28s} {summary['failed_frac']:.6g} ratio")
        if "host_ops_per_s" in summary:
            print(f"  {'ops per host second':28s} {summary['host_ops_per_s']:.6g} ops/s "
                  f"(host ran at {summary['host_speed']:.3f}x the reference speed)")
        for name in ("takeover_s", "converge_s"):
            value = summary[name]
            print(f"  {name:28s} " + ("n/a" if value is None else f"{value:.6g} sim_s"))
        print(f"fingerprint {workload} seed={seed} {summary['fingerprint']}")
        print("summary " + json.dumps(summary, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"e2ebench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r} "
              f"(have {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    runner = Runner(workloads.WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, summary, attempted = per_layer(runner, args.seconds)
    else:
        metrics, summary, attempted = end_to_end(runner, args.seconds)
    for error in runner.errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print_summary(args.workload, args.seed, metrics, summary)
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": runner.failed_ops,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
