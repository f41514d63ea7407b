"""Self-tests of the benchmark (not of the program).

    python -m pytest e2ebench -q

They run ``run.py`` in a subprocess with ``--seconds 0``, so that a run
does only its fixed episodes, and check that what must repeat
exactly does, that the seed matters, that every correctness check can
fail, and that the output matches ``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: What a pure-speed change must leave identical.
EXACT = ("sim_p50_ms", "sim_tail_ms", "sim_tail_pct", "acked_frac",
         "failed_frac", "takeover_s", "converge_s", "fingerprint")


def bench(workload: str, seed: int, trace: int = 0,
          hashseed: str = "0") -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(summary line, result line) of one run."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    summary = next(json.loads(line[len("summary "):]) for line in lines
                   if line.startswith("summary "))
    return summary, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs() -> Dict[Tuple[str, int, str], Tuple[Dict[str, Any], Dict[str, Any]]]:
    results = {}
    for workload in WORKLOADS:
        for hashseed in ("1", "2"):
            results[workload, 3, hashseed] = bench(workload, 3, hashseed=hashseed)
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly(runs, workload):
    (summary_a, result_a), (summary_b, result_b) = runs[workload, 3, "1"], runs[workload, 3, "2"]
    assert result_a["correct"] and result_b["correct"]
    for name in EXACT:
        assert summary_a[name] == summary_b[name], name
    assert result_a["metrics"]["calls_per_op"] == result_b["metrics"]["calls_per_op"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_changes_the_fingerprint(runs, workload):
    other, _result = bench(workload, 4)
    assert other["fingerprint"] != runs[workload, 3, "1"][0]["fingerprint"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_output_matches_the_spec(runs, workload):
    summary, result = runs[workload, 3, "1"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == spec
    assert all(entry["value"] != 0 for entry in result["metrics"].values())


def test_traced_output_matches_the_spec():
    summary, result = bench("cart_hot", 3, trace=1)
    spec = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == spec
    trace = json.loads((HERE / "out" / "cart_hot-seed3.trace.json").read_text())
    assert trace["fingerprint"] == summary["fingerprint"]
    ops = {span["op"] for span in trace["spans"] if span["name"] == "CartService.add"}
    assert len(ops) == 600 and None not in ops
    children = [span for span in trace["spans"] if span["name"] == "DynamoClient.put"]
    assert children and all(span["op"] in ops and span["parent"] for span in children)


def test_metric_names_and_units_are_well_formed():
    names = [entry["name"] for group in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"]), entry


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "cart_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ----------------------------------------------------------------------
# Correctness checks trip on doctored evidence


def evidence(name: str) -> Any:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from probe import Probe
    import workloads

    workload = workloads.WORKLOADS[name]
    world = workload.prepare(5, 0)
    with Probe(ops=workload.untraced_ops) as probe:
        outcome = workload.run(world, probe)
    assert workload.check(outcome.evidence) == []
    return workload, outcome.evidence


def test_ring_serve_check_trips_on_a_lost_put():
    workload, good = evidence("ring_serve")
    key, value, _clock = good["acked_puts"][-1]
    overwritten = copy.deepcopy(good)
    overwritten["final"][key] = [[f"not-{value}", clock] for _v, clock in good["final"][key]]
    assert workload.check(overwritten)
    gone = copy.deepcopy(good)
    gone["final"][key] = []
    assert workload.check(gone)


def test_cart_hot_check_trips_on_a_missing_item():
    workload, good = evidence("cart_hot")
    doctored = copy.deepcopy(good)
    del doctored["view"]["item7"]
    assert workload.check(doctored) == [
        "cart_hot: item7 missing from the final view (has 0)"]


def test_ring_repair_check_trips_on_divergence_and_stray_ownership():
    workload, good = evidence("ring_repair")
    key = next(iter(good["converged"]))
    diverged = copy.deepcopy(good)
    diverged["converged"][key] = False
    assert workload.check(diverged)
    unowned = copy.deepcopy(good)
    unowned["unowned"][key] = ["node1"]
    assert workload.check(unowned)
    stuck = copy.deepcopy(good)
    stuck["ring_nodes"].append(good["leaver"])
    assert workload.check(stuck)
    noisy = copy.deepcopy(good)
    noisy["rounds"] = noisy["max_rounds"]
    assert workload.check(noisy)


def test_game_day_check_trips_on_violations_and_lost_writes():
    workload, good = evidence("game_day")
    violated = dict(good, violations=["no-acked-write-lost: 1 missing"])
    assert workload.check(violated)
    lost = dict(good, lost_acked_writes=1)
    assert workload.check(lost)


def test_tail_skips_a_plateau_of_ties():
    sys.path.insert(0, str(HERE))
    from run import tail

    assert tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    plateau = [float(i) for i in range(50)] + [100.0] * 30
    assert tail(plateau) == (49.0, 62.5, 30)
