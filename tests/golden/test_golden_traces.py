"""Golden-trace regression tests: the kernel is bit-for-bit neutral.

Each test replays one frozen seeded run (bank clearing under a chaos
plan, Dynamo cart under a chaos plan, Tandem DP2 with a mid-run primary
crash) and asserts the rendered trace and final metric counters are
*byte-identical* to fixtures captured before the perf overhaul. This is
what lets lazy trace formatting, the batched drain loop, the network
fast path, and multiprocessing sweeps land without a determinism review
of every call site.

The chaos scenarios without a trace fixture of their own are pinned by
``chaos_behaviour.json``: one seed-0 run per smoke configuration, kept as
its end time, counters, violation signatures and trace digest.
"""

import json

import pytest

from tests.golden.scenarios import (
    CHAOS_BEHAVIOUR,
    CHAOS_VARIANTS,
    GOLDEN_RUNS,
    fixture_paths,
    run_chaos_variant,
)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_run_is_bit_identical(name):
    trace_path, counters_path = fixture_paths(name)
    assert trace_path.exists(), (
        f"missing fixture {trace_path}; run `python -m tests.golden.capture`"
    )
    trace, counters = GOLDEN_RUNS[name]()
    expected_trace = trace_path.read_text()
    expected_counters = counters_path.read_text()
    assert counters == expected_counters
    # Compare line-by-line first for a readable diff on failure.
    got_lines = trace.splitlines()
    want_lines = expected_trace.splitlines()
    for index, (got, want) in enumerate(zip(got_lines, want_lines)):
        assert got == want, f"{name}: trace line {index} diverged"
    assert len(got_lines) == len(want_lines)
    assert trace == expected_trace


@pytest.fixture(scope="module")
def chaos_behaviour():
    assert CHAOS_BEHAVIOUR.exists(), (
        f"missing fixture {CHAOS_BEHAVIOUR}; run `python -m tests.golden.capture`"
    )
    return json.loads(CHAOS_BEHAVIOUR.read_text())


@pytest.mark.parametrize("name", sorted(CHAOS_VARIANTS))
def test_chaos_variant_behaviour_is_unchanged(name, chaos_behaviour):
    """Seed 0 of each smoke configuration ends at the same time, with the
    same counters, the same violations and a byte-identical trace."""
    got = json.loads(json.dumps(run_chaos_variant(name)))
    assert got == chaos_behaviour[name]
