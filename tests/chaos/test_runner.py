"""ChaosRunner end-to-end: sweeps, shrinking, bit-for-bit replay.

The acceptance story: a seeded sweep over the bank-clearing scenario
with a deliberately broken policy finds an invariant violation, shrinks
it to a minimal ChaosPlan, and replaying that plan with the same seed
reproduces the identical violation.
"""

import pytest

from repro.chaos import (
    BankClearingScenario,
    CartDynamoScenario,
    ChaosPlan,
    ChaosRunner,
)
from repro.chaos.plan import CrashEpisode
from repro.chaos.runner import _SCENARIOS, _build_scenario
from repro.errors import SimulationError


def test_correct_policy_survives_sweep():
    scenario = BankClearingScenario(policy="correct")
    result = ChaosRunner(scenario).sweep(range(3))
    assert result.runs == 3
    assert not result.failures
    assert result.violation_rate == 0.0


def test_broken_policy_found_shrunk_and_replayed():
    """The headline path: find -> shrink -> replay identically."""
    scenario = BankClearingScenario(policy="amnesiac-restart")
    runner = ChaosRunner(scenario, spec=scenario.spec(min_crashes=1))
    result = runner.sweep(range(3))

    # The sweep finds the planted bug.
    assert result.failures, "amnesiac-restart policy was not caught"
    for case in result.failures:
        assert case.violation.invariant == "conservation-of-money"

        # Shrinking produced a minimal plan: the bug needs a crash, so
        # the plan cannot be empty, and greedy dropping leaves one episode.
        assert 1 <= len(case.minimal_plan) <= len(case.plan)
        assert case.minimal_plan.crashes, "the violation requires a crash"

        # The minimal plan still shows the *same* bug...
        assert case.minimal_violation is not None
        assert case.minimal_violation.signature == case.violation.signature

        # ...and replays bit-for-bit from its seed: identical violation
        # (time, detail, phase, trace context) and identical counters.
        assert case.replay_matches

    # Violation rates flow through the runner's metrics registry.
    counters = runner.metrics.counters()
    assert counters["chaos.runs"] == 3
    assert counters["chaos.failing_runs"] == len(result.failures)
    assert counters["chaos.shrink.evals"] >= 1


def test_minimal_plan_replay_is_exact():
    """Replaying a shrunk plan twice gives equal reports, field for field."""
    scenario = BankClearingScenario(policy="amnesiac-restart")
    runner = ChaosRunner(scenario, spec=scenario.spec(min_crashes=1))
    case = runner.sweep([0]).failures[0]

    first = scenario.run(case.seed, case.minimal_plan)
    second = scenario.run(case.seed, case.minimal_plan)
    assert first.violations == second.violations
    assert first.counters == second.counters
    assert first.violations[0] == case.minimal_violation


def test_chaos_free_bug_shrinks_to_empty_plan():
    """branch-uniquifier double-debits without any chaos at all, so the
    shrinker should strip the schedule down to nothing."""
    scenario = BankClearingScenario(policy="branch-uniquifier")
    result = ChaosRunner(scenario).sweep([0])
    assert result.failures
    case = result.failures[0]
    assert case.violation.invariant == "no-duplicate-debit"
    assert len(case.minimal_plan) == 0
    assert case.replay_matches


def test_fixed_plan_runner_skips_sampling():
    plan = ChaosPlan((CrashEpisode("g0", 5.0, 8.0),))
    runner = ChaosRunner(BankClearingScenario(policy="correct"), plan=plan)
    assert runner.plan_for(0) == plan
    assert runner.plan_for(99) == plan
    report = runner.run_seed(0)
    assert not report.failed


def test_lww_cart_loses_adds_and_op_cart_does_not():
    """§6.1 under the same chaos plan: the op-centric cart keeps every
    acknowledged add; last-writer-wins drops some."""
    seed = 6  # a seed whose sampled plan splits the two shoppers
    lww = CartDynamoScenario(policy="lww")
    report = lww.run(seed, lww.spec().sample(seed))
    assert report.failed
    assert report.violations[0].invariant == "no-lost-cart-adds"

    correct = CartDynamoScenario(policy="correct")
    assert not correct.run(seed, correct.spec().sample(seed)).failed


def test_lww_cart_failure_shrinks_and_replays():
    result = ChaosRunner(CartDynamoScenario(policy="lww")).sweep([6])
    assert result.failures
    case = result.failures[0]
    assert len(case.minimal_plan) <= len(case.plan)
    assert case.replay_matches


def test_smoke_cli_entrypoint():
    from repro.chaos.runner import main

    assert main(["--scenario", "bank", "--seeds", "2"]) == 0
    assert main(["--scenario", "bank", "--policy", "branch-uniquifier",
                 "--seeds", "1"]) == 1


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_build_scenario_accepts_every_declared_policy(name):
    """``--policy`` reaches each scenario's constructor under one name."""
    scenario_cls = _SCENARIOS[name]
    assert _build_scenario(name, None).policy in scenario_cls.policies
    for policy in scenario_cls.policies:
        assert _build_scenario(name, policy).policy == policy
    with pytest.raises(SimulationError):
        _build_scenario(name, "no-such-policy")

