"""Seed sweeps, violation rates, and greedy schedule shrinking.

``ChaosRunner.sweep(seeds)`` samples a plan per seed, runs the scenario,
and aggregates violation rates through a :class:`MetricsRegistry`. When
a run violates an invariant, the runner shrinks the plan — greedily
dropping episodes and narrowing the survivors while the violation still
reproduces — and emits a minimal failing :class:`ChaosPlan` that replays
bit-for-bit from its seed (the runner verifies the replay itself).

CLI::

    python -m repro.chaos.runner --smoke       # CI gate: 5-seed sanity
    python -m repro.chaos.runner --scenario bank --seeds 20
    python -m repro.chaos.runner --scenario bank --policy amnesiac-restart
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.chaos.plan import (
    ChaosPlan,
    ChaosSpec,
    CrashEpisode,
    DiskFaultEpisode,
    Episode,
    LinkFaultEpisode,
    PartitionEpisode,
    WanCutEpisode,
)
from repro.chaos.game_day import GameDayScenario
from repro.chaos.membership_divergence import MembershipDivergenceScenario
from repro.chaos.mixed_txn import MixedTxnScenario
from repro.chaos.rejoin import RejoinScenario
from repro.chaos.retrystorm import RetryStormScenario
from repro.chaos.ring_rebalance import RingRebalanceScenario
from repro.chaos.splitbrain import SplitBrainScenario
from repro.chaos.scenarios import BankClearingScenario, CartDynamoScenario
from repro.chaos.skeleton import ChaosReport
from repro.errors import SimulationError
from repro.parallel import parallel_map
from repro.sim.metrics import MetricsRegistry


class _RunnerClock:
    """MetricsRegistry wants a ``.now``; the runner is outside sim time."""

    now = 0.0


@dataclass(frozen=True)
class FailingCase:
    """One seed's violation, before and after shrinking."""

    seed: int
    plan: ChaosPlan
    violation: Any  # the original first Violation
    minimal_plan: ChaosPlan
    minimal_violation: Any
    replay_matches: bool  # replaying (seed, minimal_plan) is bit-identical
    shrink_evals: int


@dataclass(frozen=True)
class SweepResult:
    scenario: str
    reports: Tuple[ChaosReport, ...]
    failures: Tuple[FailingCase, ...]

    @property
    def runs(self) -> int:
        return len(self.reports)

    @property
    def violation_rate(self) -> float:
        return len(self.failures) / len(self.reports) if self.reports else 0.0


@dataclass(frozen=True)
class _SeedRun:
    """Picklable unit of sweep work: run one seed of a scenario.

    Carries the scenario plus the runner's plan/spec so a worker process
    samples exactly the plan the parent would have (``plan`` pins a fixed
    schedule; otherwise the spec samples one from the seed).
    """

    scenario: Any
    plan: Optional[ChaosPlan]
    spec: Optional[ChaosSpec]

    def __call__(self, seed: int) -> ChaosReport:
        plan = self.plan if self.plan is not None else self.spec.sample(seed)
        return self.scenario.run(seed, plan)


class ChaosRunner:
    """Sweeps seeds over a scenario; shrinks and verifies failures."""

    def __init__(
        self,
        scenario: Any,
        spec: Optional[ChaosSpec] = None,
        plan: Optional[ChaosPlan] = None,
        shrink_budget: int = 80,
        min_window: float = 0.5,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if spec is None and plan is None:
            spec = scenario.spec()
        self.scenario = scenario
        self.spec = spec
        self.plan = plan
        self.shrink_budget = shrink_budget
        self.min_window = min_window
        self.metrics = metrics or MetricsRegistry(_RunnerClock())

    # ------------------------------------------------------------------

    def plan_for(self, seed: int) -> ChaosPlan:
        return self.plan if self.plan is not None else self.spec.sample(seed)

    def run_seed(self, seed: int) -> ChaosReport:
        report = self.scenario.run(seed, self.plan_for(seed))
        self._account(report)
        return report

    def _account(self, report: ChaosReport) -> None:
        """Fold one report into the runner's metrics. Kept separate from
        the run so parallel sweeps can run remotely and account locally —
        the aggregate is identical either way."""
        self.metrics.inc("chaos.runs")
        self.metrics.observe("chaos.violations_per_run", len(report.violations))
        if report.failed:
            self.metrics.inc("chaos.failing_runs")
            for violation in report.violations:
                self.metrics.inc(f"chaos.violation.{violation.invariant}")

    def sweep(
        self,
        seeds: Iterable[int],
        shrink: bool = True,
        processes: Optional[int] = 1,
    ) -> SweepResult:
        """Run every seed; shrink the failures.

        ``processes`` fans the (independent, per-seed-deterministic) runs
        out over worker processes via :func:`repro.parallel.parallel_map`
        — 1 (the default) is serial, None auto-sizes to the CPU count.
        Reports, metrics, and failures are identical at any worker count;
        shrinking always happens in this process, where the runner's
        shrink budget and metrics live.
        """
        seeds = list(seeds)
        reports = parallel_map(
            _SeedRun(self.scenario, self.plan, self.spec), seeds, processes
        )
        failures: List[FailingCase] = []
        for report in reports:
            self._account(report)
            if report.failed and shrink:
                failures.append(self.shrink_case(report))
        return SweepResult(
            scenario=self.scenario.name,
            reports=tuple(reports),
            failures=tuple(failures),
        )

    # ------------------------------------------------------------------
    # Shrinking

    def shrink_case(self, report: ChaosReport) -> FailingCase:
        """Greedy minimization of a failing plan.

        Keeps the *first* violation's signature (invariant, detail) as
        the reproduction target; detection time may move as the schedule
        shrinks, the claimed bug may not.
        """
        target = report.violations[0].signature
        evals = 0

        def reproduces(candidate: ChaosPlan) -> bool:
            nonlocal evals
            if evals >= self.shrink_budget:
                return False
            evals += 1
            self.metrics.inc("chaos.shrink.evals")
            rerun = self.scenario.run(report.seed, candidate)
            return rerun.failed and rerun.violations[0].signature == target

        current = report.plan
        improved = True
        while improved and evals < self.shrink_budget:
            improved = False
            # Pass 1: drop whole episodes.
            index = 0
            while index < len(current.episodes):
                candidate = current.without(index)
                if reproduces(candidate):
                    current = candidate
                    improved = True
                else:
                    index += 1
            # Pass 2: narrow the survivors.
            for index, episode in enumerate(current.episodes):
                for smaller in self._narrowings(episode):
                    if reproduces(current.replace_episode(index, smaller)):
                        current = current.replace_episode(index, smaller)
                        improved = True
                        break

        minimal_report = self.scenario.run(report.seed, current)
        replay = self.scenario.run(report.seed, current)
        replay_matches = (
            minimal_report.failed
            and minimal_report.violations == replay.violations
            and minimal_report.counters == replay.counters
            and minimal_report.violations[0].signature == target
        )
        return FailingCase(
            seed=report.seed,
            plan=report.plan,
            violation=report.violations[0],
            minimal_plan=current,
            minimal_violation=minimal_report.violations[0]
            if minimal_report.failed else None,
            replay_matches=replay_matches,
            shrink_evals=evals,
        )

    def _narrowings(self, episode: Episode) -> List[Episode]:
        """Smaller variants of one episode, most aggressive first."""
        out: List[Episode] = []
        if isinstance(episode, CrashEpisode):
            if episode.back_at is not None:
                # Stays-down is simpler than crash-and-restart.
                out.append(replace(episode, back_at=None))
        elif isinstance(
            episode, (PartitionEpisode, LinkFaultEpisode, WanCutEpisode)
        ):
            width = episode.end - episode.start
            if width > 2 * self.min_window:
                out.append(replace(episode, end=episode.start + width / 2))
        elif isinstance(episode, DiskFaultEpisode):
            if episode.repair_at is not None:
                width = episode.repair_at - episode.at
                if width > 2 * self.min_window:
                    out.append(
                        replace(episode, repair_at=episode.at + width / 2)
                    )
        return out


# ----------------------------------------------------------------------
# CLI


_SCENARIOS: dict = {
    "bank": BankClearingScenario,
    "cart": CartDynamoScenario,
    "game-day": GameDayScenario,
    "membership-divergence": MembershipDivergenceScenario,
    "mixed-txn": MixedTxnScenario,
    "rejoin": RejoinScenario,
    "retry-storm": RetryStormScenario,
    "ring-rebalance": RingRebalanceScenario,
    "split-brain": SplitBrainScenario,
}


def _build_scenario(name: str, policy: Optional[str]) -> Any:
    if name not in _SCENARIOS:
        raise SimulationError(f"unknown scenario {name!r} (have {sorted(_SCENARIOS)})")
    kwargs = {"policy": policy} if policy else {}
    return _SCENARIOS[name](**kwargs)


def _print_failure(case: FailingCase) -> None:
    print(f"  seed {case.seed}: {case.violation.invariant} — {case.violation.detail}")
    print(f"    shrunk {len(case.plan)} -> {len(case.minimal_plan)} episodes "
          f"({case.shrink_evals} evals), replay "
          f"{'bit-identical' if case.replay_matches else 'MISMATCH'}")
    for line in case.minimal_plan.describe().splitlines():
        print(f"      {line}")
    print("    plan json: " + json.dumps(case.minimal_plan.to_dict()))


def _sweep(
    scenario: Any, seeds: Sequence[int], spec: Optional[ChaosSpec] = None
) -> SweepResult:
    result = ChaosRunner(scenario, spec=spec).sweep(seeds)
    print(f"[{scenario.name}] policy={scenario.policy} "
          f"runs={result.runs} failing={len(result.failures)} "
          f"violation_rate={result.violation_rate:.2f}")
    for case in result.failures:
        _print_failure(case)
    return result


def _report_entry(scenario: Any, result: SweepResult) -> dict:
    return {
        "scenario": result.scenario,
        "policy": scenario.policy,
        "runs": result.runs,
        "violation_rate": result.violation_rate,
        "failures": [
            {
                "seed": case.seed,
                "invariant": case.violation.invariant,
                "detail": case.violation.detail,
                "minimal_plan": case.minimal_plan.to_dict(),
                "replay_matches": case.replay_matches,
                "shrink_evals": case.shrink_evals,
            }
            for case in result.failures
        ],
    }


def _write_report(path: str, entries: List[dict]) -> None:
    """The invariant-violation report CI uploads as an artifact: every
    sweep's violation rate plus each failure's minimal replayable plan."""
    with open(path, "w") as handle:
        json.dump({"sweeps": entries}, handle, indent=2, sort_keys=True)
    print(f"invariant report -> {path}")


class _SmokeCase(NamedTuple):
    scenario: Any
    planted: bool = False  # the sweep must catch this scenario's bug
    seed_limit: Optional[int] = None  # sweep only the first N seeds
    spec: Dict[str, Any] = {}  # overrides for scenario.spec(); read only


def _smoke_cases() -> List[_SmokeCase]:
    """The CI gate, in report order. Every configuration without a
    planted bug must sweep clean."""
    short_txn = dict(
        horizon=16.0, partition_start=4.0, partition_end=9.0, drain=8.0
    )
    return [
        _SmokeCase(BankClearingScenario(policy="correct")),
        _SmokeCase(CartDynamoScenario(policy="correct")),
        # Rolling cold restarts lose no acked write under either rejoin
        # discipline: the snapshot only changes what crosses the wire.
        _SmokeCase(RejoinScenario(policy="snapshot")),
        _SmokeCase(RejoinScenario(policy="no-snapshot")),
        # Two joins and a decommission mid-traffic under message chaos.
        _SmokeCase(RingRebalanceScenario()),
        # Gossiped views diverge under partitions and flapping links, yet
        # reconverge after heal and lose no acked write meanwhile.
        _SmokeCase(MembershipDivergenceScenario()),
        # A retry storm is a goodput catastrophe, not a correctness bug:
        # the invariants hold under both client disciplines (E13
        # measures the goodput gap).
        _SmokeCase(RetryStormScenario(policy="resilient")),
        _SmokeCase(RetryStormScenario(policy="naive")),
        # A mid-stream partition pairs every wrong guess with one executed
        # apology, whether it deposes the leader or strands a follower.
        _SmokeCase(MixedTxnScenario(policy="leader", **short_txn)),
        _SmokeCase(MixedTxnScenario(policy="minority", **short_txn)),
        # Fenced takeover survives split brain; the unfenced ablation
        # must be caught losing updates.
        _SmokeCase(SplitBrainScenario(policy="fenced")),
        _SmokeCase(SplitBrainScenario(policy="unfenced"), planted=True),
        # The geo game day: each run is a full multi-DC day, so two seeds.
        _SmokeCase(GameDayScenario(policy="fenced", detector="phi"), seed_limit=2),
        # Non-idempotent recovery needs a crash to fire.
        _SmokeCase(
            BankClearingScenario(policy="amnesiac-restart"),
            planted=True, spec={"min_crashes": 1},
        ),
    ]


def smoke(seeds: Sequence[int], report_path: Optional[str] = None) -> int:
    """The CI gate: correct policies stay clean; each planted bug is
    found, shrunk, and its minimal plan replays exactly."""
    failed = False
    entries: List[dict] = []
    for scenario, planted, seed_limit, overrides in _smoke_cases():
        result = _sweep(scenario, seeds[:seed_limit], scenario.spec(**overrides))
        entries.append(_report_entry(scenario, result))
        label = f"{scenario.name} policy={scenario.policy}"
        if planted and not result.failures:
            print(f"FAIL: {label} was not caught")
            failed = True
        if result.failures and not planted:
            print(f"FAIL: {label} violated an invariant")
            failed = True
        if any(not case.replay_matches for case in result.failures):
            print(f"FAIL: a minimal {label} plan did not replay bit-for-bit")
            failed = True

    if report_path is not None:
        _write_report(report_path, entries)
    print("chaos smoke: " + ("FAIL" if failed else "ok"))
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.runner",
        description="Seeded chaos sweeps with invariant checking and shrinking.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="run the CI smoke sweep (correct + broken policies)")
    parser.add_argument("--scenario", default="bank", choices=sorted(_SCENARIOS))
    parser.add_argument("--policy", default=None,
                        help="scenario policy (e.g. correct, amnesiac-restart, lww)")
    parser.add_argument("--seeds", type=int, default=5,
                        help="number of seeds to sweep (0..N-1)")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="write a JSON invariant-violation report "
                             "(minimal replayable plans included)")
    args = parser.parse_args(argv)

    seeds = list(range(args.seeds))
    if args.smoke:
        return smoke(seeds, report_path=args.report)

    scenario = _build_scenario(args.scenario, args.policy)
    result = _sweep(scenario, seeds)
    if args.report is not None:
        _write_report(args.report, [_report_entry(scenario, result)])
    return 1 if result.failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
