"""Regenerate the golden fixtures. Only legitimate when the simulator's
trace semantics change *on purpose*; optimizations must never need this.

    PYTHONPATH=src python -m tests.golden.capture
"""

from __future__ import annotations

from tests.golden.scenarios import (
    CHAOS_BEHAVIOUR,
    CHAOS_VARIANTS,
    FIXTURES,
    GOLDEN_RUNS,
    fixture_paths,
    render_chaos_behaviour,
)


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name, run in GOLDEN_RUNS.items():
        trace, counters = run()
        trace_path, counters_path = fixture_paths(name)
        trace_path.write_text(trace)
        counters_path.write_text(counters)
        print(f"captured {name}: {len(trace.splitlines())} trace lines")
    CHAOS_BEHAVIOUR.write_text(render_chaos_behaviour())
    print(f"captured {len(CHAOS_VARIANTS)} chaos variants -> {CHAOS_BEHAVIOUR.name}")


if __name__ == "__main__":
    main()
