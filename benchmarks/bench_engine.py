"""Engine bench — events/sec of the incremental scheduler hot path.

Replays synthetic traces for the paper's three machines through three
scenarios — ``native`` (trace only), ``faulted`` (trace + node
failures) and ``continual`` (trace + a continual interstitial project
under a periodic scheduler wake cycle, the production operating mode)
— and measures engine throughput in events/sec for:

* the incremental :class:`~repro.sched.QueueScheduler` (DESIGN §13), and
* the retained naive :class:`~repro.sched.ReferenceQueueScheduler`
  (the pre-overhaul formulation, kept as the behavioral oracle).

Event counts are deterministic per (seed, scale, scenario); only the
wall-clock varies, so each configuration reports the best of
``REPEATS`` runs.  The committed ``BENCH_engine.json`` additionally
embeds the pre-overhaul engine's measured throughput (``pre_pr``) as
the fixed "before" point of the perf trajectory.

Run directly for the full protocol (rewrites ``BENCH_engine.json``)::

    PYTHONPATH=src python benchmarks/bench_engine.py

CI smoke: ``--quick`` measures the small-scale protocol only and
``--check BENCH_engine.json`` compares the measured incremental-vs-
reference speedups against the committed quick-scale ones, failing on
a >20% retention regression (ratios of two in-process runs are stable
where absolute events/sec on shared CI runners are not).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.runners import run_continual, run_native
from repro.faults import FaultModel
from repro.jobs import InterstitialProject
from repro.machines import preset
from repro.sched import (
    BackfillMode,
    HierarchicalFairSharePolicy,
    QueueScheduler,
    ReferenceQueueScheduler,
    TimeOfDayPolicy,
    UserFairSharePolicy,
    UserGroupFairSharePolicy,
)
from repro.workload.synthetic import synthetic_trace_for

SEED = 20260808
FULL_SCALE = 0.2
QUICK_SCALE = 0.05
REPEATS = 3
#: Scheduler dispatch-cycle period for the continual scenario, in
#: seconds.  Production batch systems re-run the scheduling pass "at
#: given time intervals" (the paper's Figure 1 loop; LSF's default
#: dispatch cycle is one minute), not only on job arrivals/completions,
#: so the continual scenario wakes the scheduler every minute.  These
#: wake passes rarely change any scheduling input, which is precisely
#: what the pass-skip layer (DESIGN §13) is built to exploit.
WAKE_INTERVAL = 60.0
MACHINES = ("ross", "blue_mountain", "blue_pacific")
SCENARIOS = ("native", "faulted", "continual")
#: CI guard: the measured incremental/reference speedup must retain at
#: least this fraction of the committed same-scale speedup.
MIN_SPEEDUP_RETENTION = 0.8
#: Only scenarios whose committed speedup is at least this are
#: ratio-gated.  Where the win is within noise of 1x (the reference
#: scheduler shares the engine-layer gains, so some native/faulted
#: replays are nearly tied) a retention gate measures scheduler noise,
#: not regressions; those scenarios are checked for event-count
#: determinism only.
SPEEDUP_GATE_MIN = 1.5

#: Pre-overhaul engine throughput, measured once with this exact
#: protocol (seed/scale/repeats above) immediately before the
#: incremental-scheduler change landed.
PRE_PR_BASELINE = Path("/tmp/bench_baseline_pre_pr.json")


def _scheduler(machine_name: str, machine, cls: type):
    """Mirror :mod:`repro.sched.presets` for either scheduler class."""
    if machine_name == "ross":
        return cls(
            policy=UserFairSharePolicy(),
            backfill=BackfillMode.CONSERVATIVE,
        )
    if machine_name == "blue_mountain":
        return cls(
            policy=HierarchicalFairSharePolicy(),
            backfill=BackfillMode.EASY,
        )
    return cls(
        policy=UserGroupFairSharePolicy(),
        backfill=BackfillMode.EASY,
        timeofday=TimeOfDayPolicy(max_day_cpus=max(1, machine.cpus // 4)),
    )


def _trace(machine_name: str, scenario: str, scale: float):
    salt = SCENARIOS.index(scenario)
    return synthetic_trace_for(
        machine_name, rng=np.random.default_rng((SEED, salt)), scale=scale
    )


def _faults(scenario: str) -> Optional[FaultModel]:
    if scenario != "faulted":
        return None
    return FaultModel(mtbf=2.0e5, mttr=7200.0, cpus_per_node=16, seed=SEED)


def _measure(
    machine_name: str,
    scenario: str,
    scale: float,
    scheduler_cls: type,
) -> Tuple[int, float]:
    """(deterministic event count, best-of-REPEATS seconds)."""
    machine = preset(machine_name)
    trace = _trace(machine_name, scenario, scale)
    best = math.inf
    events = 0
    for _ in range(REPEATS):
        scheduler = _scheduler(machine_name, machine, scheduler_cls)
        t0 = perf_counter()
        if scenario == "continual":
            project = InterstitialProject(
                n_jobs=1,
                cpus_per_job=max(1, machine.cpus // 8),
                runtime_1ghz=1800.0,
                user="bench",
                group="bench",
            )
            result, _ctl = run_continual(
                machine, trace, project, scheduler=scheduler,
                wake_interval=WAKE_INTERVAL,
            )
        else:
            result = run_native(
                machine, trace, scheduler=scheduler,
                faults=_faults(scenario),
            )
        best = min(best, perf_counter() - t0)
        events = result.counters.events
    return events, best


def _measure_section(scale: float) -> Dict[str, object]:
    scenarios: Dict[str, Dict[str, float]] = {}
    for machine_name in MACHINES:
        for scenario in SCENARIOS:
            key = f"{scenario}-{machine_name}"
            inc_events, inc_s = _measure(
                machine_name, scenario, scale, QueueScheduler
            )
            ref_events, ref_s = _measure(
                machine_name, scenario, scale, ReferenceQueueScheduler
            )
            if inc_events != ref_events:
                raise AssertionError(
                    f"{key}: incremental processed {inc_events} events but "
                    f"reference processed {ref_events}; the schedulers "
                    "diverged"
                )
            scenarios[key] = {
                "events": inc_events,
                "incremental_events_per_sec": round(inc_events / inc_s, 1),
                "reference_events_per_sec": round(ref_events / ref_s, 1),
                "speedup": round(ref_s / inc_s, 2),
            }
            print(
                f"{key:<28} {inc_events:>7d} ev  "
                f"inc {inc_events / inc_s:>9.0f} ev/s  "
                f"ref {ref_events / ref_s:>9.0f} ev/s  "
                f"x{ref_s / inc_s:.2f}"
            )
    return {"scale": scale, "scenarios": scenarios}


def run_bench(out_path: Path, quick_only: bool = False) -> Dict[str, object]:
    data: Dict[str, object] = {
        "protocol": {
            "seed": SEED,
            "full_scale": FULL_SCALE,
            "quick_scale": QUICK_SCALE,
            "repeats": REPEATS,
            "continual_wake_interval_s": WAKE_INTERVAL,
            "timing": "best-of-repeats, events/sec",
        },
    }
    if not quick_only:
        print(f"# full protocol (scale {FULL_SCALE})")
        data["full"] = _measure_section(FULL_SCALE)
    print(f"# quick protocol (scale {QUICK_SCALE})")
    data["quick"] = _measure_section(QUICK_SCALE)
    if PRE_PR_BASELINE.exists():
        pre = json.loads(PRE_PR_BASELINE.read_text())
        data["pre_pr"] = pre
        if "full" in data:
            full = data["full"]["scenarios"]  # type: ignore[index]
            data["speedup_vs_pre_pr"] = {
                key: round(
                    full[key]["incremental_events_per_sec"]
                    / pre[key]["events_per_sec"],
                    2,
                )
                for key in full
                if key in pre
            }
    out_path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    return data


def check_against(committed_path: Path) -> int:
    """CI smoke: quick-scale speedups vs the committed quick section."""
    committed = json.loads(committed_path.read_text())
    expected = committed["quick"]["scenarios"]
    measured = _measure_section(QUICK_SCALE)["scenarios"]
    failures = []
    gated = 0
    for key, entry in expected.items():
        got = measured[key]
        if got["events"] != entry["events"]:
            failures.append(
                f"{key}: event count {got['events']} != committed "
                f"{entry['events']} (protocol or determinism drift)"
            )
            continue
        if entry["speedup"] < SPEEDUP_GATE_MIN:
            continue
        gated += 1
        floor = MIN_SPEEDUP_RETENTION * entry["speedup"]
        if got["speedup"] < floor:
            failures.append(
                f"{key}: speedup x{got['speedup']} fell below "
                f"x{floor:.2f} ({MIN_SPEEDUP_RETENTION:.0%} of committed "
                f"x{entry['speedup']})"
            )
    if failures:
        print("bench-smoke FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(
        f"bench-smoke OK: {len(expected)} scenarios deterministic, "
        f"{gated} speedup-gated within bounds"
    )
    return 0


# ----------------------------------------------------------------------
# pytest entry: determinism only (timing asserts would flake on CI)
# ----------------------------------------------------------------------
def test_schedulers_process_identical_event_streams() -> None:
    inc_events, _ = _measure("ross", "continual", QUICK_SCALE, QueueScheduler)
    ref_events, _ = _measure(
        "ross", "continual", QUICK_SCALE, ReferenceQueueScheduler
    )
    assert inc_events == ref_events


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="measure only the quick-scale protocol",
    )
    parser.add_argument(
        "--check", metavar="PATH", type=Path, default=None,
        help="compare quick-scale speedups against a committed "
        "BENCH_engine.json instead of writing results",
    )
    parser.add_argument(
        "--out", metavar="PATH", type=Path, default=Path("BENCH_engine.json"),
        help="output path (default: ./BENCH_engine.json)",
    )
    args = parser.parse_args(argv)
    if args.check is not None:
        return check_against(args.check)
    run_bench(args.out, quick_only=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
