"""Differential suite: incremental scheduler vs the naive reference.

:class:`~repro.sched.queue_scheduler.QueueScheduler` maintains its
priority order, release claims and pass-skip machinery incrementally
(DESIGN §13); :class:`~repro.sched.reference.ReferenceQueueScheduler`
retains the pre-incremental formulation verbatim.  These tests replay a
30-seed sweep of configurations — every priority policy, every backfill
mode, with and without time-of-day constraints, runtime prediction,
faults and a continual interstitial source — through both and require
*byte-identical* recorded traces, identical physics fingerprints and
identical start decisions.

The only tolerated divergence is the maintenance counters
(``pass_skips``, ``priority_rekeys``, ``release_rebuilds``), which
describe the incremental scheduler's own bookkeeping and are zero on
the reference by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest

from repro.core.runners import (
    run_continual,
    run_native,
    run_with_controller,
)
from repro.elastic import ElasticInterstitialController, ElasticitySpec
from repro.faults import FaultModel
from repro.jobs import InterstitialProject
from repro.machines import Machine
from repro.obs import MemoryRecorder
from repro.sched import (
    BackfillMode,
    FcfsPolicy,
    HierarchicalFairSharePolicy,
    PerUserRuntimePredictor,
    QueueScheduler,
    ReferenceQueueScheduler,
    TimeOfDayPolicy,
    UserFairSharePolicy,
    UserGroupFairSharePolicy,
)
from repro.sim.engine import Engine, SimConfig
from repro.sim.results import SimResult
from tests.conftest import make_job, random_native_trace
from tests.obs.test_differential import _fingerprint

SEEDS = range(30)

#: Incremental-bookkeeping counters: differ from the reference by design.
MAINTENANCE_COUNTERS = frozenset(
    {"pass_skips", "priority_rekeys", "release_rebuilds"}
)

POLICIES = (
    FcfsPolicy,
    UserFairSharePolicy,
    HierarchicalFairSharePolicy,
    UserGroupFairSharePolicy,
)
BACKFILLS = (BackfillMode.NONE, BackfillMode.EASY, BackfillMode.CONSERVATIVE)


@dataclass(frozen=True)
class Spec:
    """Deterministic configuration derived from a sweep seed.

    The moduli are coprime-ish so 30 seeds cover every value of every
    dimension several times (``test_sweep_covers_the_config_space``).
    """

    seed: int

    @property
    def policy_cls(self) -> type:
        return POLICIES[self.seed % len(POLICIES)]

    @property
    def backfill(self) -> BackfillMode:
        return BACKFILLS[(self.seed // 4) % len(BACKFILLS)]

    @property
    def with_timeofday(self) -> bool:
        return self.seed % 2 == 1

    @property
    def with_predictor(self) -> bool:
        return (self.seed // 2) % 2 == 1

    @property
    def with_faults(self) -> bool:
        return (self.seed // 3) % 2 == 1

    @property
    def continual(self) -> bool:
        return (self.seed // 5) % 2 == 1

    @property
    def with_wake(self) -> bool:
        """Periodic scheduler wakes — the pass-skip machinery's main
        diet, so the sweep must cover it."""
        return (self.seed // 7) % 2 == 1

    @property
    def with_elastic(self) -> bool:
        """Malleable interstitial feeding: resizes bump the cluster
        epoch, so the pass-skip caches must survive them too."""
        return self.continual and (self.seed // 11) % 2 == 1


def _scheduler(cls: type, spec: Spec, machine: Machine):
    """Fresh scheduler of the requested class: policies, predictors and
    time-of-day state are stateful, so each run builds its own."""
    timeofday = (
        TimeOfDayPolicy(max_day_cpus=max(1, machine.cpus // 4))
        if spec.with_timeofday
        else None
    )
    predictor = PerUserRuntimePredictor() if spec.with_predictor else None
    return cls(
        policy=spec.policy_cls(),
        backfill=spec.backfill,
        timeofday=timeofday,
        predictor=predictor,
    )


def _run(spec: Spec, scheduler_cls: type) -> Tuple[SimResult, MemoryRecorder]:
    machine = Machine(name="DiffBox", cpus=96, clock_ghz=1.0)
    trace = random_native_trace(
        np.random.default_rng(spec.seed + 1000), machine,
        n_jobs=40, horizon=60_000.0,
    )
    # Pin ids so the two runs are comparable record-for-record.
    for i, job in enumerate(trace):
        job.job_id = i + 1
    faults = (
        FaultModel(mtbf=9.0e4, mttr=1800.0, cpus_per_node=8, seed=spec.seed)
        if spec.with_faults
        else None
    )
    recorder = MemoryRecorder()
    scheduler = _scheduler(scheduler_cls, spec, machine)
    wake = 300.0 if spec.with_wake else None
    if spec.with_elastic:
        project = InterstitialProject(
            n_jobs=1, cpus_per_job=8, runtime_1ghz=900.0,
            min_width=2, max_width=8,
            user="harvest", group="harvest",
        )
        controller = ElasticInterstitialController(
            machine, project, spec=ElasticitySpec.malleable(),
            continual=True,
        )
        result = run_with_controller(
            machine, trace, controller,
            scheduler=scheduler, faults=faults, recorder=recorder,
            # Continual feeding stops at the last native submission,
            # mirroring run_continual's default horizon.
            horizon=max(job.submit_time for job in trace),
            wake_interval=wake,
        )
    elif spec.continual:
        project = InterstitialProject(
            n_jobs=1, cpus_per_job=8, runtime_1ghz=900.0,
            user="harvest", group="harvest",
        )
        result, _ = run_continual(
            machine, trace, project,
            scheduler=scheduler, faults=faults, recorder=recorder,
            wake_interval=wake,
        )
    else:
        result = run_native(
            machine, trace,
            scheduler=scheduler, faults=faults, recorder=recorder,
            wake_interval=wake,
        )
    return result, recorder


def _comparable(fingerprint: tuple) -> tuple:
    """Physics fingerprint minus the maintenance counters."""
    *rest, counters = fingerprint
    return (
        *rest,
        {k: v for k, v in counters.items() if k not in MAINTENANCE_COUNTERS},
    )


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_matches_reference(seed: int) -> None:
    spec = Spec(seed)
    inc_result, inc_rec = _run(spec, QueueScheduler)
    ref_result, ref_rec = _run(spec, ReferenceQueueScheduler)
    assert inc_rec.to_jsonl() == ref_rec.to_jsonl()
    assert _comparable(_fingerprint(inc_result)) == _comparable(
        _fingerprint(ref_result)
    )
    # Start decisions in particular: identical out-of-order starts.
    assert (
        inc_result.counters.backfill_starts
        == ref_result.counters.backfill_starts
    )


def test_sweep_covers_the_config_space() -> None:
    """The 30 seeds exercise every value of every config dimension."""
    specs = [Spec(seed) for seed in SEEDS]
    assert {spec.policy_cls for spec in specs} == set(POLICIES)
    assert {spec.backfill for spec in specs} == set(BACKFILLS)
    assert {spec.with_timeofday for spec in specs} == {False, True}
    assert {spec.with_predictor for spec in specs} == {False, True}
    assert {spec.with_faults for spec in specs} == {False, True}
    assert {spec.continual for spec in specs} == {False, True}
    assert {spec.with_wake for spec in specs} == {False, True}
    assert {spec.with_elastic for spec in specs} == {False, True}


# ----------------------------------------------------------------------
# The machinery under test is actually exercised
# ----------------------------------------------------------------------
def test_pass_skips_and_rekeys_are_exercised() -> None:
    """A saturated machine with periodic wakes must skip the no-start
    wake passes outright, and FCFS (which never changes priorities)
    must re-key the order exactly once."""
    machine = Machine(name="SkipBox", cpus=16, clock_ghz=1.0)
    trace = [make_job(cpus=16, runtime=10_000.0, submit=0.0)]
    trace += [
        make_job(cpus=16, runtime=100.0, submit=1.0) for _ in range(5)
    ]
    for i, job in enumerate(trace):
        job.job_id = i + 1
    engine = Engine(
        machine=machine,
        scheduler=QueueScheduler(policy=FcfsPolicy()),
        trace=trace,
        config=SimConfig(wake_interval=500.0),
    )
    result = engine.run()
    assert result.counters.pass_skips > 0
    assert result.counters.priority_rekeys == 1
    assert (
        result.counters.scheduling_passes
        > result.counters.pass_skips
        + result.counters.priority_rekeys
    )
