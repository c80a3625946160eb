"""Canonical engine configurations pinned by the golden-trace suite.

Each case is a fully seeded simulation small enough to check its JSONL
trace into the repository: per machine preset one *native* baseline,
one *faulted* native run, and one *continual* interstitial run, plus a
single *malleable* elastic run on Blue Pacific (shrink/grow records).
Four rigid continual cases pin the paths that split an offer of
identical interstitial jobs: fault kills under a retry policy,
youngest-first preemption, checkpoint restart fragments offered beside
fresh jobs, and a §4.3.2.2 utilization cap.
The traces pin scheduling order, tie-breaking, fault victim selection
and the record schema all at once — any engine change that reorders
events shows up as a golden diff instead of a silently shifted table.

Regenerate (and review the diff!) with ``pytest --regen-golden``.
"""

from __future__ import annotations

import io
from typing import Callable, Dict

import numpy as np

from repro.core.controller import InterstitialController
from repro.core.runners import run_continual, run_native, run_with_controller
from repro.elastic import ElasticitySpec, elastic_controller
from repro.faults import FaultModel, RetryPolicy
from repro.jobs import InterstitialProject
from repro.machines import preset
from repro.machines.presets import preset_names
from repro.obs import JsonlRecorder, TraceRecorder
from repro.workload.synthetic import synthetic_trace_for

#: Root seed for the golden traces (independent of experiment scales).
GOLDEN_SEED = 20030915

#: Fraction of each machine's paper log replayed (keeps files small).
GOLDEN_TRACE_SCALE = 0.005


def _trace(machine_name: str, salt: int):
    return synthetic_trace_for(
        machine_name,
        rng=np.random.default_rng((GOLDEN_SEED, salt)),
        scale=GOLDEN_TRACE_SCALE,
    )


def _native(machine_name: str, recorder: TraceRecorder) -> None:
    machine = preset(machine_name)
    trace = _trace(machine_name, 0)
    run_native(machine, trace.jobs, horizon=trace.duration,
               recorder=recorder)


def _faulted(machine_name: str, recorder: TraceRecorder) -> None:
    machine = preset(machine_name)
    trace = _trace(machine_name, 1)
    faults = FaultModel(
        mtbf=2.0e5, mttr=7200.0, cpus_per_node=16, seed=GOLDEN_SEED
    )
    run_native(machine, trace.jobs, faults=faults, horizon=trace.duration,
               recorder=recorder)


def _continual(machine_name: str, recorder: TraceRecorder) -> None:
    machine = preset(machine_name)
    trace = _trace(machine_name, 2)
    project = InterstitialProject(
        n_jobs=1,  # placeholder; continual feeding ignores it
        cpus_per_job=max(1, machine.cpus // 4),
        runtime_1ghz=1800.0,
        name=f"golden-{machine_name}",
        user="golden",
        group="golden",
    )
    run_continual(machine, trace.jobs, project, horizon=trace.duration,
                  recorder=recorder)


def _malleable(machine_name: str, recorder: TraceRecorder) -> None:
    machine = preset(machine_name)
    trace = _trace(machine_name, 3)
    project = InterstitialProject(
        n_jobs=60,
        cpus_per_job=32,
        runtime_1ghz=1800.0,
        min_width=4,
        max_width=32,
        name=f"golden-elastic-{machine_name}",
        user="golden",
        group="golden",
    )
    controller = elastic_controller(
        machine, project, ElasticitySpec.malleable()
    )
    run_with_controller(machine, trace.jobs, controller,
                        horizon=trace.duration, recorder=recorder)


def _narrow_project(machine_name: str, cpus_per_job: int):
    return InterstitialProject(
        n_jobs=1,  # placeholder; continual feeding ignores it
        cpus_per_job=cpus_per_job,
        runtime_1ghz=1800.0,
        name=f"golden-narrow-{machine_name}",
        user="golden",
        group="golden",
    )


def _continual_faulted(machine_name: str, recorder: TraceRecorder) -> None:
    """Continual rigid feeding under node crashes: victims are drawn
    from running interstitial jobs that started together."""
    machine = preset(machine_name)
    trace = _trace(machine_name, 4)
    faults = FaultModel(
        mtbf=2.0e5, mttr=7200.0, cpus_per_node=16, seed=GOLDEN_SEED + 1
    )
    run_continual(machine, trace.jobs, _narrow_project(machine_name, 64),
                  faults=faults, retry=RetryPolicy(max_attempts=2),
                  horizon=trace.duration, recorder=recorder)


def _preemptible(
    machine_name: str, recorder: TraceRecorder, checkpointing: bool
) -> None:
    """Continual rigid feeding whose jobs a blocked native head kills,
    youngest first; with ``checkpointing`` the killed remainders restart
    in the same offers as fresh jobs."""
    machine = preset(machine_name)
    trace = _trace(machine_name, 5)
    controller = InterstitialController(
        machine,
        _narrow_project(machine_name, 16),
        continual=True,
        preemptible=True,
        checkpointing=checkpointing,
    )
    run_with_controller(machine, trace.jobs, controller,
                        horizon=trace.duration, recorder=recorder)


def _capped(machine_name: str, recorder: TraceRecorder) -> None:
    """Limited continual feeding (§4.3.2.2): the utilization cap trims
    each offer."""
    machine = preset(machine_name)
    trace = _trace(machine_name, 6)
    run_continual(machine, trace.jobs, _narrow_project(machine_name, 32),
                  max_utilization=0.9, horizon=trace.duration,
                  recorder=recorder)


#: Case name -> driver writing the case's trace into a recorder.
CASES: Dict[str, Callable[[str, TraceRecorder], None]] = {}
for _machine in preset_names():
    CASES[f"native-{_machine}"] = (
        lambda rec, m=_machine: _native(m, rec)
    )
    CASES[f"faulted-{_machine}"] = (
        lambda rec, m=_machine: _faulted(m, rec)
    )
    CASES[f"continual-{_machine}"] = (
        lambda rec, m=_machine: _continual(m, rec)
    )
CASES["malleable-blue_pacific"] = (
    lambda rec: _malleable("blue_pacific", rec)
)
CASES["continual-faulted-blue_mountain"] = (
    lambda rec: _continual_faulted("blue_mountain", rec)
)
CASES["preemptible-ross"] = (
    lambda rec: _preemptible("ross", rec, checkpointing=False)
)
CASES["checkpointing-ross"] = (
    lambda rec: _preemptible("ross", rec, checkpointing=True)
)
CASES["capped-blue_pacific"] = (
    lambda rec: _capped("blue_pacific", rec)
)


def render_case(name: str) -> str:
    """Run one golden case and return its JSONL trace as text."""
    buffer = io.StringIO()
    recorder = JsonlRecorder(buffer, buffer_records=4096)
    CASES[name](recorder)
    recorder.close()
    return buffer.getvalue()
