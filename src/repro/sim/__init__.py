"""Discrete-event simulation core.

The engine replays a native job trace through a pluggable scheduler
(:mod:`repro.sched`) on a machine model (:mod:`repro.machines`), offering
leftover capacity to an optional interstitial source (:mod:`repro.core`)
after every native scheduling pass — the paper's "meta-backfilled from a
low-priority queue after no more of the native jobs can be backfilled"
semantics.
"""

from repro.sim.engine import Engine, SimConfig
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.outages import Outage, OutageSchedule
from repro.sim.profile import CapacityProfile, StepFunction
from repro.sim.results import SimResult, UsageSample
from repro.sim.state import ClusterState, Cohort, RunningJob

__all__ = [
    "Engine",
    "SimConfig",
    "Event",
    "EventKind",
    "EventQueue",
    "Outage",
    "OutageSchedule",
    "CapacityProfile",
    "StepFunction",
    "SimResult",
    "UsageSample",
    "ClusterState",
    "Cohort",
    "RunningJob",
]
