"""Layer spans recorded from outside the program.

The benchmark never edits the program to trace it.  It hands the
program delegating wrappers instead, and each wrapper opens a span
around the call it forwards:

* :class:`TracedScheduler` wraps a :class:`repro.sched.base.Scheduler`
  (``sched.*`` spans);
* :class:`TracedSource` wraps an interstitial controller
  (``core.offer``, ``elastic.grow_requests``, ``core.notify``);
* :class:`TracedStore` wraps a :class:`repro.store.RunStore`
  (``store.read``, ``store.compute``, ``store.write``);
* :class:`TracingTimers` is the program's own
  :class:`repro.obs.PhaseTimers`, passed through the runners'
  ``timers=`` argument, whose phases also open spans (``sim.*``,
  ``faults.apply`` and the scheduler's maintenance phases).

Spans nest on one stack.  A span's *self* time is its duration minus
the durations of the spans opened inside it, so the self times of all
spans under one top-level span add up to that span's duration.
Spans are aggregated by name as they close (calls, total, self), which
keeps memory flat on runs with hundreds of thousands of calls.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

from repro.core.base import InterstitialSource
from repro.obs import PhaseTimers
from repro.sched.base import Scheduler
from repro.store import RunStore


class Tracer:
    """Stack of open spans plus per-name aggregates of closed ones."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        #: name -> [calls, total_s, self_s]
        self.spans: Dict[str, list] = {}

    def open(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def close(self) -> None:
        name, t0, child = self._stack.pop()
        duration = perf_counter() - t0
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    @property
    def depth(self) -> int:
        return len(self._stack)

    def reset_stack(self) -> None:
        """Drop spans left open by a call that raised."""
        self._stack.clear()

    def snapshot(self) -> Dict[str, tuple]:
        return {name: tuple(agg) for name, agg in self.spans.items()}

    def since(self, before: Dict[str, tuple]) -> Dict[str, tuple]:
        """Aggregates accumulated after the ``before`` snapshot."""
        delta = {}
        for name, (calls, total, own) in self.spans.items():
            c0, t0, s0 = before.get(name, (0, 0.0, 0.0))
            if calls != c0:
                delta[name] = (calls - c0, total - t0, own - s0)
        return delta


#: PhaseTimers phase -> span name.
PHASE_SPANS = {
    "event_queue_ops": "sim.event_queue",
    "event_dispatch": "sim.dispatch",
    "scheduling_pass": "sim.pass",
    "fault_apply": "faults.apply",
    "priority_maintenance": "sched.priority_maintenance",
    "release_timeline": "sched.release_timeline",
}


class TracingTimers(PhaseTimers):
    """The program's phase timers, with each phase also a span."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def start(self, phase: str) -> None:
        super().start(phase)
        self._tracer.open(PHASE_SPANS.get(phase, "sim.other"))

    def stop(self, phase: str) -> None:
        self._tracer.close()
        super().stop(phase)


class TracedScheduler(Scheduler):
    """Delegating scheduler: every call the engine and the controller
    make goes to ``inner``; the costly ones are timed."""

    def __init__(self, inner: Scheduler, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def attach_timers(self, timers) -> None:
        self._inner.attach_timers(timers)

    def submit(self, job, t):
        self._tracer.open("sched.submit")
        self._inner.submit(job, t)
        self._tracer.close()

    def on_finish(self, job, t):
        self._tracer.open("sched.on_finish")
        self._inner.on_finish(job, t)
        self._tracer.close()

    def schedule(self, t, cluster):
        self._tracer.open("sched.schedule")
        jobs = self._inner.schedule(t, cluster)
        self._tracer.close()
        return jobs

    def head_start_estimate(self, t, cluster):
        self._tracer.open("sched.head_estimate")
        wall = self._inner.head_start_estimate(t, cluster)
        self._tracer.close()
        return wall

    def head_job(self, t):
        self._tracer.open("sched.head_estimate")
        job = self._inner.head_job(t)
        self._tracer.close()
        return job

    def pending_jobs(self):
        return self._inner.pending_jobs()

    @property
    def queue_length(self):
        return self._inner.queue_length

    @property
    def backfill_starts(self):
        return self._inner.backfill_starts

    @property
    def n_pass_skips(self):
        return self._inner.n_pass_skips

    @property
    def n_priority_rekeys(self):
        return self._inner.n_priority_rekeys

    @property
    def n_release_rebuilds(self):
        return self._inner.n_release_rebuilds


class TracedSource(InterstitialSource):
    """Delegating interstitial controller (rigid or elastic)."""

    def __init__(self, inner: InterstitialSource, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.offer_calls = 0
        self.jobs_offered = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def offer(self, t, cluster, scheduler):
        self._tracer.open("core.offer")
        jobs = self._inner.offer(t, cluster, scheduler)
        self._tracer.close()
        self.offer_calls += 1
        self.jobs_offered += len(jobs)
        return jobs

    def grow_requests(self, t, cluster, scheduler):
        self._tracer.open("elastic.grow_requests")
        requests = self._inner.grow_requests(t, cluster, scheduler)
        self._tracer.close()
        return requests

    def on_shrunk(self, job, old_cpus, t):
        self._tracer.open("core.notify")
        self._inner.on_shrunk(job, old_cpus, t)
        self._tracer.close()

    def on_preempted(self, jobs, t):
        self._tracer.open("core.notify")
        self._inner.on_preempted(jobs, t)
        self._tracer.close()

    def on_fault(self, t, cpus):
        self._tracer.open("core.notify")
        self._inner.on_fault(t, cpus)
        self._tracer.close()

    @property
    def exhausted(self):
        return self._inner.exhausted

    @property
    def preemptible(self):
        return self._inner.preemptible

    @property
    def elastic(self):
        return self._inner.elastic

    @property
    def throttled_until(self):
        return self._inner.throttled_until


class TracedStore:
    """Delegating :class:`RunStore` for :class:`RunContext`.

    ``get_or_compute`` is split into three sequential spans: the lookup
    (``store.read``: memory, disk read, SHA-256 check, unpickle), the
    computation on a miss (``store.compute``) and the write-back
    (``store.write``: pickle, digest, disk write).
    """

    def __init__(self, inner: RunStore, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def get_or_compute(self, payload, compute):
        tracer = self._tracer

        def traced_compute():
            tracer.close()  # store.read
            tracer.open("store.compute")
            value = compute()
            tracer.close()
            tracer.open("store.write")
            return value

        tracer.open("store.read")
        value = self._inner.get_or_compute(payload, traced_compute)
        tracer.close()  # store.read on a hit, store.write on a miss
        return value
