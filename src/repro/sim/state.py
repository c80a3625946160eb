"""Live cluster state: which jobs are running on how many CPUs.

The scheduler sees only what a real batch system sees: the set of
running jobs with their *estimated* completion times, the free CPU
count, and the queue it manages itself.  Actual runtimes live only in
the engine's event queue.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, List, Tuple

from repro.errors import CapacityError, SchedulingError, SimulationError
from repro.jobs import Job, JobState
from repro.machines import Machine


class Cohort:
    """Jobs that started together and so finish together (DESIGN §17).

    ``jobs`` are the members still running, in start order; ``size`` is
    how many started, since the cohort's one FINISH event stands for
    that many per-job events; ``finish_time`` is start + runtime (the
    engine moves it when it resizes a malleable cohort of one).
    """

    __slots__ = ("jobs", "size", "finish_time", "key")

    def __init__(self, jobs: List[Job], start_time: float, seq: int) -> None:
        self.jobs = jobs
        self.size = len(jobs)
        self.finish_time = start_time + jobs[0].runtime
        #: Sort key of the release-timeline entry ``key + (self,)``.
        self.key = (start_time + jobs[0].estimate, float(jobs[0].cpus), seq)


class RunningJob:
    """A running job together with its scheduler-visible completion time."""

    __slots__ = ("job", "start_time", "cohort")

    def __init__(self, job: Job, start_time: float, cohort: Cohort) -> None:
        self.job = job
        self.start_time = start_time
        self.cohort = cohort

    @property
    def estimated_finish(self) -> float:
        """When the scheduler must assume the job will release its CPUs
        (start + user estimate; the batch system kills at this point)."""
        return self.start_time + self.job.estimate

    @property
    def cpus(self) -> int:
        return self.job.cpus


class ClusterState:
    """Tracks CPU allocation on one machine during a simulation."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.running: Dict[int, RunningJob] = {}
        self.busy_cpus: int = 0
        #: CPUs removed from service by drain-style outages (see
        #: repro.sim.outages); running jobs survive these.
        self.down_cpus: int = 0
        #: CPUs removed from service by node crashes (see repro.faults);
        #: the jobs running on them were killed.
        self.failed_cpus: int = 0
        #: Monotone counter bumped on every allocation change — start,
        #: finish/kill, outage and failure/repair transitions.  While it
        #: is unchanged, nothing a scheduler derives from this state
        #: (free CPUs, release claims) can have changed; schedulers key
        #: cached views and pass-skip decisions on it (DESIGN §13).
        self.epoch: int = 0
        #: Release timeline: ``(estimated finish, cpus, start seq,
        #: cohort)`` of every running cohort, kept sorted incrementally
        #: on start/finish instead of being rebuilt and re-sorted every
        #: scheduling pass.  The ``start seq`` tie-break reproduces dict
        #: insertion order (= chronological start order), which is what
        #: a stable sort of ``running.values()`` by ``(finish, cpus)``
        #: used to yield; a cohort's members share one entry.
        self._release_keys: List[Tuple[float, float, int, Cohort]] = []
        self._start_seq = itertools.count()
        #: ``release_claims()`` view, cached per epoch (multiple readers
        #: per scheduling pass; none of them mutates the list).
        self._claims_view: List[Tuple[float, float]] = []
        self._claims_epoch: int = -1

    # ------------------------------------------------------------------
    @property
    def total_cpus(self) -> int:
        """Machine size (independent of outages)."""
        return self.machine.cpus

    @property
    def available_cpus(self) -> int:
        """CPUs in service right now (total minus down minus failed).

        Clamped at zero: an outage window overlapping a burst of node
        failures can nominally take down more capacity than exists.
        """
        return max(0, self.total_cpus - self.down_cpus - self.failed_cpus)

    @property
    def free_cpus(self) -> int:
        """CPUs a new job could occupy right now.

        During an outage the in-service count can momentarily be lower
        than the busy count (running jobs are not preempted), in which
        case no CPUs are free.
        """
        return max(0, self.available_cpus - self.busy_cpus)

    @property
    def instantaneous_utilization(self) -> float:
        """busy / total, the quantity the paper's utilization caps test."""
        return self.busy_cpus / self.total_cpus

    def fits_now(self, cpus: int) -> bool:
        """Whether a ``cpus``-wide job can start at this instant."""
        return cpus <= self.free_cpus

    # ------------------------------------------------------------------
    def start(self, jobs: List[Job], t: float) -> Cohort:
        """Allocate CPUs to ``jobs``, which share width, runtime and
        estimate, at time ``t`` as one cohort: one release-timeline
        entry, one epoch bump."""
        cpus = jobs[0].cpus
        if cpus > self.machine.cpus:
            raise CapacityError(
                f"job {jobs[0].job_id} needs {cpus} CPUs but "
                f"{self.machine.name} has only {self.machine.cpus}"
            )
        width = cpus * len(jobs)
        if width > self.free_cpus:
            raise CapacityError(
                f"jobs {[job.job_id for job in jobs]} need {width} CPUs "
                f"but only {self.free_cpus} are free"
            )
        cohort = Cohort(jobs, t, next(self._start_seq))
        running = self.running
        for job in jobs:
            if job.job_id in running:
                raise SchedulingError(f"job {job.job_id} already running")
            running[job.job_id] = RunningJob(job, t, cohort)
        self.busy_cpus += width
        bisect.insort(self._release_keys, cohort.key + (cohort,))
        self.epoch += 1
        return cohort

    def finish(self, job: Job) -> RunningJob:
        """Release the CPUs of ``job`` alone; its cohort keeps the rest."""
        try:
            record = self.running.pop(job.job_id)
        except KeyError:
            raise SchedulingError(
                f"job {job.job_id} finished but was not running"
            ) from None
        self.busy_cpus -= job.cpus
        if self.busy_cpus < 0:
            raise SchedulingError("negative busy CPU count")
        members = record.cohort.jobs
        if members[-1] is job:
            members.pop()
        else:
            members.remove(job)
        if not members:
            self._drop_key(record.cohort.key)
        self.epoch += 1
        return record

    def finish_cohort(self, cohort: Cohort) -> List[Job]:
        """Release and return the members still in ``cohort``."""
        jobs = cohort.jobs
        cohort.jobs = []
        running = self.running
        for job in jobs:
            del running[job.job_id]
        self.busy_cpus -= jobs[0].cpus * len(jobs)
        if self.busy_cpus < 0:
            raise SchedulingError("negative busy CPU count")
        self._drop_key(cohort.key)
        self.epoch += 1
        return jobs

    def _drop_key(self, key: Tuple[float, float, int]) -> None:
        # ``key + (cohort,)`` is the first entry not below ``key``.
        keys = self._release_keys
        del keys[bisect.bisect_left(keys, key)]

    def resize(self, job: Job, old_cpus: int) -> RunningJob:
        """Re-account a running elastic job whose width (and estimate)
        the engine just changed from ``old_cpus`` to ``job.cpus``.

        The caller mutates ``job.cpus``/``job.estimate`` first and then
        reports the old width here; this updates the busy counter and
        re-keys the job's entry in the release timeline (its estimated
        finish moved with the re-scaled remaining runtime).  The start
        sequence number is preserved so timeline tie-breaking still
        reflects chronological start order.  Bumps :attr:`epoch`, which
        is what keeps scheduler pass-skip caches sound across resizes
        (DESIGN §13).
        """
        record = self.running.get(job.job_id)
        if record is None:
            raise SchedulingError(
                f"job {job.job_id} resized but was not running"
            )
        cohort = record.cohort  # malleable jobs are cohorts of one
        grow = job.cpus - old_cpus
        if grow > 0 and grow > self.free_cpus:
            raise CapacityError(
                f"job {job.job_id} grew by {grow} CPUs but only "
                f"{self.free_cpus} are free"
            )
        self.busy_cpus += grow
        if self.busy_cpus < 0:
            raise SchedulingError("negative busy CPU count")
        self._drop_key(cohort.key)
        cohort.key = (record.estimated_finish, float(job.cpus), cohort.key[2])
        bisect.insort(self._release_keys, cohort.key + (cohort,))
        self.epoch += 1
        return record

    def apply_outage(self, delta: int) -> None:
        """Apply a drain-outage transition (``delta`` CPUs down/up)."""
        self.down_cpus += delta
        self.epoch += 1

    def apply_failed(self, delta: int) -> None:
        """Apply a node-failure/repair transition to the failed count."""
        self.failed_cpus += delta
        self.epoch += 1

    # ------------------------------------------------------------------
    def estimated_releases(self) -> List[RunningJob]:
        """Running jobs sorted by estimated completion time.

        This is the only view of the future a fallible scheduler has;
        backfill shadow times and the interstitial ``backfillWallTime``
        are computed from it.
        """
        return sorted(
            self.running.values(), key=lambda r: (r.estimated_finish, r.job.job_id)
        )

    def release_claims(self) -> List[Tuple[float, float]]:
        """``(estimated finish, cpus)`` of every running job, ascending
        by finish time (one pair per cohort member).

        Backed by the incrementally maintained timeline and cached per
        :attr:`epoch`, so repeat reads within one scheduling pass are a
        single attribute load, not a rebuild-and-sort of ``running``.
        Callers must treat the returned list as read-only.
        """
        if self._claims_epoch != self.epoch:
            keys = self._release_keys
            if len(keys) == len(self.running):  # only cohorts of one
                view = [(finish, cpus) for finish, cpus, _seq, _c in keys]
            else:
                view = []
                for finish, cpus, _seq, cohort in keys:
                    view.extend([(finish, cpus)] * len(cohort.jobs))
            self._claims_view = view
            self._claims_epoch = self.epoch
        return self._claims_view

    def next_release_after(self, t: float) -> float:
        """Earliest estimated release time strictly after ``t``
        (``math.inf`` when none)."""
        keys = self._release_keys
        idx = bisect.bisect_right(keys, (t, float("inf"), -1))
        return keys[idx][0] if idx < len(keys) else float("inf")

    def earliest_fit_estimate(self, cpus: int, t: float) -> float:
        """Earliest time (>= t) at which ``cpus`` CPUs are expected to be
        free, based on running jobs' *estimated* completions.

        This is the paper's ``backfillWallTime`` for a ``cpus``-wide head
        job.  Returns ``t`` when the job already fits.  When even after
        all running jobs release there is not enough in-service capacity
        (deep outage), returns ``math.inf``.
        """
        if self.fits_now(cpus):
            return t
        free = self.free_cpus
        for finish, released, _seq, cohort in self._release_keys:
            free += released * len(cohort.jobs)
            if free >= cpus:
                return max(t, finish)
        return float("inf")

    # ------------------------------------------------------------------
    def check_invariants(self, t: float) -> None:
        """Validate cluster accounting; raise :class:`SimulationError`
        with a diagnostic snapshot on any violation.

        Checked invariants:

        * the busy counter equals the sum of running-job widths
          (no double allocation, no leaked release);
        * busy never exceeds the machine size;
        * down/failed counters are within ``[0, total]``;
        * free is exactly ``max(0, available - busy)``;
        * every tracked job is in the RUNNING state.

        ``busy <= available`` is deliberately *not* required: drain
        outages let running jobs survive capacity loss, so busy may
        exceed in-service capacity during a window.
        """
        problems: List[str] = []
        width_sum = sum(rec.job.cpus for rec in self.running.values())
        if self.busy_cpus != width_sum:
            problems.append(
                f"busy_cpus={self.busy_cpus} != sum of running widths "
                f"{width_sum}"
            )
        if not 0 <= self.busy_cpus <= self.total_cpus:
            problems.append(
                f"busy_cpus={self.busy_cpus} outside [0, {self.total_cpus}]"
            )
        for name in ("down_cpus", "failed_cpus"):
            value = getattr(self, name)
            if not 0 <= value <= self.total_cpus:
                problems.append(
                    f"{name}={value} outside [0, {self.total_cpus}]"
                )
        expected_free = max(0, self.available_cpus - self.busy_cpus)
        if self.free_cpus != expected_free:
            problems.append(
                f"free_cpus={self.free_cpus} != expected {expected_free}"
            )
        keys = self._release_keys
        members = sum(len(key[3].jobs) for key in keys)
        entry_of = {id(key[3]): key[:3] for key in keys}
        if members != len(self.running) or any(
            a[:3] >= b[:3] for a, b in zip(keys, keys[1:])
        ) or any(
            entry_of.get(id(rec.cohort)) != rec.cohort.key
            for rec in self.running.values()
        ):
            problems.append(
                f"release timeline out of sync: {len(self._release_keys)} "
                f"entries holding {members} members for "
                f"{len(self.running)} running jobs"
            )
        not_running = [
            rec.job.job_id
            for rec in self.running.values()
            if rec.job.state is not JobState.RUNNING
        ]
        if not_running:
            problems.append(
                f"jobs tracked as running but not in RUNNING state: "
                f"{not_running[:10]}"
            )
        if problems:
            raise SimulationError(
                f"cluster invariant violation at t={t}: "
                + "; ".join(problems)
                + f" [snapshot: total={self.total_cpus} "
                f"busy={self.busy_cpus} down={self.down_cpus} "
                f"failed={self.failed_cpus} free={self.free_cpus} "
                f"running={len(self.running)}]"
            )
