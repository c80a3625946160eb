"""Interstitial cohorts (DESIGN §17): identical jobs one offer starts
share one release-timeline entry and one FINISH event, yet every
per-job observable — finish times, kills, counters — is what per-job
bookkeeping gives."""

from __future__ import annotations

import itertools

from repro.jobs import Job, JobKind, JobState
from repro.machines import Machine
from repro.sim.engine import Engine, _cohort_key

from tests.conftest import fcfs, make_job
from tests.sim.test_faults_engine import FixedFaults, RecordingSource


class BatchSource(RecordingSource):
    """Offers its whole batch in the first pass where it fits."""

    preemptible = True

    def offer(self, t, cluster, scheduler):
        if sum(job.cpus for job in self._jobs) > cluster.free_cpus:
            return []
        jobs, self._jobs = self._jobs, []
        return jobs


def _interstitial(cpus: int = 1, runtime: float = 100.0, **kw) -> Job:
    return Job(cpus=cpus, runtime=runtime, estimate=runtime,
               kind=JobKind.INTERSTITIAL, **kw)


class PickVictim:
    """Victim stream stub: every busy CPU failed is hit, and the
    width-weighted draw picks id-sorted candidate ``index``."""

    def __init__(self, index: int) -> None:
        self.index = index

    def hypergeometric(self, busy, idle, sample):
        return sample

    def choice(self, n, p):
        return self.index


def _machine(cpus: int) -> Machine:
    return Machine(name="Box", cpus=cpus, clock_ghz=1.0)


def test_offer_of_identical_jobs_books_one_entry_and_one_event():
    jobs = [_interstitial() for _ in range(3)]
    engine = Engine(_machine(3), fcfs(), interstitial=BatchSource(jobs))
    engine._scheduling_pass(0.0)
    assert all(job.state is JobState.RUNNING for job in jobs)
    assert len(engine.events) == 1
    assert len(engine.cluster._release_keys) == 1
    # Schedulers still see one claim per member.
    assert engine.cluster.release_claims() == [(100.0, 1.0)] * 3
    assert engine.cluster.earliest_fit_estimate(3, 0.0) == 100.0
    assert engine.cluster.next_release_after(0.0) == 100.0
    assert engine.counters.starts == 3


def test_fault_killing_the_middle_member_leaves_the_rest_on_time():
    native = make_job(cpus=1, runtime=1000.0, submit=0.0)
    jobs = [_interstitial() for _ in range(3)]
    source = BatchSource(jobs)
    engine = Engine(
        _machine(4), fcfs(), trace=[native], interstitial=source,
        faults=FixedFaults([(10.0, 20.0, 1)]),
    )
    # Candidates sort by id: the native, then the three members.
    engine._victim_rng = PickVictim(2)
    result = engine.run()
    first, middle, last = jobs
    assert source.preempted == [middle]
    assert middle.state is JobState.KILLED and middle.finish_time == 10.0
    assert result.killed == [middle]
    assert result.finished == [first, last, native]
    assert [job.finish_time for job in (first, last)] == [100.0, 100.0]
    # Per-job bookkeeping pops SUBMIT, FAILURE, REPAIR, the native's
    # FINISH and three member FINISH events (the killed member's is
    # stale); the cohort's single event counts as three.
    assert result.counters.events == 7
    assert result.counters.finishes == 3
    assert result.counters.fault_kills == 1


def test_preemption_kills_the_cohorts_youngest_ids_first():
    early = make_job(cpus=1, runtime=5.0, submit=0.0)
    blocked = make_job(cpus=2, runtime=50.0, submit=10.0)
    jobs = [_interstitial(runtime=500.0) for _ in range(3)]
    engine = Engine(_machine(4), fcfs(), trace=[early, blocked],
                    interstitial=BatchSource(jobs))
    result = engine.run()
    assert [job.state for job in jobs] == [
        JobState.FINISHED, JobState.FINISHED, JobState.KILLED
    ]
    assert [job.finish_time for job in jobs[:2]] == [500.0, 500.0]
    assert blocked.start_time == 10.0
    assert result.counters.preempt_kills == 1
    # Two SUBMITs, two native FINISHes and three member FINISHes.
    assert result.counters.events == 7


def test_cohorts_are_runs_of_identical_rigid_jobs():
    a, b, c = (_interstitial() for _ in range(3))
    longer = _interstitial(runtime=200.0)
    other_user = _interstitial(user="someone-else")
    malleable = [
        _interstitial(cpus=2, min_cpus=1, max_cpus=4) for _ in range(2)
    ]
    offer = [a, b, longer, c, other_user, *malleable]
    runs = itertools.groupby(offer, _cohort_key)
    assert [len(list(run)) for _key, run in runs] == [2, 1, 1, 1, 1, 1]
