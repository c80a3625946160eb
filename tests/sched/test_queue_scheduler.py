"""Tests for the composite QueueScheduler."""

import math

import pytest

from repro.sched import (
    PerUserRuntimePredictor,
    QueueScheduler,
    TimeOfDayPolicy,
)
from repro.sched.priority import FcfsPolicy, UserFairSharePolicy
from repro.sched.queue_scheduler import BackfillMode
from repro.sim.state import ClusterState
from repro.units import HOUR

from tests.conftest import make_job


@pytest.fixture
def cluster(tiny_machine):
    return ClusterState(tiny_machine)


def scheduler(**kwargs) -> QueueScheduler:
    kwargs.setdefault("policy", FcfsPolicy())
    return QueueScheduler(**kwargs)


class TestQueueManagement:
    def test_submit_and_length(self, cluster):
        s = scheduler()
        s.submit(make_job(), 0.0)
        assert s.queue_length == 1
        assert len(s.pending_jobs()) == 1

    def test_schedule_removes_started(self, cluster):
        s = scheduler()
        job = make_job(cpus=4)
        s.submit(job, 0.0)
        starts = s.schedule(0.0, cluster)
        assert starts == [job]
        assert s.queue_length == 0

    def test_schedule_empty_queue(self, cluster):
        assert scheduler().schedule(0.0, cluster) == []

    def test_blocked_jobs_stay_queued(self, cluster):
        s = scheduler()
        cluster.start([make_job(cpus=8, runtime=100.0)], 0.0)
        job = make_job(cpus=4)
        s.submit(job, 0.0)
        assert s.schedule(0.0, cluster) == []
        assert s.queue_length == 1


class TestHeadStartEstimate:
    def test_empty_queue_infinite(self, cluster):
        assert math.isinf(scheduler().head_start_estimate(0.0, cluster))

    def test_fits_now(self, cluster):
        s = scheduler()
        s.submit(make_job(cpus=4), 0.0)
        assert s.head_start_estimate(5.0, cluster) == 5.0

    def test_waits_for_estimated_release(self, cluster):
        s = scheduler()
        running = make_job(cpus=8, runtime=10.0, estimate=300.0)
        cluster.start([running], 0.0)
        s.submit(make_job(cpus=4), 1.0)
        # Uses the estimate (300), not the actual runtime (10).
        assert s.head_start_estimate(1.0, cluster) == 300.0

    def test_head_is_top_priority_job(self, cluster):
        s = scheduler()
        late_narrow = make_job(cpus=1, submit=10.0)
        early_wide = make_job(cpus=8, submit=1.0)
        s.submit(late_narrow, 10.0)
        s.submit(early_wide, 1.0)
        cluster.start([make_job(cpus=8, runtime=50.0, estimate=200.0)], 0.0)
        # FCFS head is the early wide job.
        assert s.head_job(10.0) is early_wide
        assert s.head_start_estimate(10.0, cluster) == 200.0

    def test_timeofday_delays_head_estimate(self, cluster):
        tod = TimeOfDayPolicy(max_day_cpus=4)
        s = scheduler(timeofday=tod)
        wide = make_job(cpus=8, submit=0.0)
        s.submit(wide, 0.0)
        noon = 12 * HOUR
        estimate = s.head_start_estimate(noon, cluster)
        assert estimate == 19 * HOUR


class TestTimeOfDayIntegration:
    def test_wide_job_held_during_day(self, cluster):
        s = scheduler(timeofday=TimeOfDayPolicy(max_day_cpus=4))
        wide = make_job(cpus=8)
        s.submit(wide, 0.0)
        assert s.schedule(12 * HOUR, cluster) == []
        assert s.schedule(20 * HOUR, cluster) == [wide]

    def test_narrow_jobs_flow_past_held_wide(self, cluster):
        s = scheduler(timeofday=TimeOfDayPolicy(max_day_cpus=4))
        wide = make_job(cpus=8, submit=0.0)
        narrow = make_job(cpus=2, submit=1.0)
        s.submit(wide, 0.0)
        s.submit(narrow, 1.0)
        starts = s.schedule(12 * HOUR, cluster)
        assert starts == [narrow]


class TestPredictorIntegration:
    def test_predictor_shrinks_head_estimate(self, cluster):
        predictor = PerUserRuntimePredictor()
        done = make_job(runtime=10.0, estimate=1000.0, user="alice")
        s = scheduler(predictor=predictor)
        s.on_finish(done, 0.0)
        running = make_job(
            cpus=8, runtime=10.0, estimate=1000.0, user="alice"
        )
        cluster.start([running], 0.0)
        s.submit(make_job(cpus=4, user="bob"), 1.0)
        estimate = s.head_start_estimate(1.0, cluster)
        # Corrected: alice's jobs take ~1% of estimate -> release ~10 s.
        assert estimate < 100.0


class TestFairShareIntegration:
    def test_underserved_user_jumps_queue(self, cluster):
        policy = UserFairSharePolicy(weight=5.0)
        s = QueueScheduler(policy=policy, backfill=BackfillMode.EASY)
        hog_done = make_job(cpus=8, runtime=50_000.0, user="hog")
        s.on_finish(hog_done, 0.0)
        hog_next = make_job(cpus=8, user="hog", submit=0.0)
        fresh = make_job(cpus=8, user="fresh", submit=1.0)
        s.submit(hog_next, 0.0)
        s.submit(fresh, 1.0)
        starts = s.schedule(1.0, cluster)
        # Only one 8-wide job fits; fair share picks the fresh user
        # despite the hog's earlier submission.
        assert starts == [fresh]


class TestConservativeIntegration:
    def test_conservative_mode_selects(self, cluster):
        s = scheduler(backfill=BackfillMode.CONSERVATIVE)
        a = make_job(cpus=4)
        b = make_job(cpus=4)
        s.submit(a, 0.0)
        s.submit(b, 0.0)
        assert s.schedule(0.0, cluster) == [a, b]
