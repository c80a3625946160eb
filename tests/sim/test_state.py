"""Tests for ClusterState."""

import math

import pytest

from repro.errors import CapacityError, SchedulingError
from repro.sim.state import ClusterState

from tests.conftest import make_job


@pytest.fixture
def cluster(small_machine):
    return ClusterState(small_machine)


class TestAllocation:
    def test_start_reduces_free(self, cluster):
        cluster.start([make_job(cpus=10)], 0.0)
        assert cluster.busy_cpus == 10
        assert cluster.free_cpus == 54

    def test_finish_releases(self, cluster):
        job = make_job(cpus=10)
        cluster.start([job], 0.0)
        cluster.finish(job)
        assert cluster.busy_cpus == 0
        assert cluster.free_cpus == 64

    def test_start_finish_roundtrip_many(self, cluster):
        jobs = [make_job(cpus=i + 1) for i in range(8)]
        for j in jobs:
            cluster.start([j], 0.0)
        for j in jobs:
            cluster.finish(j)
        assert cluster.busy_cpus == 0
        assert not cluster.running

    def test_rejects_oversubscription(self, cluster):
        cluster.start([make_job(cpus=60)], 0.0)
        with pytest.raises(CapacityError):
            cluster.start([make_job(cpus=5)], 0.0)

    def test_rejects_too_wide_for_machine(self, cluster):
        with pytest.raises(CapacityError):
            cluster.start([make_job(cpus=65)], 0.0)

    def test_rejects_double_start(self, cluster):
        job = make_job(cpus=1)
        cluster.start([job], 0.0)
        with pytest.raises(SchedulingError):
            cluster.start([job], 1.0)

    def test_rejects_finish_of_unknown(self, cluster):
        with pytest.raises(SchedulingError):
            cluster.finish(make_job())

    def test_fits_now(self, cluster):
        cluster.start([make_job(cpus=60)], 0.0)
        assert cluster.fits_now(4)
        assert not cluster.fits_now(5)

    def test_instantaneous_utilization(self, cluster):
        cluster.start([make_job(cpus=32)], 0.0)
        assert cluster.instantaneous_utilization == 0.5


class TestOutageInteraction:
    def test_down_cpus_reduce_free(self, cluster):
        cluster.down_cpus = 60
        assert cluster.available_cpus == 4
        assert cluster.free_cpus == 4

    def test_free_clamped_at_zero_during_outage(self, cluster):
        cluster.start([make_job(cpus=30)], 0.0)
        cluster.down_cpus = 50  # busy (30) + down (50) > 64
        assert cluster.free_cpus == 0


class TestEstimates:
    def test_estimated_releases_sorted(self, cluster):
        slow = make_job(cpus=1, runtime=10.0, estimate=500.0)
        fast = make_job(cpus=1, runtime=10.0, estimate=100.0)
        cluster.start([slow], 0.0)
        cluster.start([fast], 0.0)
        releases = cluster.estimated_releases()
        assert [r.job.job_id for r in releases] == [fast.job_id, slow.job_id]

    def test_earliest_fit_estimate_now(self, cluster):
        assert cluster.earliest_fit_estimate(64, 5.0) == 5.0

    def test_earliest_fit_estimate_waits_for_release(self, cluster):
        job = make_job(cpus=60, runtime=10.0, estimate=100.0)
        cluster.start([job], 0.0)
        # A 30-wide job must wait until the 60-wide job's estimated end.
        assert cluster.earliest_fit_estimate(30, 5.0) == 100.0

    def test_earliest_fit_estimate_accumulates(self, cluster):
        a = make_job(cpus=30, runtime=10.0, estimate=50.0)
        b = make_job(cpus=30, runtime=10.0, estimate=80.0)
        cluster.start([a], 0.0)
        cluster.start([b], 0.0)
        # Needs both releases: 4 free + 30 + 30 >= 64.
        assert cluster.earliest_fit_estimate(64, 0.0) == 80.0
        # Needs only the first release: 4 + 30 >= 34.
        assert cluster.earliest_fit_estimate(34, 0.0) == 50.0

    def test_earliest_fit_estimate_infinite_under_outage(self, cluster):
        cluster.down_cpus = 60
        assert math.isinf(cluster.earliest_fit_estimate(10, 0.0))
