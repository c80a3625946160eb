"""Tests of the benchmark itself: its checks reject broken outputs, its
inputs follow the seed, its accounting counts failures, and its
metric names match ``BENCHMARK.json``.

Run with ``python -m pytest perfbench``.
"""

import json
import multiprocessing
import threading
from pathlib import Path

import pytest

import checks
import run
from repro.jobs import Job, JobKind
from repro.machines import Machine
from repro.sim.results import SimResult
from tracing import Tracer
from workloads import WORKLOADS, Output, ReportWarm, TMP_DIR


def _job(cpus, start, finish, kind=JobKind.INTERSTITIAL, submit=0.0,
         history=None, job_id=None):
    job = Job(cpus=cpus, runtime=finish - start, estimate=finish - start,
              submit_time=submit, kind=kind, job_id=job_id)
    job.start_time, job.finish_time = start, finish
    job.width_history = history
    return job


def _result(finished, cpus=16, **kwargs):
    return SimResult(machine=Machine(name="m", cpus=cpus, clock_ghz=1.0),
                     finished=finished,
                     **kwargs)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def test_occupancy_accepts_back_to_back_jobs():
    pieces = [(0.0, 5.0, 10), (5.0, 9.0, 10), (2.0, 5.0, 6)]
    assert checks.occupancy_violations(pieces, 16) == []


def test_occupancy_rejects_over_committed_interval():
    pieces = [(0.0, 10.0, 10), (5.0, 15.0, 10)]
    problems = checks.occupancy_violations(pieces, 16)
    assert problems and "t=5.000" in problems[0]


def test_occupancy_counts_failed_cpus():
    pieces = [(0.0, 10.0, 12)]
    assert checks.occupancy_violations(pieces, 16, [(2.0, 4), (3.0, -4)]) == []
    assert checks.occupancy_violations(pieces, 16, [(2.0, 8), (3.0, -8)])


def test_occupancy_follows_width_segments():
    shrunk = _job(8, 0.0, 150.0, history=[(0.0, 8), (50.0, 4)])
    other = _job(12, 50.0, 100.0)
    assert checks.occupancy_violations(
        checks.occupied(_result([shrunk, other])), 16) == []
    unshrunk = _job(8, 0.0, 150.0)
    assert checks.occupancy_violations(
        checks.occupied(_result([unshrunk, other])), 16)


def test_quantum_accepts_exact_work_over_segments():
    rigid = _job(8, 0.0, 100.0)
    malleable = _job(8, 0.0, 150.0, history=[(0.0, 8), (50.0, 4)])
    assert checks.quantum_violations(_result([rigid, malleable]), 800.0) == []


def test_quantum_rejects_wrong_work():
    short = _job(8, 0.0, 90.0)
    problems = checks.quantum_violations(_result([_job(8, 0.0, 100.0), short]),
                                         800.0)
    assert problems and "1 of 2" in problems[0]


def test_natives_reject_start_before_submit():
    early = _job(4, 10.0, 20.0, kind=JobKind.NATIVE, submit=15.0)
    assert checks.native_violations(_result([early]), 1)
    ok = _job(4, 15.0, 20.0, kind=JobKind.NATIVE, submit=15.0)
    assert checks.native_violations(_result([ok]), 1) == []


def test_natives_reject_lost_fault_victim():
    fragment = _job(4, 0.0, 5.0, kind=JobKind.NATIVE, job_id=7)
    other = _job(4, 0.0, 9.0, kind=JobKind.NATIVE, job_id=8)
    problems = checks.native_violations(
        _result([other], killed=[fragment], attempts={7: 1}), 1, 3)
    assert any("neither finished nor dead-lettered" in p for p in problems)
    retried = _job(4, 6.0, 9.0, kind=JobKind.NATIVE, job_id=7)
    assert checks.native_violations(
        _result([other, retried], killed=[fragment], attempts={7: 1}),
        2, 3) == []
    assert checks.native_violations(
        _result([other, retried], killed=[fragment], attempts={7: 5}), 2, 3)


def test_makespan_floor():
    assert checks.makespan_floor_violations([10.0], 160.0, 16, "p") == []
    assert checks.makespan_floor_violations([9.0], 160.0, 16, "p")


def test_table4_claims():
    good = {
        ("blue_mountain", 7.7, 8, 120.0): 100.0,
        ("blue_mountain", 123.0, 8, 120.0): 900.0,
        ("blue_pacific", 7.7, 8, 120.0): 300.0,
        ("blue_pacific", 123.0, 8, 120.0): float("inf"),
    }
    assert checks.table4_claim_violations(good) == []
    bad = dict(good)
    bad[("blue_pacific", 7.7, 8, 120.0)] = 50.0
    bad[("blue_mountain", 123.0, 8, 120.0)] = 80.0
    cells = {cell for cell, _ in checks.table4_claim_violations(bad)}
    assert cells == {("blue_pacific", 7.7, 8, 120.0),
                     ("blue_mountain", 123.0, 8, 120.0)}
    small_large = {
        ("blue_mountain", 7.7, 8, 120.0): 100.0,
        ("blue_mountain", 123.0, 8, 120.0): 900.0,
        ("blue_pacific", 7.7, 8, 120.0): 2000.0,
        ("blue_pacific", 123.0, 8, 120.0): 1500.0,
    }
    assert checks.table4_claim_violations(small_large) == []
    assert checks.table4_claim_violations(
        small_large, size_machines=("blue_pacific",))


def test_warm_render_must_match_cold():
    workload = ReportWarm()
    workload.setup(1)
    try:
        n = len(workload.EXPERIMENTS)
        assert workload.check(0, Output("cold", "", {"store.misses": 2})) == []
        assert workload.check(n, Output("cold", "", {"store.misses": 0})) == []
        assert workload.check(n, Output("cold!", "", {"store.misses": 0}))
        assert workload.check(n, Output("cold", "", {"store.misses": 1}))
    finally:
        workload.close()
    assert not TMP_DIR.exists()


# ----------------------------------------------------------------------
# Inputs follow the seed
# ----------------------------------------------------------------------
def _inputs(workload):
    parts = [
        [(j.submit_time, j.runtime, j.estimate, j.cpus, j.user)
         for j in trace.jobs]
        for _, trace in sorted(workload.traces.items())
    ]
    for attr in ("faults", "plan", "scales"):
        if hasattr(workload, attr):
            parts.append(repr(getattr(workload, attr)))
    return parts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first, again, other = WORKLOADS[name](), WORKLOADS[name](), WORKLOADS[name]()
    try:
        first.setup(11)
        again.setup(11)
        other.setup(12)
        assert _inputs(first) == _inputs(again)
        assert _inputs(first) != _inputs(other)
    finally:
        for w in (first, again, other):
            w.close()


# ----------------------------------------------------------------------
# Tracing never changes results
# ----------------------------------------------------------------------
def test_traced_operation_matches_untraced():
    workload = WORKLOADS["faulted-elastic"]()
    workload.setup(3)
    i = workload.ops.index(("blue_pacific", 0, "malleable"))
    _, plain = workload.run_op(i, None)
    tracer = Tracer()
    _, traced = workload.run_op(i, tracer)
    assert traced.digest == plain.digest
    assert workload.check(i, plain) == []
    assert tracer.depth == 0 and tracer.spans["sim.run"][0] == 1
    assert traced.counts["core.jobs_offered"] == traced.counts["core.starts"]


class _OneReport(ReportWarm):
    REPLICAS = 1


def test_report_round_cleans_up_and_starts_nothing():
    workload = _OneReport()
    workload.setup(5)
    try:
        m = run.measure(workload, 0.0, trace=True, tracer=Tracer())
    finally:
        workload.close()
    assert m.problems == [] and m.failed == 0
    assert m.attempted == 3 * len(workload.ops)
    assert not TMP_DIR.exists()
    assert threading.active_count() == 1
    assert multiprocessing.active_children() == []


def test_tracer_self_times_add_up():
    tracer = Tracer()
    tracer.open("a")
    tracer.open("b")
    tracer.close()
    tracer.open("b")
    tracer.close()
    tracer.close()
    calls, total, own = tracer.spans["a"]
    assert calls == 1
    assert own + tracer.spans["b"][1] == pytest.approx(total)


# ----------------------------------------------------------------------
# Accounting and the declared metrics
# ----------------------------------------------------------------------
class _Flaky:
    name = "flaky"
    ops = ["ok", "raises", "wrong"]

    def __init__(self):
        self.rounds_ended = 0

    def run_op(self, i, tracer):
        if self.ops[i] == "raises":
            raise RuntimeError("boom")
        return 0.001, Output(self.ops[i], self.ops[i], {})

    def check(self, i, out):
        return ["wrong output"] if out.value == "wrong" else []

    def round_problems(self):
        return {0: ["cross-operation claim"]}

    def end_round(self):
        self.rounds_ended += 1


def test_measure_counts_whole_rounds_and_failures():
    workload = _Flaky()
    m = run.measure(workload, 0.0, trace=True, tracer=Tracer())
    assert m.rounds == 3 and workload.rounds_ended == 3
    assert m.attempted == 9
    # Round 0: "raises" raised, "wrong" failed its check and "ok" a
    # cross-operation claim; in rounds 1 and 2 "raises" raised again.
    assert m.failed == 3 + 1 + 1


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
