"""Host-time benchmark of the interstitial-computing reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload continual-rigid --seed 1 \\
        --seconds 28 --trace 0

Runs one workload of :mod:`workloads` in this process for about
``--seconds`` seconds (at least its ``COUNTED_ROUNDS``), in whole
rounds of its operations, checks the outputs, and prints one JSON
object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``run_s``, ``peak_rss_mb``); with ``--trace 1`` untraced and traced
rounds alternate and the metrics are the per-layer split (see
README.md).  A human-readable summary goes to standard error.
"""

import argparse
import gc
import heapq
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path[:0] = [str(Path(__file__).resolve().parent),
                str(Path(__file__).resolve().parent.parent / "src")]

#: Set-ups per run; ``setup_s`` reports the time to import the program
#: plus their median, at the reference host speed.
SETUP_REPEATS = 3
#: Largest share of the traced ``run_s`` the layer self times may leave
#: unattributed (time in the benchmark's own glue between layer calls).
RECONCILE_TOLERANCE = 0.03

#: Seconds one ``reference()`` call is taken to last: operation times
#: are expressed in units of the reference calls timed around them,
#: then converted back to seconds at this (quiet-host) speed.
REFERENCE_S = 0.015

#: Self-time metrics -> the spans whose self times they sum.  Together
#: they cover every span, so they add up to the traced run time.
SELF_TIMES = {
    "core.offer_s": ("core.offer",),
    "core.notify_s": ("core.notify",),
    "core.sample_s": ("core.sample",),
    "core.pack_s": ("core.pack",),
    "metrics.collect_s": ("metrics.collect",),
    "sim.self_s": ("sim.run",),
    "sim.dispatch_s": ("sim.dispatch",),
    "sim.event_queue_s": ("sim.event_queue",),
    "sim.pass_s": ("sim.pass",),
    "sched.schedule_s": ("sched.schedule",),
    "sched.submit_s": ("sched.submit",),
    "sched.on_finish_s": ("sched.on_finish",),
    "sched.head_estimate_s": ("sched.head_estimate",),
    "sched.priority_maintenance_s": ("sched.priority_maintenance",),
    "sched.release_timeline_s": ("sched.release_timeline",),
    "faults.apply_s": ("faults.apply",),
    "elastic.grow_requests_s": ("elastic.grow_requests",),
    "store.read_s": ("store.read",),
    "store.compute_s": ("store.compute",),
    "store.write_s": ("store.write",),
    "experiments.self_s": ("experiments.cold", "experiments.warm"),
}
#: Inclusive-time metrics -> span.
TOTAL_TIMES = {
    "sim.run_s": "sim.run",
    "experiments.cold_s": "experiments.cold",
    "experiments.warm_s": "experiments.warm",
}
#: Work counts taken from operation outputs.
COUNTS = (
    "core.offer_calls", "core.jobs_offered", "core.starts",
    "core.preempt_kills", "sim.events", "sched.passes",
    "sched.pass_skips", "sched.priority_rekeys", "sched.backfill_starts",
    "faults.failures", "faults.fault_kills", "faults.requeues",
    "elastic.shrinks", "elastic.grows", "elastic.molded_starts",
    "store.disk_hits", "store.misses",
)

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "s" for name in TOTAL_TIMES},
    **{name: "count" for name in COUNTS},
    "sched.schedule_calls": "count",
    "store.bytes_written": "bytes",
    "workload.generate_s": "s",
    "workload.native_jobs": "count",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_s": "s",
    "host.reference_s": "s",
}


class _Item:
    __slots__ = ("key", "t", "width", "state")

    def __init__(self, key, t, width):
        self.key, self.t, self.width, self.state = key, t, width, 0


def reference(n: int = 10000) -> int:
    """A fixed piece of pure-Python work shaped like an event loop
    (object allocation, a heap, a dict of running items, appends).

    Timed right before and right after every operation.  The host this
    runs on is shared and its speed drifts over seconds to minutes; this
    loop slows down with it, so an operation's time divided by the
    reference time around it measures the program's cost at a fixed
    host speed.
    """
    heap, running, done = [], {}, []
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        item = _Item(i, (x % 1000) * 0.5, 1 + (x >> 10) % 16)
        heapq.heappush(heap, (item.t + i, i, item))
        running[i] = item
        if len(heap) > 64:
            t, key, first = heapq.heappop(heap)
            first.state = 2
            done.append((t, first.width))
            del running[key]
    return len(done)


def timed_reference() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


class Measurement:
    """Everything one run records, per operation."""

    def __init__(self, n_ops: int) -> None:
        #: Fastest elapsed time per operation, untraced and traced.
        self.best = {False: [math.inf] * n_ops, True: [math.inf] * n_ops}
        #: Span aggregates of each operation's fastest traced execution.
        self.spans = [dict() for _ in range(n_ops)]
        #: Work counts of each operation's first traced execution.
        self.counts = [None] * n_ops
        self.digests = [None] * n_ops
        #: Untraced elapsed / reference time, per operation, in order.
        self.ratios = [[] for _ in range(n_ops)]
        self.rounds = self.attempted = self.failed = 0
        self.problems = []
        #: Fastest reference time (mean of the calls around an operation).
        self.reference_s = math.inf


def measure(workload, seconds: float, trace: bool, tracer) -> Measurement:
    """Run whole rounds of the workload's operations for about
    ``seconds`` (at least ``workload.COUNTED_ROUNDS``); with ``trace``
    the odd rounds are traced."""
    ops = workload.ops
    m = Measurement(len(ops))
    # Traced runs need an untraced round on each side of a traced one,
    # so both fastest times come from warmed-up executions.
    min_rounds = 3 if trace else workload.COUNTED_ROUNDS
    start = perf_counter()
    while True:
        traced = trace and m.rounds % 2 == 1
        failed_ops = set()
        #: A round's outputs stay alive until it ends, as a RunContext
        #: keeps every product it computed; frozen, so the collections
        #: between operations do not traverse them.
        held = []
        try:
            for i, op in enumerate(ops):
                m.attempted += 1
                gc.collect()
                before = tracer.snapshot() if traced else None
                ref_before = timed_reference()
                try:
                    elapsed, out = workload.run_op(i, tracer if traced else None)
                    ref_s = (ref_before + timed_reference()) / 2
                except Exception as exc:  # an operation that raises fails
                    traceback.print_exc(file=sys.stderr)
                    m.problems.append(f"{op}: {type(exc).__name__}: {exc}")
                    failed_ops.add(i)
                    if traced:
                        tracer.reset_stack()
                    continue
                problems = []
                if m.digests[i] is None:
                    m.digests[i] = out.digest
                elif out.digest != m.digests[i]:
                    problems.append(
                        f"{op}: output differs from the first execution "
                        f"({'traced' if traced else 'untraced'} round "
                        f"{m.rounds})")
                if m.rounds == 0:
                    problems += workload.check(i, out)
                if traced:
                    if m.counts[i] is None:
                        m.counts[i] = out.counts
                    if elapsed < m.best[True][i]:
                        m.spans[i] = tracer.since(before)
                m.best[traced][i] = min(m.best[traced][i], elapsed)
                m.reference_s = min(m.reference_s, ref_s)
                if not traced:
                    m.ratios[i].append(elapsed / ref_s)
                if problems:
                    m.problems += problems
                    failed_ops.add(i)
                held.append(out)
                gc.freeze()
            if m.rounds == 0:
                for i, problems in workload.round_problems().items():
                    m.problems += problems
                    failed_ops.add(i)
        finally:
            workload.end_round()
            del held
            gc.unfreeze()
        m.failed += len(failed_ops)
        m.rounds += 1
        spent = perf_counter() - start
        if m.rounds >= min_rounds and spent * (m.rounds + 1) / m.rounds > seconds:
            return m


def reference_run_s(m: Measurement, counted: int) -> float:
    """Sum over operations of the mean of their first ``counted``
    untraced times, each in units of the reference calls timed around
    it, converted to seconds at ``REFERENCE_S`` (see README.md).

    A fixed number of executions counts: later ones run in a process
    whose allocator and caches the earlier rounds warmed, and how many
    rounds fit depends on the host's speed, so counting them would make
    the figure depend on how busy the host was."""
    return REFERENCE_S * sum(
        statistics.fmean(r[:counted]) for r in m.ratios if r)


def layer_metrics(m: Measurement, generate_s: float, native_jobs: int):
    """The per-layer split of the traced rounds, and its reconciliation
    problems."""
    spans = {}
    for op_spans in m.spans:
        for name, (calls, total, own) in op_spans.items():
            c, t, s = spans.get(name, (0, 0.0, 0.0))
            spans[name] = (c + calls, t + total, s + own)
    values = {}
    for metric, names in SELF_TIMES.items():
        values[metric] = sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)
    attributed = sum(values.values())
    for metric, name in TOTAL_TIMES.items():
        values[metric] = spans.get(name, (0, 0.0, 0.0))[1]
    for metric in COUNTS + ("store.bytes_written",):
        values[metric] = sum((c or {}).get(metric, 0) for c in m.counts)
    values["sched.schedule_calls"] = spans.get("sched.schedule", (0,))[0]
    values["workload.generate_s"] = generate_s
    values["workload.native_jobs"] = native_jobs
    # Operations that never succeeded have no time; they count in failed.
    traced_run = sum(t for t in m.best[True] if t < math.inf)
    untraced_run = sum(t for t in m.best[False] if t < math.inf)
    values["trace.run_s"] = traced_run
    values["trace.untraced_run_s"] = untraced_run
    values["trace.overhead_s"] = traced_run - untraced_run
    values["trace.overhead_pct"] = (
        100.0 * (traced_run / untraced_run - 1.0) if untraced_run else 0.0)
    values["trace.unattributed_s"] = traced_run - attributed
    values["host.reference_s"] = m.reference_s
    problems = []
    gap = (traced_run - attributed) / traced_run if traced_run else 0.0
    if not -1e-9 <= gap <= RECONCILE_TOLERANCE:
        problems.append(
            f"layer self times {attributed:.4f} s leave {100 * gap:.2f}% of "
            f"the traced run_s {traced_run:.4f} s unattributed (tolerance "
            f"{100 * RECONCILE_TOLERANCE:.0f}%)")
    unknown = set(spans) - {n for names in SELF_TIMES.values() for n in names}
    if unknown:
        problems.append(f"spans without a layer metric: {sorted(unknown)}")
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refs = [timed_reference() for _ in range(3)]
    t0 = perf_counter()
    from tracing import Tracer
    from workloads import WORKLOADS

    import_s = perf_counter() - t0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    setups, generates = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        generates.append(workload.setup(args.seed))
        setups.append(perf_counter() - t0)
    refs += [timed_reference() for _ in range(3)]
    setup_s = (import_s + statistics.median(setups)) * (
        REFERENCE_S / statistics.median(refs))
    trace = bool(args.trace)
    try:
        m = measure(workload, args.seconds, trace, Tracer() if trace else None)
    finally:
        workload.close()

    correct = not m.problems
    if trace:
        values, problems = layer_metrics(
            m, statistics.median(generates), workload.native_jobs)
        correct = correct and not problems
        m.problems += problems
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": setup_s,
            "run_s": reference_run_s(m, workload.COUNTED_ROUNDS),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}

    print(f"{workload.name}: {m.rounds} rounds x {len(workload.ops)} ops, "
          f"{m.failed} failed; fastest-time sum {sum(m.best[False]):.4f} s, "
          f"reference {1000 * m.reference_s:.2f} ms, "
          f"run_s {reference_run_s(m, workload.COUNTED_ROUNDS):.4f} s",
          file=sys.stderr)
    for op, fast, slow in zip(workload.ops, m.best[False], m.best[True]):
        print(f"  {str(op):40s} {fast:8.4f} s"
              + (f"  traced {slow:8.4f} s" if trace else ""), file=sys.stderr)
    for problem in m.problems:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
