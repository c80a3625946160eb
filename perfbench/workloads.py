"""The benchmark's four workloads.

A workload generates its inputs from the seed (``setup``), then runs a
fixed list of *operations*, each one a sequence of calls into the
program's public API.  ``run_op`` builds fresh program objects for the
operation (untimed), times the calls, and returns the elapsed time
with an :class:`Output`; ``check`` validates the output of an
operation's first execution; ``round_problems`` validates claims that
span operations.  With a :class:`~tracing.Tracer` the calls are
wrapped in layer spans and the program receives the delegating
wrappers of :mod:`tracing`; without one it receives its own objects.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.controller import InterstitialController
from repro.core.omniscient import pack_project
from repro.core.runners import run_native, run_with_controller
from repro.core.sampling import sample_short_projects
from repro.elastic import ElasticitySpec, elastic_controller
from repro.experiments.common import INTERSTITIAL_USER
from repro.experiments.config import SCALES
from repro.experiments.context import RunContext
from repro.experiments.continual_tables import column_stats
from repro.experiments.registry import SPECS
from repro.experiments.table2 import JOB_WIDTHS, PAPER_PETA_CYCLES
from repro.experiments.table2 import RUNTIME_1GHZ as TABLE2_RUNTIME_1GHZ
from repro.experiments.table4 import PAPER_ROWS as TABLE4_ROWS
from repro.faults import FaultModel, RetryPolicy
from repro.jobs import InterstitialProject, JobKind
from repro.machines import preset
from repro.sched.presets import scheduler_for
from repro.store import RunStore
from repro.units import DAY, HOUR
from repro.workload.synthetic import synthetic_trace_for

import checks
from tracing import TracedScheduler, TracedSource, TracedStore, TracingTimers

#: Temporary stores live inside the checkout, under this directory.
TMP_DIR = Path(__file__).resolve().parent.parent / ".perfbench-tmp"


@dataclass
class Output:
    """One operation's products plus what the benchmark derives."""

    value: Any
    digest: str
    #: Per-layer work counts of this execution.
    counts: Dict[str, float] = field(default_factory=dict)


def call(tracer, span: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a ``span`` when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    tracer.open(span)
    value = fn(*args, **kwargs)
    tracer.close()
    return value


def seeded_rng(seed: int, label: str) -> np.random.Generator:
    """Generator for one named input stream of one seed."""
    return np.random.default_rng((seed, zlib.crc32(label.encode())))


def seeded_int(seed: int, label: str) -> int:
    return int(seeded_rng(seed, label).integers(2**31 - 1))


def _job_arrays(h, jobs) -> None:
    n = len(jobs)
    for getter, dtype in (
        (lambda j: j.job_id, np.int64),
        (lambda j: j.cpus, np.int64),
        (lambda j: -1.0 if j.start_time is None else j.start_time, float),
        (lambda j: -1.0 if j.finish_time is None else j.finish_time, float),
    ):
        h.update(np.fromiter(map(getter, jobs), dtype=dtype, count=n).tobytes())
    h.update(repr([(j.job_id, j.width_history) for j in jobs
                   if j.width_history]).encode())


def result_digest(result, *extra) -> str:
    """Digest of everything a simulation produced (plus ``extra``)."""
    h = hashlib.sha256()
    h.update(repr(result.counters.as_dict()).encode())
    for jobs in (result.finished, result.killed, result.unfinished,
                 result.dead_lettered):
        _job_arrays(h, jobs)
    h.update(repr((sorted(result.attempts.items()), result.end_time,
                   tuple(result.fault_transitions))).encode())
    for item in extra:
        if isinstance(item, np.ndarray):
            h.update(item.tobytes())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


def sim_counts(result, source=None) -> Dict[str, float]:
    """Per-layer work counts of one simulation."""
    c = result.counters
    inter_starts = sum(
        1 for j in list(result.finished) + list(result.killed)
        if j.kind is JobKind.INTERSTITIAL
    )
    counts = {
        "sim.events": c.events,
        "core.starts": inter_starts,
        "core.preempt_kills": c.preempt_kills,
        "sched.passes": c.scheduling_passes,
        "sched.pass_skips": c.pass_skips,
        "sched.priority_rekeys": c.priority_rekeys,
        "sched.backfill_starts": c.backfill_starts,
        "faults.failures": c.failures,
        "faults.fault_kills": c.fault_kills,
        "faults.requeues": c.requeues,
        "elastic.shrinks": c.preempt_shrinks,
        "elastic.grows": c.grows,
        "elastic.molded_starts": c.molded_starts,
    }
    if isinstance(source, TracedSource):
        counts["core.offer_calls"] = source.offer_calls
        counts["core.jobs_offered"] = source.jobs_offered
    return counts


def traced(tracer, scheduler, source=None):
    """The objects handed to the program: wrappers when tracing."""
    if tracer is None:
        return scheduler, source, None
    return (
        TracedScheduler(scheduler, tracer),
        None if source is None else TracedSource(source, tracer),
        TracingTimers(tracer),
    )


class Workload:
    """Shared plumbing; subclasses fill in the operations.

    Each simulation workload replays ``REPLICAS`` independent traces per
    machine (replica ``r`` of machine ``m`` is generated from the seed
    and the label ``trace:m:r``), so one run averages over several
    inputs.
    """

    name = ""
    MACHINES: Tuple[str, ...] = ()
    REPLICAS = 1
    #: Untraced rounds every run makes and ``run_s`` averages over.
    COUNTED_ROUNDS = 2
    TRACE_SCALE = 1.0
    #: Per-machine overrides of ``TRACE_SCALE``.
    MACHINE_SCALE: Dict[str, float] = {}
    #: Operation labels, fixed by ``setup``.
    ops: List[Any] = []

    def setup(self, seed: int) -> float:
        """Generate inputs and build the program objects; returns the
        seconds spent generating native traces."""
        raise NotImplementedError

    def run_op(self, i: int, tracer) -> Tuple[float, Output]:
        raise NotImplementedError

    def check(self, i: int, out: Output) -> List[str]:
        return []

    def round_problems(self) -> Dict[int, List[str]]:
        """Claims across operations, checked after the first round."""
        return {}

    def end_round(self) -> None:
        """Release what one round of operations left behind."""

    def close(self) -> None:
        """Release what the run left behind."""

    @property
    def native_jobs(self) -> int:
        return sum(len(t.jobs) for t in self.traces.values())

    def trace_scale(self, m: str) -> float:
        return self.MACHINE_SCALE.get(m, self.TRACE_SCALE)

    def _traces(self, seed: int) -> float:
        t0 = perf_counter()
        self.traces = {
            (m, r): synthetic_trace_for(
                m, rng=seeded_rng(seed, f"trace:{m}:{r}"),
                scale=self.trace_scale(m))
            for m in self.MACHINES for r in range(self.REPLICAS)
        }
        generate_s = perf_counter() - t0
        self.machines = {m: preset(m) for m in self.MACHINES}
        self._native_util: Dict[Tuple[str, int], float] = {}
        return generate_s

    def _native_utilization(self, key) -> float:
        """Utilization of the native-only replay of one trace (computed
        once, outside any timing, for the checks)."""
        if key not in self._native_util:
            trace = self.traces[key]
            native = run_native(self.machines[key[0]], trace.jobs,
                                horizon=trace.duration)
            self._native_util[key] = checks.utilization(
                native, trace.duration)
        return self._native_util[key]

    def _sim_checks(self, key, result, quantum: Optional[float],
                    max_attempts: Optional[int] = None,
                    stats: Optional[dict] = None) -> List[str]:
        machine, trace = self.machines[key[0]], self.traces[key]
        pieces = checks.occupied(result)
        problems = checks.occupancy_violations(
            pieces, machine.cpus, result.fault_transitions)
        if quantum is not None:
            problems += checks.quantum_violations(result, quantum)
        problems += checks.native_violations(result, len(trace.jobs),
                                             max_attempts)
        util = checks.busy_cpu_seconds(pieces, trace.duration) / (
            machine.cpus * trace.duration)
        if util > 1.0 + 1e-12:
            problems.append(f"utilization {util:.6f} above 1")
        if stats is not None and not math.isclose(
                stats["overall_utilization"], util, rel_tol=1e-9):
            problems.append(
                f"reported utilization {stats['overall_utilization']:.9f} "
                f"!= integrated {util:.9f}")
        return [f"{key[0]}#{key[1]}: {p}" for p in problems]


# ----------------------------------------------------------------------
class ContinualRigid(Workload):
    """Continual logs (§4.3.2) for the Table 4/7 rigid job shapes, each
    followed by §4.3.1 short-project sampling and the Table 7 column
    statistics."""

    name = "continual-rigid"
    MACHINES = ("ross", "blue_mountain", "blue_pacific")
    REPLICAS = 3
    #: A round takes 12-20 s; a second would not fit a run.
    COUNTED_ROUNDS = 1
    #: (CPUs/job, runtime s @ 1 GHz): every shape of Tables 4 and 7.
    SHAPES = ((8, 120.0), (32, 120.0), (8, 960.0), (32, 960.0))
    TRACE_SCALE = 0.02
    #: Blue Pacific runs are cheap, and its Table 4 claims need a log
    #: long enough that the empty machine at t=0 does not dominate.
    MACHINE_SCALE = {"blue_pacific": 0.1}
    PROJECT_SCALE = 0.1
    SAMPLES = 100

    def setup(self, seed: int) -> float:
        self.seed = seed
        generate_s = self._traces(seed)
        self.projects = {
            (cpus, rt): InterstitialProject(
                n_jobs=1, cpus_per_job=cpus, runtime_1ghz=rt,
                name=f"continual-{cpus}x{rt:.0f}",
                user=INTERSTITIAL_USER, group=INTERSTITIAL_USER)
            for cpus, rt in self.SHAPES
        }
        #: shape -> [(peta-cycles, jobs)] of the Table 4 rows.
        self.sizes = {shape: [] for shape in self.SHAPES}
        for peta, kjobs, cpus, rt in TABLE4_ROWS:
            n_jobs = max(1, round(kjobs * 1000 * self.PROJECT_SCALE))
            self.sizes[(cpus, rt)].append((peta, n_jobs))
        self.ops = [(m, r, shape) for m in self.MACHINES
                    for r in range(self.REPLICAS) for shape in self.SHAPES]
        self.cells: Dict[Tuple[str, int, float, int, float], float] = {}
        return generate_s

    def _sample(self, result, n_jobs: int, rng) -> np.ndarray:
        return sample_short_projects(
            result.jobs(JobKind.INTERSTITIAL), n_jobs=n_jobs,
            n_samples=self.SAMPLES, rng=rng)

    def run_op(self, i, tracer):
        m, r, shape = self.ops[i]
        machine, trace = self.machines[m], self.traces[(m, r)]
        controller = InterstitialController(
            machine=machine, project=self.projects[shape], continual=True)
        scheduler, source, timers = traced(
            tracer, scheduler_for(machine), controller)
        rngs = [seeded_rng(self.seed, f"sample:{m}:{r}:{shape}:{peta}")
                for peta, _ in self.sizes[shape]]
        t0 = perf_counter()
        result = call(tracer, "sim.run", run_with_controller, machine,
                      trace.jobs, source, scheduler=scheduler,
                      horizon=trace.duration, timers=timers)
        samples = [
            call(tracer, "core.sample", self._sample, result, n, rng)
            for (_, n), rng in zip(self.sizes[shape], rngs)
        ]
        stats = call(tracer, "metrics.collect", column_stats, result)
        elapsed = perf_counter() - t0
        return elapsed, Output(
            (result, samples, stats),
            result_digest(result, *samples, stats),
            sim_counts(result, source),
        )

    def check(self, i, out):
        m, r, (cpus, rt) = self.ops[i]
        result, samples, stats = out.value
        machine = self.machines[m]
        runtime = self.projects[(cpus, rt)].runtime_on(machine)
        problems = self._sim_checks((m, r), result, cpus * runtime,
                                    stats=stats)
        # _sim_checks held the reported figure to the benchmark's own.
        util = stats["overall_utilization"]
        native_util = self._native_utilization((m, r))
        if util < native_util:
            problems.append(f"{m}#{r}: continual utilization {util:.6f} "
                            f"below native-only {native_util:.6f}")
        for (peta, n_jobs), makespans in zip(self.sizes[(cpus, rt)], samples):
            problems += checks.makespan_floor_violations(
                makespans, n_jobs * cpus * runtime, machine.cpus,
                f"{m}#{r} {peta:g} PC sampled")
            complete = makespans.size >= max(3, self.SAMPLES // 10)
            self.cells[(m, r, peta, cpus, rt)] = (
                float(makespans.mean()) if complete else math.inf)
        return problems

    def round_problems(self):
        found: Dict[int, List[str]] = {}
        for r in range(self.REPLICAS):
            cells = {(m, peta, cpus, rt): mean for (m, rr, peta, cpus, rt),
                     mean in self.cells.items() if rr == r}
            for (m, _, cpus, rt), message in checks.table4_claim_violations(
                    cells):
                i = self.ops.index((m, r, (cpus, rt)))
                found.setdefault(i, []).append(f"#{r}: {message}")
        return found


# ----------------------------------------------------------------------
class NativePaper(Workload):
    """Native-only replays under each preset's production policy with a
    60 s dispatch-cycle wake, then omniscient packing (§4.1) of the
    Table 2 projects at sampled start times."""

    name = "native-paper"
    MACHINES = ("ross", "blue_mountain", "blue_pacific")
    REPLICAS = 6
    TRACE_SCALE = 0.15
    PROJECT_SCALE = 0.1
    WAKE_S = 60.0
    PACK_SAMPLES = 2

    def setup(self, seed):
        generate_s = self._traces(seed)
        projects = [
            InterstitialProject.from_peta_cycles(
                peta * self.PROJECT_SCALE, cpus_per_job=width,
                runtime_1ghz=TABLE2_RUNTIME_1GHZ,
                name=f"{peta:g}PC x {width}CPU")
            for peta in PAPER_PETA_CYCLES for width in JOB_WIDTHS
        ]
        #: trace -> [(project, start time)] to pack.
        self.plan = {}
        for key, trace in self.traces.items():
            rng = seeded_rng(seed, f"pack:{key[0]}:{key[1]}")
            self.plan[key] = [
                (p, float(rng.uniform(0.0, trace.duration)))
                for p in projects for _ in range(self.PACK_SAMPLES)
            ]
        self.ops = list(self.traces)
        return generate_s

    def run_op(self, i, tracer):
        key = self.ops[i]
        machine, trace = self.machines[key[0]], self.traces[key]
        scheduler, _, timers = traced(tracer, scheduler_for(machine))
        t0 = perf_counter()
        result = call(tracer, "sim.run", run_native, machine, trace.jobs,
                      scheduler=scheduler, horizon=trace.duration,
                      wake_interval=self.WAKE_S, timers=timers)
        packings = [
            call(tracer, "core.pack", pack_project, result, project,
                 start_time=start)
            for project, start in self.plan[key]
        ]
        elapsed = perf_counter() - t0
        return elapsed, Output(
            (result, packings),
            result_digest(result, [(p.start_time, p.placements)
                                   for p in packings]),
            sim_counts(result),
        )

    def check(self, i, out):
        key = self.ops[i]
        result, packings = out.value
        machine = self.machines[key[0]]
        problems = self._sim_checks(key, result, None)
        native_pieces = checks.occupied(result)
        for packing in packings:
            project = packing.project
            runtime = project.runtime_on(machine)
            label = (f"{key[0]}#{key[1]} {project.name} at "
                     f"{packing.start_time:.0f}")
            problems += checks.makespan_floor_violations(
                [packing.makespan],
                project.n_jobs * project.cpus_per_job * runtime,
                machine.cpus, label)
            placed = sum(k for _, k in packing.placements)
            if placed != project.n_jobs:
                problems.append(f"{label}: placed {placed} of "
                                f"{project.n_jobs} jobs")
            pieces = native_pieces + [
                (t, t + runtime, k * project.cpus_per_job)
                for t, k in packing.placements
            ]
            problems += [f"{label}: {p}" for p in
                         checks.occupancy_violations(pieces, machine.cpus)]
        return problems


# ----------------------------------------------------------------------
class FaultedElastic(Workload):
    """Continual interstitials under seeded node failures with a retry
    policy: preemptible rigid jobs (kill and re-credit) and malleable
    jobs (shrink, grow, molded starts)."""

    name = "faulted-elastic"
    MACHINES = ("blue_mountain", "blue_pacific")
    REPLICAS = 6
    MODES = ("rigid", "malleable")
    TRACE_SCALE = 0.03
    CPUS, RUNTIME_1GHZ, MIN_WIDTH = 32, 120.0, 4
    #: CPUs lost per node crash.
    CPUS_PER_NODE = {"blue_mountain": 16, "blue_pacific": 8}
    MTBF_S = 10.0 * DAY
    MTTR_S = 4.0 * HOUR
    RETRY = RetryPolicy(max_attempts=3, base_delay=60.0,
                        backoff_factor=2.0, max_delay=HOUR)

    def setup(self, seed):
        generate_s = self._traces(seed)
        self.faults = {
            key: FaultModel(mtbf=self.MTBF_S, mttr=self.MTTR_S,
                            cpus_per_node=self.CPUS_PER_NODE[key[0]],
                            seed=seeded_int(seed, f"faults:{key[0]}:{key[1]}"))
            for key in self.traces
        }
        common = dict(n_jobs=1, cpus_per_job=self.CPUS,
                      runtime_1ghz=self.RUNTIME_1GHZ,
                      user=INTERSTITIAL_USER, group=INTERSTITIAL_USER)
        self.projects = {
            "rigid": InterstitialProject(name="rigid", **common),
            "malleable": InterstitialProject(
                name="malleable", min_width=self.MIN_WIDTH,
                max_width=self.CPUS, **common),
        }
        self.ops = [(m, r, mode) for m in self.MACHINES
                    for r in range(self.REPLICAS) for mode in self.MODES]
        return generate_s

    def _controller(self, machine, mode):
        if mode == "rigid":
            return InterstitialController(
                machine=machine, project=self.projects[mode],
                continual=True, preemptible=True)
        return elastic_controller(
            machine, self.projects[mode], ElasticitySpec.malleable(),
            continual=True)

    def run_op(self, i, tracer):
        m, r, mode = self.ops[i]
        machine, trace = self.machines[m], self.traces[(m, r)]
        controller = self._controller(machine, mode)
        scheduler, source, timers = traced(
            tracer, scheduler_for(machine), controller)
        t0 = perf_counter()
        result = call(tracer, "sim.run", run_with_controller, machine,
                      trace.jobs, source, scheduler=scheduler,
                      faults=self.faults[(m, r)], retry=self.RETRY,
                      horizon=trace.duration, timers=timers)
        stats = call(tracer, "metrics.collect", column_stats, result)
        elapsed = perf_counter() - t0
        return elapsed, Output(
            (result, stats), result_digest(result, stats),
            sim_counts(result, source))

    def check(self, i, out):
        m, r, mode = self.ops[i]
        result, stats = out.value
        machine = self.machines[m]
        quantum = self.CPUS * self.projects[mode].runtime_on(machine)
        problems = self._sim_checks((m, r), result, quantum,
                                    self.RETRY.max_attempts, stats)
        c = result.counters
        if mode == "rigid" and (c.preempt_shrinks or c.grows
                                or c.molded_starts):
            problems.append(f"{m}#{r}: rigid run resized jobs")
        if mode == "malleable" and c.preempt_kills:
            problems.append(f"{m}#{r}: non-preemptible malleable run killed "
                            f"{c.preempt_kills} jobs to seat natives")
        return problems


# ----------------------------------------------------------------------
class ReportWarm(Workload):
    """Registry experiments against a fresh disk-backed RunStore: a
    cold pass that simulates and writes, then a warm pass from a new
    RunContext on the same directory, for ``REPLICAS`` scale seeds."""

    name = "report-warm"
    #: table1/table7/table8-ross go through the store; fig4-outages
    #: calls the runners directly.
    EXPERIMENTS = ("table1", "table7", "table8-ross", "fig4-outages")
    REPLICAS = 3

    def setup(self, seed):
        self.scales = [
            replace(SCALES["quick"], seed=seeded_int(seed, f"scale:{r}"))
            for r in range(self.REPLICAS)
        ]
        self.traces = {}
        self.ops = [(r, phase, e) for r in range(self.REPLICAS)
                    for phase in ("cold", "warm") for e in self.EXPERIMENTS]
        TMP_DIR.mkdir(exist_ok=True)
        self._dir: Optional[str] = None
        self._ctx: Optional[RunContext] = None
        self._texts: Dict[Tuple[int, str], str] = {}
        self._misses: Dict[Tuple[int, str], int] = {}
        return 0.0

    def _context(self, r: int, tracer) -> RunContext:
        store = RunStore(path=self._dir)
        if tracer is None:
            return RunContext(scale=self.scales[r], store=store)
        return RunContext(scale=self.scales[r],
                          store=TracedStore(store, tracer),
                          timers=TracingTimers(tracer))

    def run_op(self, i, tracer):
        r, phase, exp = self.ops[i]
        if exp == self.EXPERIMENTS[0]:
            if phase == "cold":
                self._remove_store()
                self._dir = tempfile.mkdtemp(prefix="store-", dir=TMP_DIR)
            self._ctx = self._context(r, tracer)
        ctx = self._ctx
        store_counts = ctx.store.counters
        disk_hits, misses = store_counts.disk_hits, store_counts.misses
        driver = SPECS[exp].driver
        t0 = perf_counter()
        text = call(tracer, f"experiments.{phase}",
                    lambda: driver(ctx).render())
        elapsed = perf_counter() - t0
        counts = {
            "store.disk_hits": store_counts.disk_hits - disk_hits,
            "store.misses": store_counts.misses - misses,
        }
        if phase == "cold" and exp == self.EXPERIMENTS[-1]:
            counts["store.bytes_written"] = sum(
                f.stat().st_size for f in Path(self._dir).iterdir()
                if f.is_file())
        return elapsed, Output(
            text, hashlib.sha256(text.encode()).hexdigest(), counts)

    def check(self, i, out):
        r, phase, exp = self.ops[i]
        misses = out.counts["store.misses"]
        if phase == "cold":
            self._texts[(r, exp)] = out.value
            self._misses[(r, exp)] = misses
            if exp == self.EXPERIMENTS[-1] and not any(
                    self._misses[(r, e)] for e in self.EXPERIMENTS):
                return [f"#{r}: cold pass computed nothing through the store"]
            return []
        problems = []
        if out.value != self._texts.get((r, exp)):
            problems.append(f"#{r} {exp}: warm text differs from cold text")
        if misses:
            problems.append(f"#{r} {exp}: warm pass recomputed {misses} "
                            f"stored products")
        return problems

    def _remove_store(self):
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def end_round(self):
        self._remove_store()
        self._ctx = None

    def close(self):
        self.end_round()
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    @property
    def native_jobs(self) -> int:
        return 0


WORKLOADS = {
    w.name: w for w in (ContinualRigid, NativePaper, FaultedElastic,
                        ReportWarm)
}
