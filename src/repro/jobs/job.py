"""The batch-job model shared by native and interstitial work.

Jobs in the paper's setting are *rigid* (they require a fixed number of
CPUs), *non-preemptive* (once started they run to completion) and carry a
user-supplied *estimated* runtime that the scheduler must rely on even
though it usually grossly overestimates the actual runtime (the paper
reports median estimate 6 h vs. median actual 0.8 h on Blue Mountain).

The elastic subsystem (:mod:`repro.elastic`, DESIGN §16) relaxes
rigidity for interstitial jobs only: a job may carry a
``[min_cpus, max_cpus]`` width range.  A *moldable* job picks its width
once, at start, from free capacity (its bounds are then equal); a
*malleable* job additionally resizes while running — the engine shrinks
it to seat a blocked native and grows it back into idle capacity,
re-scaling the remaining runtime so CPU-seconds of work are conserved.
Native jobs are always rigid.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ValidationError

_job_counter = itertools.count(1)


class JobKind(enum.Enum):
    """Whether a job belongs to the machine's native workload or to an
    interstitial project."""

    NATIVE = "native"
    INTERSTITIAL = "interstitial"


class JobState(enum.Enum):
    """Lifecycle of a job inside the simulator."""

    CREATED = "created"
    QUEUED = "queued"
    RUNNING = "running"
    FINISHED = "finished"
    KILLED = "killed"


@dataclass
class Job:
    """A rigid, non-preemptive batch job.

    Parameters
    ----------
    cpus:
        Number of CPUs the job requires for its whole lifetime (rigid).
    runtime:
        Actual runtime in seconds.  Unknown to the scheduler until the job
        finishes; the simulator uses it to schedule the completion event.
    estimate:
        User-supplied runtime estimate in seconds.  This is the only
        runtime information the scheduler may use.  Must be ``>= runtime``
        (batch systems kill jobs at their wall-time limit, so the actual
        runtime can never exceed the estimate).
    submit_time:
        Simulated submission time in seconds.
    user, group:
        Accounting identifiers used by fair-share policies.
    kind:
        :class:`JobKind.NATIVE` or :class:`JobKind.INTERSTITIAL`.
    job_id:
        Unique identifier; auto-assigned when omitted.
    min_cpus, max_cpus:
        Optional elastic width bounds (:mod:`repro.elastic`).  ``None``
        (the default) means the job is rigid — today's behavior.  When
        set, both must be set and satisfy
        ``0 < min_cpus <= cpus <= max_cpus``; the engine may then
        resize the job between the bounds while it runs (equal bounds
        pin a molded width that can no longer change).

    Attributes
    ----------
    start_time, finish_time:
        Filled in by the simulator when the job starts / finishes.
    width_history:
        ``(time, cpus)`` segments of an elastic job's width over its
        run, maintained by the engine on resize; ``None`` for jobs that
        never resized (occupancy profiles then use the constant
        ``cpus``).
    """

    cpus: int
    runtime: float
    estimate: float
    submit_time: float = 0.0
    user: str = "user0"
    group: str = "group0"
    kind: JobKind = JobKind.NATIVE
    job_id: int = field(default_factory=lambda: next(_job_counter))
    state: JobState = field(default=JobState.CREATED, compare=False)
    start_time: Optional[float] = field(default=None, compare=False)
    finish_time: Optional[float] = field(default=None, compare=False)
    min_cpus: Optional[int] = None
    max_cpus: Optional[int] = None
    width_history: Optional[List[Tuple[float, int]]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.cpus, int) or isinstance(self.cpus, bool):
            raise ValidationError(f"cpus must be an int, got {self.cpus!r}")
        if self.cpus <= 0:
            raise ValidationError(f"cpus must be positive, got {self.cpus}")
        for name in ("runtime", "estimate", "submit_time"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.runtime < 0.0:
            raise ValidationError(f"runtime must be >= 0, got {self.runtime}")
        if self.estimate < self.runtime:
            raise ValidationError(
                f"estimate ({self.estimate}) must be >= runtime "
                f"({self.runtime}): batch systems kill jobs at their "
                "wall-time limit"
            )
        if self.submit_time < 0.0:
            raise ValidationError(
                f"submit_time must be >= 0, got {self.submit_time}"
            )
        if (self.min_cpus is None) != (self.max_cpus is None):
            raise ValidationError(
                "min_cpus and max_cpus must be set together "
                f"(got min={self.min_cpus!r}, max={self.max_cpus!r})"
            )
        if self.min_cpus is not None and self.max_cpus is not None:
            for name in ("min_cpus", "max_cpus"):
                value = getattr(self, name)
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValidationError(
                        f"{name} must be an int, got {value!r}"
                    )
            if not 0 < self.min_cpus <= self.cpus <= self.max_cpus:
                raise ValidationError(
                    f"elastic width bounds must satisfy 0 < min_cpus <= "
                    f"cpus <= max_cpus, got min={self.min_cpus} "
                    f"cpus={self.cpus} max={self.max_cpus}"
                )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def is_native(self) -> bool:
        """True for jobs belonging to the machine's native workload."""
        return self.kind is JobKind.NATIVE

    @property
    def is_interstitial(self) -> bool:
        """True for jobs belonging to an interstitial project."""
        return self.kind is JobKind.INTERSTITIAL

    @property
    def elastic(self) -> bool:
        """True when the job carries elastic width bounds."""
        return self.min_cpus is not None

    @property
    def malleable(self) -> bool:
        """True when the engine may still change the job's width (a
        non-degenerate elastic range; molded jobs have equal bounds)."""
        return (
            self.min_cpus is not None
            and self.max_cpus is not None
            and self.min_cpus < self.max_cpus
        )

    @property
    def area(self) -> float:
        """CPU-seconds of actual work (cpus x runtime).

        For a resized malleable job this is the area of the *final*
        width extended over the whole runtime — use
        :attr:`width_history` (via ``SimResult.busy_profile``) for the
        true occupancy of elastic runs.
        """
        return self.cpus * self.runtime

    @property
    def estimated_area(self) -> float:
        """CPU-seconds of requested work (cpus x estimate)."""
        return self.cpus * self.estimate

    @property
    def wait_time(self) -> float:
        """Seconds spent queued (start - submit).

        Raises
        ------
        ValueError
            If the job has not started yet.
        """
        if self.start_time is None:
            raise ValueError(f"job {self.job_id} has not started")
        return self.start_time - self.submit_time

    @property
    def expansion_factor(self) -> float:
        """The paper's EF = 1 + wait / runtime.

        For zero-runtime jobs the expansion factor is defined as 1.0 when
        the job did not wait and ``inf`` otherwise.
        """
        wait = self.wait_time
        if self.runtime == 0.0:
            return 1.0 if wait == 0.0 else math.inf
        return 1.0 + wait / self.runtime

    @property
    def estimated_finish(self) -> float:
        """Scheduler-visible completion time (start + estimate).

        Only meaningful once the job has started.
        """
        if self.start_time is None:
            raise ValueError(f"job {self.job_id} has not started")
        return self.start_time + self.estimate

    def copy_unscheduled(self) -> "Job":
        """Return a pristine copy of the job with scheduling state cleared.

        Used to replay the same trace through several simulator
        configurations without cross-contaminating results.
        """
        return Job(
            cpus=self.cpus,
            runtime=self.runtime,
            estimate=self.estimate,
            submit_time=self.submit_time,
            user=self.user,
            group=self.group,
            kind=self.kind,
            job_id=self.job_id,
            min_cpus=self.min_cpus,
            max_cpus=self.max_cpus,
        )

    def clones(self, count: int) -> List["Job"]:
        """``count`` unscheduled copies of this job with fresh ids.

        The copies reuse this job's validated values and skip
        ``__post_init__``.  Fields are assigned in declaration order so
        the copies keep the compact key-sharing dict ``__init__`` gives.
        """
        out: List[Job] = []
        for _ in range(count):
            job = object.__new__(Job)
            job.cpus = self.cpus
            job.runtime = self.runtime
            job.estimate = self.estimate
            job.submit_time = self.submit_time
            job.user = self.user
            job.group = self.group
            job.kind = self.kind
            job.job_id = next(_job_counter)
            job.state = JobState.CREATED
            job.start_time = None
            job.finish_time = None
            job.min_cpus = self.min_cpus
            job.max_cpus = self.max_cpus
            job.width_history = None
            out.append(job)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.job_id}, kind={self.kind.value}, "
            f"cpus={self.cpus}, runtime={self.runtime:.0f}s, "
            f"estimate={self.estimate:.0f}s, submit={self.submit_time:.0f}s, "
            f"state={self.state.value})"
        )
