"""Interstitial project specification.

The paper defines an interstitial project as "a fixed number of identical
jobs that in turn consist of a fixed number of CPUs and a fixed run time"
(§3).  Runtimes are specified normalized to a 1 GHz processor so projects
are comparable across machines with different clock speeds, and project
*size* is measured in peta-cycles (1e15 clock ticks):

    size = n_jobs * cpus_per_job * runtime@1GHz * 1e9 cycles

e.g. the paper's 7.7 peta-cycle project is 64 000 single-CPU jobs of
120 s @ 1 GHz each (64000 * 1 * 120 * 1e9 = 7.68e15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.errors import ValidationError
from repro.jobs.job import Job, JobKind
from repro.units import GHZ, PETA, normalize_runtime

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.machine import Machine


@dataclass(frozen=True)
class InterstitialProject:
    """A fixed batch of identical small jobs to run in the interstices.

    Parameters
    ----------
    n_jobs:
        Number of identical jobs in the project.
    cpus_per_job:
        CPUs per interstitial job.  The paper studies 1..32 and recommends
        keeping this small relative to the machine's typical free capacity
        to limit breakage.
    runtime_1ghz:
        Per-job runtime in seconds, normalized to a 1 GHz processor.  On a
        machine with clock ``C`` GHz the job actually runs
        ``runtime_1ghz / C`` seconds.
    name:
        Optional label used in reports.
    user, group:
        Accounting identity under which the interstitial jobs are charged.
    min_width, max_width:
        Optional elastic width range (:mod:`repro.elastic`, DESIGN §16).
        When set, both must be set and satisfy
        ``0 < min_width <= cpus_per_job <= max_width``; elastic
        controllers then mold/resize jobs within the range while rigid
        controllers keep using ``cpus_per_job`` unchanged.
    """

    n_jobs: int
    cpus_per_job: int
    runtime_1ghz: float
    name: str = "interstitial"
    user: str = "interstitial"
    group: str = "interstitial"
    min_width: Optional[int] = None
    max_width: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_jobs <= 0:
            raise ValidationError(f"n_jobs must be positive, got {self.n_jobs}")
        if self.cpus_per_job <= 0:
            raise ValidationError(
                f"cpus_per_job must be positive, got {self.cpus_per_job}"
            )
        if not math.isfinite(self.runtime_1ghz) or self.runtime_1ghz <= 0:
            raise ValidationError(
                f"runtime_1ghz must be positive and finite, "
                f"got {self.runtime_1ghz}"
            )
        if (self.min_width is None) != (self.max_width is None):
            raise ValidationError(
                "min_width and max_width must be set together "
                f"(got min={self.min_width!r}, max={self.max_width!r})"
            )
        if self.min_width is not None and self.max_width is not None:
            if not 0 < self.min_width <= self.cpus_per_job <= self.max_width:
                raise ValidationError(
                    f"width range must satisfy 0 < min_width <= "
                    f"cpus_per_job <= max_width, got min={self.min_width} "
                    f"cpus_per_job={self.cpus_per_job} max={self.max_width}"
                )

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> float:
        """Total project work in clock cycles."""
        return self.n_jobs * self.cpus_per_job * self.runtime_1ghz * GHZ

    @property
    def peta_cycles(self) -> float:
        """Total project work in peta-cycles (the paper's size unit)."""
        return self.cycles / PETA

    def runtime_on(self, machine: "Machine") -> float:
        """Per-job runtime in seconds on ``machine``'s clock."""
        return normalize_runtime(self.runtime_1ghz, machine.clock_ghz)

    @classmethod
    def from_peta_cycles(
        cls,
        peta: float,
        cpus_per_job: int,
        runtime_1ghz: float,
        name: str = "interstitial",
        user: str = "interstitial",
        group: str = "interstitial",
    ) -> "InterstitialProject":
        """Build a project of (approximately) ``peta`` peta-cycles.

        The job count is rounded to the nearest integer; the realized
        :attr:`peta_cycles` may therefore differ slightly from ``peta``.
        """
        if peta <= 0:
            raise ValidationError(f"peta must be positive, got {peta}")
        per_job = cpus_per_job * runtime_1ghz * GHZ
        n_jobs = max(1, round(peta * PETA / per_job))
        return cls(
            n_jobs=n_jobs,
            cpus_per_job=cpus_per_job,
            runtime_1ghz=runtime_1ghz,
            name=name,
            user=user,
            group=group,
        )

    def width_range(self) -> Tuple[int, int]:
        """Effective ``(min, max)`` job width: the declared elastic
        range, or the degenerate rigid ``(cpus_per_job, cpus_per_job)``."""
        if self.min_width is not None and self.max_width is not None:
            return (self.min_width, self.max_width)
        return (self.cpus_per_job, self.cpus_per_job)

    def validate_for(self, machine: "Machine") -> None:
        """Reject widths the target machine cannot seat.

        Raises
        ------
        ValidationError
            When ``cpus_per_job`` (or the elastic ``max_width``) exceeds
            ``machine.cpus``.  Checked where the spec first meets a
            machine — job materialization and controller construction —
            so a too-wide project fails immediately with a clear error
            instead of deep inside the engine.
        """
        widest = max(self.cpus_per_job, self.max_width or 0)
        if widest > machine.cpus:
            raise ValidationError(
                f"project {self.name!r} requires jobs of {widest} CPUs "
                f"but {machine.name} has only {machine.cpus}; shrink "
                f"cpus_per_job/max_width or pick a larger machine"
            )

    # ------------------------------------------------------------------
    # Job materialization
    # ------------------------------------------------------------------
    def make_job(self, machine: "Machine", submit_time: float = 0.0) -> Job:
        """Create one interstitial job sized for ``machine``.

        Interstitial runtimes have zero variance (paper §4) and the
        controller knows them exactly, so ``estimate == runtime``.
        """
        return self.make_jobs(machine, 1, submit_time)[0]

    def make_jobs(
        self, machine: "Machine", count: int, submit_time: float = 0.0
    ) -> List[Job]:
        """Create ``count`` identical interstitial jobs for ``machine``,
        validating the spec against the machine once per call."""
        self.validate_for(machine)
        if count <= 0:
            return []
        runtime = self.runtime_on(machine)
        first = Job(
            cpus=self.cpus_per_job,
            runtime=runtime,
            estimate=runtime,
            submit_time=submit_time,
            user=self.user,
            group=self.group,
            kind=JobKind.INTERSTITIAL,
        )
        return [first] + first.clones(count - 1)

    def iter_jobs(
        self, machine: "Machine", submit_time: float = 0.0
    ) -> Iterator[Job]:
        """Yield all :attr:`n_jobs` jobs of the project lazily."""
        for _ in range(self.n_jobs):
            yield self.make_job(machine, submit_time)

    def describe(self) -> str:
        """Human-readable one-line summary used in benchmark tables."""
        return (
            f"{self.name}: {self.n_jobs} jobs x {self.cpus_per_job} CPU x "
            f"{self.runtime_1ghz:.0f}s@1GHz = {self.peta_cycles:.3g} PC"
        )
