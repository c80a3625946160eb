"""Project width validation where the spec first meets a machine.

A project whose nominal width (or elastic ``max_width``) exceeds the
target machine's CPU count must fail immediately — at job
materialization and controller construction — with an error naming the
machine and its capacity, not deep inside the engine.
"""

from __future__ import annotations

import pytest

from repro.core.controller import InterstitialController
from repro.errors import ConfigurationError, ValidationError
from repro.jobs import InterstitialProject
from repro.machines import Machine


@pytest.fixture
def machine() -> Machine:
    return Machine(name="SmallBox", cpus=32, clock_ghz=1.0)


def _project(**overrides) -> InterstitialProject:
    kwargs = dict(n_jobs=4, cpus_per_job=16, runtime_1ghz=100.0,
                  name="widths")
    kwargs.update(overrides)
    return InterstitialProject(**kwargs)


def test_valid_widths_pass(machine) -> None:
    _project().validate_for(machine)
    _project(min_width=4, max_width=32).validate_for(machine)
    job = _project().make_job(machine)
    assert job.cpus == 16


def test_nominal_width_beyond_machine(machine) -> None:
    project = _project(cpus_per_job=64)
    with pytest.raises(ValidationError) as excinfo:
        project.validate_for(machine)
    # The error names the machine, its capacity and the offending width.
    message = str(excinfo.value)
    assert "SmallBox" in message
    assert "32" in message
    assert "64" in message
    with pytest.raises(ValidationError):
        project.make_job(machine)


def test_make_jobs_validates_once_and_keeps_the_error(machine) -> None:
    project = _project(cpus_per_job=64)
    with pytest.raises(
        ValidationError,
        match=r"requires jobs of 64 CPUs but SmallBox has only 32",
    ):
        project.make_jobs(machine, 5)
    calls = []

    class Counting(InterstitialProject):
        def validate_for(self, target):
            calls.append(target)
            super().validate_for(target)

    jobs = Counting(n_jobs=4, cpus_per_job=16, runtime_1ghz=100.0).make_jobs(
        machine, 5
    )
    assert len(jobs) == 5 and calls == [machine]


def test_elastic_max_width_beyond_machine(machine) -> None:
    project = _project(min_width=4, max_width=64)
    with pytest.raises(ValidationError, match="SmallBox"):
        project.validate_for(machine)


def test_controller_construction_validates_width(machine) -> None:
    with pytest.raises(ConfigurationError, match="SmallBox"):
        InterstitialController(machine, _project(cpus_per_job=64))
    # The elastic range is checked too, even though the nominal fits.
    with pytest.raises(ConfigurationError, match="SmallBox"):
        InterstitialController(
            machine, _project(min_width=4, max_width=64)
        )
