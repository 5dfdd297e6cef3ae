"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass
else:
    # "ci" is fully derandomized: the same examples every run, no shrink
    # timing flakiness — select it with HYPOTHESIS_PROFILE=ci (the CI
    # workflow does). "dev" keeps random exploration but drops the
    # per-example deadline, which misfires on cold numpy imports.
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.fields.analytic import GaussianBump, GaussianMixtureField, PeaksField
from repro.fields.base import sample_grid
from repro.fields.greenorbs import GreenOrbsLightField
from repro.geometry.primitives import BoundingBox


@pytest.fixture(autouse=True)
def _no_tracemalloc_leak():
    """Stop tracemalloc after any test that turned it on.

    :class:`repro.obs.profile.PhaseProfiler` starts tracemalloc and has
    no teardown hook (its lifetime is the engine's); left running
    it would roughly double allocation cost for every test that follows.
    The check is one ``is_tracing()`` call when nothing was started.
    """
    import tracemalloc

    started_before = tracemalloc.is_tracing()
    yield
    if tracemalloc.is_tracing() and not started_before:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def unit_region():
    return BoundingBox.square(100.0)


@pytest.fixture
def small_region():
    return BoundingBox.square(20.0)


@pytest.fixture
def bump_field():
    """A two-bump analytic field with known derivatives."""
    return GaussianMixtureField(
        [
            GaussianBump(cx=30.0, cy=40.0, sigma=8.0, amplitude=5.0),
            GaussianBump(cx=70.0, cy=60.0, sigma=12.0, amplitude=3.0),
        ],
        baseline=1.0,
    )


@pytest.fixture
def bump_reference(bump_field, unit_region):
    """The bump field sampled on a coarse grid (fast tests)."""
    return sample_grid(bump_field, unit_region, 51)


@pytest.fixture
def peaks_reference():
    field = PeaksField(side=100.0)
    return sample_grid(field, field.region, 51)


@pytest.fixture
def greenorbs_field():
    return GreenOrbsLightField(side=100.0, seed=7)


@pytest.fixture
def greenorbs_reference(greenorbs_field):
    return sample_grid(greenorbs_field, greenorbs_field.region, 51, t=600.0)
