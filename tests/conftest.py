"""Shared fixtures: problem instances and constants computed once per session."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from attainkit.classify import ConstantSet, resolve_constants
from attainkit.constants import gns_constant_estimate
from attainkit.params import ProblemParams

settings.register_profile(
    "kit",
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kit")


@pytest.fixture(scope="session")
def crit5() -> ProblemParams:
    return ProblemParams.local_critical(N=5, p=2.0, gamma=2.5, alpha=1.0)


@pytest.fixture(scope="session")
def sub224() -> ProblemParams:
    return ProblemParams.local(N=2, p=2.0, q=4.0, gamma=1.5, alpha=1.0)


@pytest.fixture(scope="session")
def constants_crit5(crit5) -> ConstantSet:
    return resolve_constants(crit5)


@pytest.fixture(scope="session")
def constants_crit3() -> ConstantSet:
    return resolve_constants(
        ProblemParams.local_critical(N=3, p=2.0, gamma=3.0, alpha=1.0))


@pytest.fixture(scope="session")
def gns_224():
    """The converged interpolation-constant estimate for (N, p, q) = (2, 2, 4)."""
    return gns_constant_estimate(2, 2.0, 4.0)


@pytest.fixture(scope="session")
def constants_sub224(gns_224) -> ConstantSet:
    return ConstantSet(interpolation=gns_224)
