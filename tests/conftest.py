"""Shared fixtures: the expensive chamber balls are built once per session."""

import pytest

from weylbuildings import PrimeContext, ball


@pytest.fixture(scope="session")
def ctx22() -> PrimeContext:
    return PrimeContext(p=2, n=2)


@pytest.fixture(scope="session")
def ctx32() -> PrimeContext:
    return PrimeContext(p=3, n=2)


@pytest.fixture(scope="session")
def ctx23() -> PrimeContext:
    return PrimeContext(p=2, n=3)


@pytest.fixture(scope="session")
def tree_p2(ctx22):
    """Radius-8 chamber ball of the p = 2 tree (1021 chambers)."""
    return ball(ctx22, 8)


@pytest.fixture(scope="session")
def tree_p3(ctx32):
    """Radius-8 chamber ball of the p = 3 tree (19681 chambers)."""
    return ball(ctx32, 8)


@pytest.fixture(scope="session")
def gl3_p2(ctx23):
    """Radius-3 chamber ball for n = 3, p = 2 (103 chambers)."""
    return ball(ctx23, 3)
