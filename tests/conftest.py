"""Shared fixtures: the expensive chamber balls, built once per session,
per-field digests that pin a value exactly, and a counter of class hashes."""

import hashlib
from collections.abc import Mapping

import pytest

from weylbuildings import Face, FlagChamber, LatticeClass, PrimeContext, ball


@pytest.fixture
def class_hash_calls(monkeypatch) -> list[int]:
    """``[count]`` of the ``LatticeClass.__hash__`` calls made since the test
    began; a test sets it back to 0 after its warm-up."""
    calls = [0]
    original = LatticeClass.__hash__

    def counted(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(LatticeClass, "__hash__", counted)
    return calls


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


def _plain(x):
    """Nested plain data for a library value; maps keep their iteration order."""
    if isinstance(x, LatticeClass):
        return ("class", x.hnf, x.valuation)
    if isinstance(x, (FlagChamber, Face)):
        return (type(x).__name__, tuple(_plain(c) for c in x.classes))
    if isinstance(x, PrimeContext):
        return ("ctx", x.p, x.n)
    if isinstance(x, Mapping):
        return ("map", tuple((_plain(k), _plain(v)) for k, v in x.items()))
    if isinstance(x, (tuple, list)):
        return type(x)(_plain(y) for y in x)
    return x


def _fields(value) -> dict[str, object]:
    return {name: _plain(getattr(value, name)) for name in type(value).__slots__}


@pytest.fixture(scope="session")
def field_values():
    """Field name -> the field's plain data, for every slot of a value, so
    that two values compare field by field, maps in their order."""
    return _fields


@pytest.fixture(scope="session")
def field_digests():
    """Field name -> short sha256 of the field's plain data, for every slot
    of a value: a change to any field, or to a map's order, shows."""

    def digests(value) -> dict[str, str]:
        return {
            name: hashlib.sha256(repr(plain).encode()).hexdigest()[:16]
            for name, plain in _fields(value).items()
        }

    return digests
