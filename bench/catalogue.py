"""Request catalogues of the two cold CLI workloads.

A catalogue is a tuple of slots; a slot is a tuple of argv variants whose
costs are close to each other.  One cycle of a workload draws one variant
per slot from the seeded generator and shuffles the cycle, so every seed
sends the same mix of costs while the exact requests differ.  Every
variant's stdout digest is recorded in ``expected.json`` by ``record.py``.
"""

from __future__ import annotations

import random

HECKE_Q = ("2", "3", "5", "7", "3/2", "5/2", "7/3")


def _json(*args: object) -> tuple[str, ...]:
    return tuple(str(a) for a in args) + ("--format", "json")


def growth(label: str, k: int) -> tuple[str, ...]:
    return _json("growth", "--type", label, "--K", k)


def period(label: str, q: str, k: int) -> tuple[str, ...]:
    return _json("period", "--type", label, "--q", q, "--K", k)


def hecke(label: str, q: str) -> tuple[str, ...]:
    return _json("hecke", "--type", label, "--q", q)


def ball(n: int, p: int, r: int) -> tuple[str, ...]:
    return _json("ball", "--n", n, "--p", p, "--R", r)


def harmonic(n: int, p: int, r: int) -> tuple[str, ...]:
    return _json("harmonic", "--n", n, "--p", p, "--R", r)


def boundary(p: int, r: int, seed: int) -> tuple[str, ...]:
    return _json("boundary", "--p", p, "--R", r, "--seed", seed)


def _series(label: str, k: int, qs: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """growth and period share the BFS that dominates their cost."""
    return (growth(label, k),) + tuple(period(label, q, k) for q in qs)


def _hecke(labels: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    return tuple(hecke(label, q) for label in labels for q in HECKE_Q)


# Each catalogue has three cost tiers: a body of requests that cost about
# the same (the first two thirds of a cycle, where the median falls), a
# heavy tier of requests that cost about the same (where the tail
# percentile falls, near its middle) and one top request.  A percentile
# that lands where costs jump between tiers moves with noise.

# Affine types from A1~ to E8~: the large exceptional types at small K, the
# A types at large K, integer q for period and rational q for hecke.
CLI_WEYL = (
    # top
    _series("E8~", 6, ("2", "3", "5")),
    # heavy: the Cayley BFS of a larger type, E7~ at 1-1.15 s above the
    # others at 0.8-1 s
    _series("E7~", 6, ("2", "3")),
    _series("E6~", 7, ("2", "3")),
    _series("D4~", 12, ("2", "3")),
    _series("D5~", 9, ("2", "3")),
    _series("A3~", 22, ("2", "3")),
    _series("A4~", 12, ("2", "3")),
    # between the tiers
    (growth("F4~", 8), growth("B3~", 12), growth("C3~", 12), growth("A2~", 30),
     growth("G2~", 30), growth("C2~", 30), period("B3~", "4", 12), period("C3~", "4", 12)),
    _hecke(("E6~", "E7~", "E8~")),
    # body: 0.15-0.2 s, mostly interpreter start and import
    _series("A1~", 80, ()) + tuple(period("A1~", q, 60) for q in ("2", "3", "5")),
    _series("A1~", 80, ()) + tuple(period("A1~", q, 60) for q in ("2", "3", "5")),
    tuple(period("A2~", q, 20) for q in ("2", "3")),
    _hecke(("A1~",)),
    _hecke(("A1~",)),
    _hecke(("A2~",)),
    _hecke(("A2~",)),
    _hecke(("C2~", "G2~")),
    _hecke(("C2~", "G2~")),
    _hecke(("A3~", "B3~", "C3~")),
    _hecke(("A3~", "B3~", "C3~")),
    _hecke(("A4~", "B4~", "C4~")),
    _hecke(("A4~", "B4~", "C4~")),
    _hecke(("D4~", "F4~")),
    _hecke(("D4~", "F4~")),
)

# Lattice balls from hundreds to about 20k chambers, plus the harmonic and
# boundary checks; the Weyl group side of each request is tiny.
CLI_BUILDING = (
    # top: the ~20k chamber ball
    (ball(2, 3, 8),),
    # heavy: 0.5-0.65 s, boundary checks on the deepest trees and the
    # larger balls; the p = 5 boundary checks, 0.4-0.45 s, sit at its
    # bottom, away from the tail percentile
    tuple(boundary(2, 4, s) for s in range(5)),
    tuple(boundary(3, 3, s) for s in range(5)),
    (ball(2, 2, 9), ball(3, 3, 4)),
    tuple(boundary(2, 4, s) for s in range(5)) + tuple(boundary(3, 3, s) for s in range(5)),
    tuple(boundary(5, 2, s) for s in range(5)),
    # body: 0.15-0.2 s
    (ball(2, 2, 4), ball(2, 3, 4), ball(2, 5, 3)),
    (ball(2, 2, 5), ball(2, 3, 3), ball(2, 5, 2)),
    (ball(2, 2, 6), ball(2, 3, 5)),
    (ball(3, 2, 2), ball(3, 2, 3), ball(3, 3, 2)),
    (ball(3, 2, 2), ball(3, 2, 3), ball(3, 3, 2)),
    (harmonic(2, 2, 4), harmonic(2, 3, 4), harmonic(2, 5, 3)),
    (harmonic(2, 2, 6), harmonic(2, 3, 5)),
    (harmonic(3, 2, 2), harmonic(3, 2, 3), harmonic(3, 3, 2)),
    (harmonic(3, 2, 3), harmonic(3, 3, 2)),
    (harmonic(2, 2, 5), harmonic(2, 3, 3), harmonic(2, 5, 2)),
    (ball(2, 2, 6), ball(2, 3, 4), ball(2, 5, 3)),
    (ball(2, 2, 4), ball(2, 3, 3), ball(2, 5, 2)),
    (ball(3, 2, 3), ball(3, 3, 2)),
    (harmonic(2, 2, 4), harmonic(2, 3, 4), harmonic(2, 5, 3)),
    (harmonic(3, 2, 2), harmonic(3, 2, 3), harmonic(3, 3, 2)),
)

CATALOGUES = {"cli-weyl": CLI_WEYL, "cli-building": CLI_BUILDING}


def key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def variants(catalogue) -> list[tuple[str, ...]]:
    """Every distinct request a catalogue can send, in a stable order."""
    seen: dict[tuple[str, ...], None] = {}
    for slot in catalogue:
        for argv in slot:
            seen.setdefault(argv, None)
    return list(seen)


def draw_cycles(catalogue, seed: int, cycles: int) -> list[list[tuple[str, ...]]]:
    """The seeded request list: one variant per slot per cycle, shuffled."""
    rng = random.Random(seed)
    out = []
    for _ in range(cycles):
        cycle = [rng.choice(slot) for slot in catalogue]
        rng.shuffle(cycle)
        out.append(cycle)
    return out
