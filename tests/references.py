"""Reference routes that check the library by another way than its own.

    from references import full_rank, reference_defect, with_distance
    from references import dense_product, reduced, reflections, word_matrix

``full_rank`` is the exact rank of a ball's finite-support rigidity
system: the route that ``harmonic.finite_support_rigidity`` answered with
before its unit-triangular certificate became the one route.
``reference_defect`` and ``reference_min_distance_chamber`` are the face
queries as they were before the ball's distance profile: each works a
face's shape out again from its members.  ``with_distance`` rebuilds a
ball with other distances, which the references still read and the
library refuses.  The dense products work in the reflection
representation with plain integer matrices: ``reflections`` are the
generators' matrices, read off the Cartan matrix, ``matmul`` and
``word_matrix`` multiply them out, ``reduced`` draws a word the matrices
certify reduced, and ``dense_product`` multiplies Hecke combinations one
letter at a time.  The Tier-1 tests and ``tests/rows.py`` import them.
Stdlib and the package only; not a test module: the default collection
reads it for doctests only.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from weylbuildings.building import BallGraph, Face, FlagChamber
from weylbuildings.exact import row_reduce
from weylbuildings.harmonic import _ZERO, Cochain


def full_rank(graph) -> bool:
    """Whether the sparse reduced echelon form over Q of the rigidity
    system has a pivot in every column: one 0/1 row per interior face of
    the ball, one column per chamber at distance <= R - 1."""
    interior = [i for i, d in enumerate(graph.distance) if d <= graph.radius - 1]
    column_of = {i: j for j, i in enumerate(interior)}
    rows = (
        {column_of[i]: 1 for i in graph.faces[face] if i in column_of}
        for face in graph.interior_faces()
    )
    return len(row_reduce(rows)) == len(interior)


def reference_defect(f: Cochain, face: Face, graph: BallGraph) -> Fraction:
    """Sum of f over all p + 1 chambers containing an interior face.

    A rule-form f is summed in integers over the list of the members'
    distances, with one ``Fraction`` for a nonzero result; the harmonic
    case, a zero numerator, returns a shared ``Fraction(0)``.
    """
    members = graph.faces.get(face)
    if members is None or len(members) != graph.ctx.p + 1:
        raise ValueError("face is not interior to the ball")
    if f.values is not None:
        return sum((f.value_at_index(i, graph) for i in members), Fraction(0))
    # sum_i (-1/q)^d_i = (-1)^D sum_i (-q)^(D - d_i) / q^D with D = max d_i
    q, dist = f._rule_q(graph), graph.distance
    ds = [dist[i] for i in members]
    top = max(ds)
    num = sum([(-q) ** (top - d) for d in ds])
    if not num:
        return _ZERO
    return Fraction(-num if top % 2 else num, q**top)


def reference_min_distance_chamber(face: Face, graph: BallGraph) -> tuple[FlagChamber, int]:
    """The unique chamber over an interior face closest to the center.

    Asserts the sharp shape of the distance multiset: one chamber at the
    minimum delta and the remaining p at delta + 1; any other shape is
    reported as a failure, not returned.  A tied minimum fails that check,
    so the first minimizer found is the only one.
    """
    members = graph.faces.get(face)
    if members is None or len(members) != graph.ctx.p + 1:
        raise ValueError("face is not interior to the ball")
    dist = graph.distance
    low = min(members, key=dist.__getitem__)
    delta = dist[low]
    for i in members:
        if i != low and dist[i] != delta + 1:
            raise AssertionError(
                "distance multiset over a face must be one minimum and p at minimum + 1"
            )
    return graph.chambers[low], delta


def with_distance(g: BallGraph, distance) -> BallGraph:
    """The ball g rebuilt by keyword with other distances, every other shown
    field as it is; the hidden profile is the new graph's own."""
    fields = {name: getattr(g, name) for name in BallGraph._shown}
    return BallGraph(**{**fields, "distance": tuple(distance)})


# -- dense products in the reflection representation ------------------------------------


def reflections(d) -> list:
    """sigma_s: the identity but in row s, where column t holds delta_st - A[s][t]."""
    n = d.size
    return [
        tuple(tuple(int(i == t) - int(i == s) * d.cartan[s][t] for t in range(n)) for i in range(n))
        for s in range(n)
    ]


def matmul(a, b) -> tuple:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, c)) for c in cols) for row in a)


def word_matrix(mats, word) -> tuple:
    """The product of the matrices of the word's letters, read left to right."""
    n = len(mats)
    acc = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for s in word:
        acc = matmul(acc, mats[s])
    return acc


def descent(m, s) -> bool:
    """Whether s is a right descent of w: column s of w's matrix is negative."""
    return any(row[s] < 0 for row in m)


def reduced(mats, rng, size) -> list:
    """A word the matrices certify reduced: each letter is no right descent."""
    word, m = [], word_matrix(mats, ())
    while len(word) < size:
        s = rng.choice([s for s in range(len(mats)) if not descent(m, s)])
        word.append(s)
        m = matmul(m, mats[s])
    return word


def dense_product(mats, q, a, b) -> dict:
    """sum over (u, cu) of a and (w, cw) of b of cu cw e_u e_w, as {matrix:
    coefficient}, with a and b given as (reduced word, coefficient) pairs:
    e_u e_s is e_us when column s of u is positive, else (q - 1) e_u + q e_us."""
    out = defaultdict(Fraction)
    for u, cu in a:
        for w, cw in b:
            acc = {word_matrix(mats, u): cu * cw}
            for s in w:
                nxt = defaultdict(Fraction)
                for m, c in acc.items():
                    ms = matmul(m, mats[s])
                    if descent(m, s):
                        nxt[m] += (q - 1) * c
                        nxt[ms] += q * c
                    else:
                        nxt[ms] += c
                acc = nxt
            for m, c in acc.items():
                out[m] += c
    return {m: c for m, c in out.items() if c}
