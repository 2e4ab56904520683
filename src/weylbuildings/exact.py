"""Exact-rational plumbing shared by the cochain and Hecke layers.

``SparseMap`` is the one finitely supported function to Fraction: chamber,
vertex and edge cochains and Hecke elements all store their values in
one.  ``fraction_json`` is the one {num, den} encoder.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable


class SparseMap(tuple):
    """Frozen finite map to Fraction, stored as the tuple of its pairs.

    Values become Fractions, zero entries are dropped, a repeated key
    raises ValueError, and the pairs are sorted by ``order(key)``; without
    ``order`` they keep the given order, which copying and unpickling use.
    Being that tuple, it compares and hashes on the ordered pairs and
    keeps its owners' tuple-of-pairs fields; a dict beside the tuple
    answers ``lookup`` in O(1).
    """

    def __new__(cls, pairs: Iterable[tuple[Hashable, Fraction]], order: Callable | None = None):
        index: dict[Hashable, Fraction] = {}
        for key, x in pairs:
            if key in index:
                raise ValueError(f"duplicate key: {key!r}")
            index[key] = Fraction(x)
        keys = index if order is None else sorted(index, key=order)
        self = super().__new__(cls, ((k, index[k]) for k in keys if index[k]))
        self._index = dict(self)
        return self

    def support(self) -> tuple:
        return tuple(self._index)

    def lookup(self, key: Hashable) -> Fraction:
        """The value at a key; a key outside the support reads as 0."""
        return self._index.get(key, Fraction(0))


def fraction_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}
