"""Exact plumbing shared by the Coxeter, building, cochain and Hecke layers.

``SparseMap`` is the one finitely supported function to Fraction: chamber,
vertex and edge cochains and Hecke elements all store their values in
one.  ``_fraction`` and ``_int`` are the one checks of a rational and of
an integer argument, ``_tuple`` the one read of a sequence argument, and
``_field`` of an argument's record class.
``fraction_json`` is the one {num, den} encoder.
``row_reduce`` is the one Gauss-Jordan elimination, over Q; a building
face's chamber star is written out without it, as the kernels of the
functionals that vanish on the face's line.
``Value`` is the one base of the library's immutable records: slotted,
frozen, compared and hashed on a per-class key, with no code generated
when a class is defined; ``_restore`` is the one constructor that builds
one without its checks.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Mapping


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a ``Value``."""


def _restore(cls: type, state: tuple) -> "Value":
    """The one unchecked constructor: a ``Value`` of its fields, in
    ``__slots__`` order, with no ``__init__``; for unpickling and for records
    a kernel builds of parts it made itself, a ball, its chambers and its
    faces among them.  Every caller gives one value per slot, each set
    through the class's own slot setter (``_setters``); a slot built on its
    first read, as a ball's chambers are, is given None."""
    self = object.__new__(cls)
    for put, x in zip(cls._setters, state):
        put(self, x)
    return self


class Value:
    """An immutable record whose fields are its ``__slots__``, in the order
    of its ``__init__`` parameters, which sets each with
    ``object.__setattr__`` or ``_set``.  Each class keeps the ``__set__``
    of its slots, in that order, as ``_setters``: ``_set`` and ``_restore``
    call them directly, with no lookup of a field by name.

    ``==`` holds between instances of one class with equal keys, the tuple
    of the fields not named in ``_uncompared``; the hash is that of the
    key.  ``repr`` shows the fields not named in ``_hidden`` as
    ``Name(field=value, ...)``.  Assignment and deletion raise
    ``FrozenInstanceError``; ``_restore`` builds one without ``__init__``.
    A class on a hot path may define ``__eq__`` and ``__hash__`` on its
    fields directly, with the same values, and may keep its hash in a slot
    named in both ``_uncompared`` and ``_hidden``, filled when the value is
    built, with the same value.
    """

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        compared = [f for f in cls.__slots__ if f not in cls._uncompared]
        get = attrgetter(*compared)
        cls._key = (lambda self: get(self)) if len(compared) > 1 else (lambda self: (get(self),))
        cls._shown = tuple(f for f in cls.__slots__ if f not in cls._hidden)
        cls._setters = tuple(cls.__dict__[f].__set__ for f in cls.__slots__)

    def _set(self, *values: object) -> None:
        """Set the fields to the values, one per slot, in ``__slots__`` order,
        through the slots' own setters (``_setters``)."""
        for put, x in zip(self._setters, values):
            put(self, x)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return _restore, (type(self), tuple(getattr(self, f) for f in self.__slots__))


class SparseMap(tuple):
    """Frozen finite map to Fraction, stored as the tuple of its pairs.

    Values must be ints or Fractions and become Fractions; zero entries
    are dropped, a repeated key or one ``order`` cannot read raises
    ValueError, and the pairs are sorted by ``order(key)``; without
    ``order`` they keep the given order, which copying and unpickling use.
    Pairs that are not an iterable of pairs raise ValueError naming the
    owner's field, ``name`` (``_pairs``).
    Being that tuple, it compares and hashes on the ordered pairs and keeps
    its owners' tuple-of-pairs fields; a dict beside the tuple, built with
    the map or, for one from ``_ordered``, on its first lookup, answers
    ``lookup`` in O(1).
    """

    def __new__(cls, pairs: Iterable[tuple[Hashable, Fraction]], order: Callable | None = None,
                name: str = "values"):
        index: dict[Hashable, Fraction] = {}
        for key, x in _pairs(pairs, name):
            size = len(index)
            index[key] = _fraction(x, "values")
            if len(index) == size:
                raise ValueError(f"duplicate key: {key!r}")
        return cls._of(index, order)

    @classmethod
    def _of(cls, index: dict[Hashable, Fraction], order: Callable | None = None) -> "SparseMap":
        """The map of a dict whose values are already Fractions; the dict
        becomes the lookup index, so each key is hashed only where the
        caller built it (and once more if its value is zero)."""
        for key in [k for k, x in index.items() if not x]:
            del index[key]
        pairs = index.items()
        if order is not None:
            try:
                pairs = sorted(pairs, key=lambda kx: order(kx[0]))
            except AttributeError as e:  # order read an attribute the key lacks
                raise ValueError(f"key of the wrong type: {e.obj!r}") from None
        self = super().__new__(cls, pairs)
        self._index = index
        return self

    @classmethod
    def _ordered(cls, pairs: Iterable[tuple[Hashable, Fraction]]) -> "SparseMap":
        """The map of pairs a kernel built itself: distinct keys, nonzero
        Fraction values, in the owner's order.  Nothing is checked or
        hashed here; ``lookup`` builds the index on its first call."""
        return super().__new__(cls, pairs)

    def support(self) -> tuple:
        return tuple(k for k, _ in self)

    def lookup(self, key: Hashable, kind: type) -> Fraction:
        """The value at a key: 0 for a key of the owner's kind outside the
        support, and ValueError naming any other key.  The kind is checked
        only when the key misses."""
        try:
            index = self._index
        except AttributeError:  # built by ``_ordered``: indexed on its first lookup
            index = self._index = dict(self)
        try:
            x = index.get(key)
        except TypeError:  # an unhashable key is of no kind a map holds
            x = None
        if x is None:
            if not isinstance(key, kind):
                raise ValueError(f"key of the wrong type: {key!r}")
            return Fraction(0)
        return x


def _pairs(pairs: Iterable[tuple], name: str) -> list[tuple]:
    """The items of ``pairs`` as (key, value) tuples, through the one
    failed-unpack path: pairs that are not iterable, or an item that is
    not a pair, raise ValueError naming the owner's field, ``name``."""
    try:
        return [(key, x) for key, x in pairs]
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be (element, coefficient) pairs, got {pairs!r}") from None


def _fraction(x: int | Fraction, name: str) -> Fraction:
    """x as a Fraction.  A float or a string would convert, but not to the
    value meant, and a bool is not a number, so anything but an int or a
    Fraction raises ValueError."""
    if type(x) is Fraction:
        return x
    if type(x) is not int:
        raise ValueError(f"{name} must be int or Fraction, got {x!r}")
    return Fraction(x)


def _int(value: int, name: str, least: int | None = None) -> int:
    """The value if it is an int (a bool is not) of at least ``least``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return value


def _tuple(items: Iterable, name: str, what: str) -> tuple:
    """The items as a tuple; ValueError naming the parameter when they
    cannot be iterated, caught at the first iteration, with no check of
    their kind beside it."""
    try:
        return tuple(items)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of {what}, got {items!r}") from None


def _field(value: object, cls: type, name: str, param: str) -> object:
    """The field of a value of the class, read through the class's own
    slot, which refuses a value of any other class: ValueError naming the
    parameter.  The read a kernel needs anyway is the check, with no
    ``isinstance`` beside it."""
    try:
        return cls.__dict__[name].__get__(value)
    except TypeError:
        raise ValueError(f"{param} must be a {cls.__name__}, got {value!r}") from None


def fraction_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def row_reduce(rows: Iterable[Mapping[int, int | Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form over Q of the span of sparse rows.

    A row maps columns to values; zero values may be left out.  The result
    maps each pivot column, in increasing order, to its row: 1 at the
    pivot, nothing at smaller columns or at the other pivots, no stored
    zeros.  The reduced echelon form of a row space is unique, so neither
    the pivots nor the rows depend on the order of the input.  The rank is
    the number of pivots; each free column f gives the kernel vector
    e_f - sum over pivots c of row_c[f] e_c (Cohen, GTM 138, 2.3.1).
    """

    def subtract(row: dict, factor: Fraction, pivot_row: dict) -> None:
        for k, y in pivot_row.items():
            x = row.get(k, 0) - factor * y
            if x:
                row[k] = x
            else:
                row.pop(k, None)

    reduced: dict[int, dict] = {}
    for given in rows:
        row = {c: x for c, x in given.items() if x}
        for c in [c for c in row if c in reduced]:
            subtract(row, row[c], reduced[c])
        if not row:
            continue
        lead = min(row)
        inv = 1 / Fraction(row[lead])
        row = {k: x * inv for k, x in row.items()}
        for other in reduced.values():
            if lead in other:
                subtract(other, other[lead], row)
        reduced[lead] = row
    return dict(sorted(reduced.items()))
