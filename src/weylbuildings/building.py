"""Lattice model of the affine building of GL(n) over Q_p, n in {2, 3}:
its chambers, faces and balls.

The vertices are the homothety classes of ``LatticeClass``, held in
canonical Hermite form with their determinant valuation, and the vertex
layer under them (canonical forms, labels, adjacency, the n = 2 tree's
neighbors and the breadth-first shell search ``_shells``) lives in the
internal ``lattice`` module, which ``boundary`` reads without this one.
This module re-exports its public names.

A chamber is a cyclic flag

    L_0 > L_1 > ... > L_{n-1} > p L_0

with one-dimensional successive quotients over the residue field.  The n
rotations of the cycle present the same chamber; the stored representative
starts at the lexicographically least rotation.  A codimension-1 face
drops one class and is contained in exactly p + 1 chambers, one for each
line of the two-dimensional residue quotient it leaves open.  ``ball``
enumerates all chambers within a gallery radius of a base chamber, which
is the raw material for shell counts, harmonic cochains and period sums
elsewhere.  Its shell search runs on plain keys, tuples of Hermite rows
that C hashes and orders: a chamber is keyed by the rows of its flag,
which order as its ``sort_key`` does, and a face by the rows of its
classes, sorted by Hermite tuple.  A ball keeps what the search found,
each chamber's flag and each face's classes, members and type; its
public ``FlagChamber``s, ``Face``s and index are None until they are
first read, which builds them.  Its JSON rows are read off the same
arrays by the row makers of ``_ball_rows``, which ``ball_to_json`` calls
once over every chamber and the CLI a slice at a time, each through one
index of each chamber's faces.

The vertex labelling lambda([L]) = v_p(det L) mod n makes every chamber
hit each label exactly once; a face's type is the label it omits.
Generator i of the affine Weyl group A(n-1)~ is the index i; it crosses
the standard chamber's face of type -i mod n (``generator_face_types``).
The group action of GL_n(Q_p), the sign character computed both ways,
the generator matrices, ``weyl_to_chamber`` and ``lattice_from_rows`` live
in the internal ``action`` module, which no request of the chamber layer
runs.  This module re-exports them through a module ``__getattr__``
(PEP 562): the first read of one imports ``action`` and binds the name
here, so ``from weylbuildings.building import act`` works, and a ball,
a star or a harmonic query never compiles them.

Arithmetic is exact, and inside this module it is integer arithmetic:
membership and the kernels behind each chamber star work on Python
integers.

Flags that callers supply go through ``make_chamber``, which tests every
chain step (``lattice._chain_step``).  Flags that ``_star`` builds, for
``chambers_containing`` and ``ball`` alike, skip that, and become chambers
and faces through the one unchecked constructor, ``exact._restore``; each
of the two checks a face's classes before it asks for the face's star.  The vertex
a face misses is an index-p sublattice of a face vertex L, the kernel of
a nonzero functional on L / pL (Abramenko and Brown, *Buildings*, the
SL_n example).  The star is written out, with no elimination and no scan
over all functionals: ``lattice._tree_neighbors`` for n = 2 (Serre,
*Trees*, Ch. II §1), and for n = 3 ``_kernels``, which reads the p + 1
functionals that vanish on the face's line off the line's residues mod
p and writes each kernel's triangular rows in Hermite form in place.  An
n = 3 face is checked by its one chain step, whose coordinates also give
the line, and either way the star must hold exactly p + 1 distinct
chambers.  ``_star`` returns them unsorted: the shell search sorts each
new shell, and ``chambers_containing`` sorts its own.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .exact import Value, _field, _int, _restore, _tuple
from .lattice import (  # the vertex layer, its public names re-exported
    LatticeClass, PrimeContext, classes_adjacent, standard_lattice, vertex_label,
    _chain_step, _dimension, _not_a_class, _oriented, _require_classes, _shell, _shells,
    _tree_neighbors,
)

__all__ = [
    "PrimeContext",
    "LatticeClass",
    "lattice_from_rows",
    "standard_lattice",
    "vertex_label",
    "FlagChamber",
    "make_chamber",
    "standard_chamber",
    "Face",
    "face_of",
    "face_type",
    "chambers_containing",
    "classes_adjacent",
    "act",
    "epsilon",
    "epsilon_from_labels",
    "epsilon_from_determinant",
    "affine_generator_matrix",
    "label_shift_matrix",
    "generator_face_types",
    "weyl_to_chamber",
    "BallGraph",
    "ball",
    "ball_to_json",
]

# the group action and the caller-rows Hermite route, re-exported from
# ``action``, which imports this module: no request of the chamber layer
# runs them, so a first read imports it and binds the name here
_ACTION = (
    "lattice_from_rows", "act", "epsilon", "epsilon_from_labels", "epsilon_from_determinant",
    "affine_generator_matrix", "label_shift_matrix", "weyl_to_chamber",
    "_canonical", "_det", "_hermite_rows", "_integer_rows", "_integral_matrix",
)


def __getattr__(name: str):
    if name not in _ACTION:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import action

    value = globals()[name] = getattr(action, name)
    return value


# -- chambers --------------------------------------------------------------------


class FlagChamber(Value):
    """Cyclic flag of n lattice classes, stored from its least class: a
    chamber's classes carry distinct labels, so that is its least rotation."""

    __slots__ = ("classes",)

    def __init__(self, classes: tuple[LatticeClass, ...]) -> None:
        classes = _tuple(classes, "classes", "lattice classes")
        if not classes:
            raise ValueError("empty flag")
        try:
            best = min(range(len(classes)), key=lambda i: classes[i].hnf)
        except AttributeError:
            raise _not_a_class(classes) from None
        self._set(classes[best:] + classes[:best] if best else classes)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is FlagChamber:
            return self.classes == other.classes
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.classes,))

    @property
    def n(self) -> int:
        return len(self.classes)

    def sort_key(self) -> tuple:
        return tuple(c.hnf for c in self.classes)


def make_chamber(classes: Sequence[LatticeClass], ctx: PrimeContext) -> FlagChamber:
    """Validated chamber from a caller-supplied cyclic flag of n classes."""
    n = _dimension(ctx)
    cs = _tuple(classes, "classes", "lattice classes")
    if len(cs) != n:
        raise ValueError(f"a chamber needs exactly {n} classes")
    _require_classes(ctx, *cs)
    if len(set(cs)) != len(cs):
        raise ValueError("flag classes must be distinct")
    for i in range(len(cs)):
        if _chain_step(cs[i], cs[(i + 1) % len(cs)], ctx) is None:
            raise ValueError("classes do not form an index-p cyclic flag")
    return FlagChamber(cs)


def standard_chamber(ctx: PrimeContext) -> FlagChamber:
    """The coordinate flag: L_k = diag(1, ..., 1, p, ..., p), k entries p."""
    n, p = _dimension(ctx), ctx.p
    classes = []
    for k in range(n):
        rows = tuple(
            tuple((p if i >= n - k else 1) if i == j else 0 for j in range(n))
            for i in range(n)
        )
        classes.append(LatticeClass(rows, k))
    return make_chamber(classes, ctx)


# -- faces ------------------------------------------------------------------------


class Face(Value):
    """Codimension-1 simplex: an unordered set of n - 1 vertex classes.

    Its hash is that of ``(classes,)``, computed once, when the face is
    built, and kept in the hidden, uncompared ``_hash``: a ball's faces
    are looked up in its face map on every harmonic query, and hashing
    the nested Hermite tuples again each time would cost more than the
    lookup itself.
    """

    __slots__ = ("classes", "_hash")
    _uncompared = ("_hash",)
    _hidden = ("_hash",)

    def __init__(self, classes: tuple[LatticeClass, ...]) -> None:
        classes = _tuple(classes, "classes", "lattice classes")
        try:
            ordered = tuple(sorted(classes, key=lambda c: c.hnf))
        except AttributeError:
            raise _not_a_class(classes) from None
        self._set(ordered, hash((ordered,)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Face:
            return self.classes == other.classes
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash


def face_of(chamber: FlagChamber, position: int) -> Face:
    """Face obtained by dropping the flag entry at a position in 0..n-1."""
    cs = _field(chamber, FlagChamber, "classes", "chamber")
    _int(position, "position", 0, len(cs))
    return Face(cs[:position] + cs[position + 1 :])


def face_type(face: Face, ctx: PrimeContext) -> int:
    """The vertex label missing from the face."""
    classes = _field(face, Face, "classes", "face")
    _require_classes(ctx, *classes)
    missing = set(range(ctx.n)) - {c.valuation % ctx.n for c in classes}
    if len(missing) != 1:
        raise ValueError("face vertices do not carry distinct labels")
    return missing.pop()


def _kernels(vertex: LatticeClass, line: Sequence[int], p: int) -> list[LatticeClass]:
    """Classes of the p + 1 index-p sublattices of L = vertex, n = 3, that
    contain a line of L / pL, given over L's Hermite rows r0, r1, r2.  They
    are the kernels of the functionals phi that vanish on the line, each
    scaled to 1 at its last nonzero entry j: r_i - phi_i r_j (i < j), p r_j
    and r_i (i > j).  The line's residues l give those phi directly, with
    g and h for phi_0 and phi_1 below:

    - l0 != 0: j = 1 at phi_0 = -l1 / l0, and j = 2 at each phi_1, with
      phi_0 = -(phi_1 l1 + l2) / l0;
    - l0 = 0, l1 != 0: j = 0, and j = 2 at each phi_0, with phi_1 = -l2 / l1;
    - l0 = l1 = 0: j = 0, and j = 1 at each phi_0.

    A zero line would keep all p^2 + p + 1 functionals, so it is a failed
    invariant.  The kernel rows are upper triangular with a p-power
    diagonal, and ``_reduced`` writes each one's class."""
    (x0, m01, m02), (_, x1, m12), (_, _, x2) = vertex.hnf
    l0, l1, l2 = line[0] % p, line[1] % p, line[2] % p
    if not (l0 or l1 or l2):
        raise AssertionError("the line of a face is zero mod p")
    if l0:
        s = pow(-l0, -1, p)
        ones, twos = [l1 * s % p], [((h * l1 + l2) * s % p, h) for h in range(p)]
    elif l1:
        h = -l2 * pow(l1, -1, p) % p
        ones, twos = [], [(g, h) for g in range(p)]
    else:
        ones, twos = range(p), []
    v = vertex.valuation + 1
    out = [] if l0 else [_reduced(p * x0, p * m01, p * m02, x1, m12, x2, p, v)]
    out += [_reduced(x0, m01 - g * x1, m02 - g * m12, p * x1, p * m12, x2, p, v) for g in ones]
    out += [_reduced(x0, m01, m02 - g * x2, x1, m12 - h * x2, p * x2, p, v) for g, h in twos]
    return out


def _reduced(a: int, b: int, c: int, d: int, e: int, f: int, p: int, v: int) -> LatticeClass:
    """Class of the span of the rows (a, b, c), (0, d, e), (0, 0, f), with
    a p-power diagonal and determinant valuation v: ``action._class_of``
    written out for one n = 3 kernel.  The entries above the diagonal are
    reduced modulo the diagonal entry of their column, and the p-content,
    0 or 1 since the kernel contains pL with L primitive, is stripped."""
    t, b = divmod(b, d)
    c, e = (c - t * e) % f, e % f
    if a % p or b % p or c % p or d % p or e % p or f % p:
        return LatticeClass(((a, b, c), (0, d, e), (0, 0, f)), v)
    return LatticeClass(((a // p, b // p, c // p), (0, d // p, e // p), (0, 0, f // p)), v - 3)


def chambers_containing(
    face: Face | Sequence[LatticeClass], ctx: PrimeContext
) -> tuple[FlagChamber, ...]:
    """All p + 1 chambers containing a codimension-1 face, sorted: the
    face's classes are checked, then ``_star`` writes the chambers out."""
    n = _dimension(ctx)
    classes = face.classes if isinstance(face, Face) else _tuple(face, "face", "lattice classes")
    if len(classes) != n - 1:
        raise ValueError(f"a codimension-1 face has {n - 1} classes")
    _require_classes(ctx, *classes)
    star = _star(classes, ctx)
    return tuple(_restore(FlagChamber, (star[key],)) for key in sorted(star))


def _star(classes: tuple[LatticeClass, ...], ctx: PrimeContext) -> dict[tuple, tuple]:
    """The p + 1 chambers on a face of checked classes, unsorted, as a map
    from key to flag: each flag starts at its least class, and its key is
    the rows of its classes' Hermite tuples in flag order.  Every class is
    n x n, so the keys order as ``FlagChamber.sort_key`` does, and they hash
    and compare one level shallower.

    Each flag is the face's chain followed by the missing vertex m, an
    index-p sublattice of the chain's last vertex.  For n = 2 the chain is
    the one vertex and ``_tree_neighbors`` writes the star out.  For n = 3
    the chain is (first, last), with label(last) = label(first) + 1, and
    the face must be the chain step first > B = p^k last (``_chain_step``);
    that one containment checks the face, since an index-p sublattice of
    first contains p first.  The missing vertex lies in B and contains
    p first, whose image in B / pB is a line, and ``_kernels`` writes out
    the p + 1 sublattices that contain it.  The line is read off the
    step's coordinates C of B's rows over first's: C is upper triangular
    with one diagonal entry p and the others 1, so det C = p and
    p first = adj(C) B, and the adjugate's row at that entry is nonzero
    mod p, with a 1 there.
    """
    p, n = ctx.p, ctx.n
    if n == 2:
        chain, missing = classes, _tree_neighbors(classes[0], p)
        rows, j = classes[0].hnf, 0
    else:
        first, last = chain = _oriented(*classes, n)
        step = _chain_step(first, last, ctx)
        if step is None:
            raise ValueError("classes do not bound a codimension-1 face")
        # p first = adj(C) B: the adjugate's row at C's diagonal entry p
        (c0, a, b), (_, c1, d), _ = step
        line = (1, -a, a * d - b) if c0 != 1 else (0, 1, -d) if c1 != 1 else (0, 0, 1)
        missing = _kernels(last, line, p)
        rows, j = first.hnf + last.hnf, int(last.hnf < first.hnf)
    # the least rotation of chain + (m,), as in FlagChamber: the chain's
    # classes keep their order, so it starts at m or at the chain's least,
    # chain[j], which fills rows n j to n j + n - 1 of the chain's rows
    least, after, before = rows[n * j : n * j + n], rows[n * j :], rows[: n * j]
    head, tail = chain[j:], chain[:j]
    star: dict[tuple, tuple[LatticeClass, ...]] = {}
    for m in missing:
        c = m.hnf
        if c < least:
            star[c + rows] = (m,) + chain
        else:
            star[after + c + before] = head + (m,) + tail
    if len(star) != p + 1:
        raise AssertionError("a face must lie in exactly p + 1 chambers")
    return star


# -- affine Weyl generators ----------------------------------------------------------


def generator_face_types(ctx: PrimeContext) -> dict[int, int]:
    """Face type crossed between the standard chamber and its image under
    each generator i: -i mod n.  Generator i >= 1 swaps coordinates i - 1
    and i, so of the standard flag it moves only the class with n - i
    entries p (label n - i); generator 0 moves only the standard lattice."""
    n = _dimension(ctx)
    return {i: -i % n for i in range(n)}


# -- balls of chambers ----------------------------------------------------------------


class BallGraph(Value):
    """All chambers within a gallery radius of a center chamber.

    Chambers are indexed breadth-first, sorted within each shell, so
    `shell` reads a shell as one index range (``lattice._shell``); `faces`
    records, for every face of a ball chamber, the increasing indices of
    its in-ball chambers (a face is interior when it has p + 1 of them).
    `parent` and `crossed_type` trace one minimal gallery back to the
    center, so `gallery_types` / `weyl_word` read off a word for the Weyl
    distance from the center (face type t is generator -t mod n).

    The hidden, uncompared slots after the fields are derived.  The search
    arrays hold what the shell search found: `_flags`, each chamber's
    class tuple, and `_face_classes`, `_face_members` and `_face_types`,
    each face's classes, chambers and type, in the order the search first
    met the face.  `ball` sets the arrays and leaves `chambers`, `faces`
    and `index` None until they are first read; each of the three is a
    property over its slot (``_derived``) that builds it from the arrays
    then, so equality, hashing, ``repr`` and pickling see the same fields
    either way.  A graph built from its fields derives the arrays from
    them.  ``ball_to_json`` reads the arrays alone.  Every other field
    stays a plain slot: a ``__getattr__`` would slow every attribute read
    of the class.  `_profile` is each interior face's distance shape,
    worked out by the ``harmonic`` module on the ball's first harmonic
    query and read by every later one; it too is None until then.
    """

    _search = ("_flags", "_face_classes", "_face_members", "_face_types")
    __slots__ = (
        "ctx", "radius", "chambers", "distance", "parent", "crossed_type", "faces", "index",
        "_profile", *_search,
    )
    _uncompared = ("index", "_profile", *_search)
    _hidden = ("_profile", *_search)

    def __init__(
        self,
        ctx: PrimeContext,
        radius: int,
        chambers: tuple[FlagChamber, ...],
        distance: tuple[int, ...],
        parent: tuple[int | None, ...],
        crossed_type: tuple[int | None, ...],
        faces: Mapping[Face, tuple[int, ...]],
        index: Mapping[FlagChamber, int],
    ) -> None:
        self._set(
            ctx, radius, chambers, distance, parent, crossed_type, faces, index, None,
            tuple(c.classes for c in chambers), tuple(f.classes for f in faces),
            tuple(faces.values()), tuple(face_type(f, ctx) for f in faces),
        )

    def __len__(self) -> int:
        return len(self.distance)

    def shell_sizes(self) -> tuple[int, ...]:
        sizes = [0] * (self.radius + 1)
        for d in self.distance:
            sizes[d] += 1
        return tuple(sizes)

    def shell(self, k: int) -> tuple[int, ...]:
        return tuple(_shell(self.distance, k))

    def interior_faces(self) -> tuple[Face, ...]:
        full = self.ctx.p + 1
        return tuple(f for f, members in self.faces.items() if len(members) == full)

    def chambers_of_face(self, face: Face) -> tuple[int, ...]:
        _field(face, Face, "classes", "face")
        return tuple(self.faces[face])

    def neighbors(self, i: int) -> tuple[int, ...]:
        _int(i, "chamber index", 0, len(self.distance))
        out: set[int] = set()
        for pos in range(self.ctx.n):
            out.update(self.faces.get(face_of(self.chambers[i], pos), ()))
        out.discard(i)
        return tuple(sorted(out))

    def gallery_types(self, i: int) -> tuple[int, ...]:
        _int(i, "chamber index", 0, len(self.distance))
        types: list[int] = []
        cur = i
        while self.parent[cur] is not None:
            types.append(self.crossed_type[cur])
            cur = self.parent[cur]
        return tuple(reversed(types))

    def weyl_word(self, i: int) -> tuple[int, ...]:
        to_generator = generator_face_types(self.ctx)
        return tuple(to_generator[t] for t in self.gallery_types(i))


def _derived(name: str, build: Callable[[BallGraph], object]) -> property:
    """A property over the ``BallGraph`` slot of that name: a read finds
    the slot's value, or, while the slot is None, sets it to what ``build``
    makes of the graph.  Two threads that read a None slot at once may
    each build it; the values are equal, and the last one stays."""
    slot = BallGraph.__dict__[name]
    read, write = slot.__get__, slot.__set__

    def get(graph: BallGraph) -> object:
        value = read(graph)
        if value is None:
            value = build(graph)
            write(graph, value)
        return value

    return property(get, write)


# the search's flags and faces are in their stored order already: built unchecked
BallGraph.chambers = _derived(
    "chambers", lambda g: tuple(_restore(FlagChamber, (flag,)) for flag in g._flags)
)
BallGraph.faces = _derived("faces", lambda g: {
    _restore(Face, (c, hash((c,)))): m for c, m in zip(g._face_classes, g._face_members)})
BallGraph.index = _derived("index", lambda g: {chamber: i for i, chamber in enumerate(g.chambers)})


def ball(ctx: PrimeContext, radius: int, center: FlagChamber | None = None) -> BallGraph:
    """Breadth-first enumeration of the chamber ball of the given radius,
    around the standard chamber or a caller's center, which ``make_chamber``
    checks.  The shells come from ``_shells``, stepping by chamber stars
    (``_star``) on the flags' class tuples, keyed by their rows in order;
    each expanded face's classes are checked first.  A face is expanded
    only from the first chamber to meet it, its gate, so its star holds
    that chamber and p chambers of the next shell, as ``_shells`` needs.
    Faces are keyed by the rows of their classes, sorted by Hermite tuple,
    and a face's type is the label of the flag entry it drops.  The graph
    keeps these arrays, each face's members a tuple made from its list in
    place, and its public chambers, faces and index are None until first
    read."""
    _int(radius, "radius", 0)
    start = standard_chamber(ctx) if center is None else make_chamber(
        _field(center, FlagChamber, "classes", "center"), ctx)
    n = ctx.n
    # face key -> in-ball chambers in index order, beside each face's classes
    # and type in the same order; the first expanded chamber to meet a face
    # discovers its whole star, so later ones only append
    members: dict[tuple, list[int]] = {}
    classes: list[tuple[LatticeClass, ...]] = []
    types: list[int] = []

    def meet(i: int, flag: tuple[LatticeClass, ...], expand: bool = True) -> list:
        # chamber i joins each of its faces; the stars of those it is the
        # first to meet, as (type, neighbors) groups, unless it is not expanded
        groups = []
        for pos, gone in enumerate(flag):
            face = flag[:pos] + flag[pos + 1 :]
            if n == 3 and face[1].hnf < face[0].hnf:
                face = face[::-1]
            key = face[0].hnf if n == 2 else face[0].hnf + face[1].hnf
            known = members.get(key)
            if known is not None:
                known.append(i)
                continue
            members[key] = [i]
            classes.append(face)
            types.append(ftype := gone.valuation % n)
            if expand:
                _require_classes(ctx, *face)
                groups.append((ftype, _star(face, ctx).items()))
        return groups

    flags, distance, parent, crossed, last = _shells(
        (sum(start.sort_key(), ()), start.classes), radius, meet
    )
    # the last shell is never expanded; it enters here, after every
    # expanded chamber, so faces keep the order of their first chamber
    for i in last:
        meet(i, flags[i], False)
    # each face's list becomes its tuple in place, so no two copies of all
    # the members are held at once
    for key, found in members.items():
        members[key] = tuple(found)
    return _restore(BallGraph, (
        ctx, radius, None, distance, parent, crossed, None, None, None,
        flags, tuple(classes), tuple(members.values()), tuple(types),
    ))


def _ball_rows(graph: BallGraph) -> dict:
    """``ball_to_json``'s document with each chamber-length array left as
    a row maker: ``rows(lo, hi)`` makes the array's items lo to hi - 1,
    fewer past its end, read off the graph's search arrays.  The CLI writes
    them a slice at a time, so none of them is held whole.

    ``chambers[i]`` is the tuple of the stored Hermite tuples of chamber
    i's classes, which the JSON encoder writes as nested arrays.
    ``adjacency[i]`` lists (face type, neighbor index) pairs for every
    neighbor inside the ball, sorted by face type then neighbor: a chamber
    has one face of each type and a face's members are increasing, so the
    faces are read type by type and the pairs come out in order.  Every
    call, over all chambers or over a slice, reads the faces of its
    chambers off ``at``, each chamber's face of each type, built with the
    document.  The pairs are tuples, which take less memory than lists
    and which the JSON encoder writes as the same two-element arrays, and
    a face's pair for each member is built once per call and shared by
    its other members' lists; a face with one member, at the ball's edge,
    gives none.
    """
    n = _field(graph, BallGraph, "ctx", "graph").n
    flags, faces = graph._flags, graph._face_members
    # at[t][i]: where chamber i's face of type t is in ``faces``, -1 for one member
    at = [[-1] * len(flags) for _ in range(n)]
    for f, (members, ftype) in enumerate(zip(faces, graph._face_types)):
        if len(members) > 1:
            face_at = at[ftype]
            for i in members:
                face_at[i] = f

    def adjacency(lo: int, hi: int) -> list[list[tuple[int, int]]]:
        out: list[list[tuple[int, int]]] = [[] for _ in flags[lo:hi]]
        for ftype, face_at in enumerate(at):
            found = dict.fromkeys(face_at[lo:hi])  # the type's faces met in the slice, once
            found.pop(-1, None)
            for f in found:
                members = faces[f]
                pairs = [(ftype, j) for j in members]
                for k, j in enumerate(members):
                    if lo <= j < hi:
                        row = out[j - lo]
                        row += pairs[:k]
                        row += pairs[k + 1 :]
        return out

    return {
        "p": graph.ctx.p, "n": n, "radius": graph.radius, "chamber_count": len(flags),
        "shell_sizes": list(graph.shell_sizes()),
        "chambers": lambda lo, hi: [tuple([c.hnf for c in flag]) for flag in flags[lo:hi]],
        "adjacency": adjacency,
        "distance": lambda lo, hi: list(graph.distance[lo:hi]),
        "parent": lambda lo, hi: [-1 if x is None else x for x in graph.parent[lo:hi]],
        "crossed_type": lambda lo, hi: [-1 if x is None else x for x in graph.crossed_type[lo:hi]],
    }


def ball_to_json(graph: BallGraph) -> dict:
    """Deterministic plain-data rendering of a chamber ball, read off the
    graph's search arrays, so no ``FlagChamber`` or ``Face`` is built: the
    document of ``_ball_rows`` with each row maker called once over all
    chambers, so each face's pairs are shared by all its members."""
    document = _ball_rows(graph)
    for key, value in document.items():
        if callable(value):
            document[key] = value(0, len(graph))  # what only the maker held goes with it
    return document
