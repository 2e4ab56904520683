"""Acceptance gate: one check per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
check is exact (integer or Fraction equality), never approximate.
"""

import random
import time
from collections import defaultdict
from fractions import Fraction
from itertools import product

from weylbuildings import (
    BoundaryFunction,
    GroupElement,
    PrimeContext,
    affine_diagram,
    ball,
    basis_element,
    bfs_growth,
    boundary_value,
    bott_rational,
    coboundary,
    convolve_chamber_function,
    element_from_word,
    epsilon,
    epsilon_from_determinant,
    epsilon_from_labels,
    evaluate,
    expand,
    exponents_for,
    finite_support_rigidity,
    geometric_lambda,
    geometric_shell_terms,
    harmonicity_defect,
    iwahori_vector,
    lambda_closed,
    lambda_partial,
    length,
    lift,
    make_report,
    min_distance_chamber,
    multiply,
    parse_type_label,
    primitive_cochain,
    special_character,
    sphere_vertex_count,
    standard_lattice,
    unit,
    vertex_tree,
    weyl_to_chamber,
    zero_cochain_from_map,
)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


# -- 1 ---------------------------------------------------------------------------


def test_criterion_1_growth_equals_closed_form():
    t0 = time.monotonic()
    ok = True
    for label in ("A1~", "A2~", "A3~", "C2~", "G2~"):
        counts = bfs_growth(affine_diagram(label), 10).counts
        coeffs = expand(bott_rational(exponents_for(parse_type_label(label))), 10).coefficients
        ok = ok and all(Fraction(a) == b for a, b in zip(counts, coeffs))
        ok = ok and len(counts) == len(coeffs) == 11
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _report(
        1,
        f"enumerated growth N(0..10) equals closed-form coefficients for five "
        f"types in {elapsed:.1f}s (< 60s)",
        ok,
    )


# -- 2 ---------------------------------------------------------------------------


def test_criterion_2_shell_counts(tree_p2, tree_p3, gl3_p2):
    ok = True
    a1 = bfs_growth(affine_diagram("A1~"), 6).counts
    ok = ok and tree_p2.shell_sizes()[:7] == tuple(a1[k] * 2**k for k in range(7))
    a1 = bfs_growth(affine_diagram("A1~"), 5).counts
    ok = ok and tree_p3.shell_sizes()[:6] == tuple(a1[k] * 3**k for k in range(6))
    a2 = bfs_growth(affine_diagram("A2~"), 3).counts
    ok = ok and gl3_p2.shell_sizes() == tuple(a2[k] * 2**k for k in range(4))
    _report(
        2,
        "chamber shells satisfy |{d = k}| = N(k) p^k for (n,p,k) in "
        "{(2,2,<=6), (2,3,<=5), (3,2,<=3)}",
        ok,
    )


# -- 3 ---------------------------------------------------------------------------


def test_criterion_3_zero_defect_and_uniqueness(tree_p2, tree_p3):
    ok = True
    faces = 0
    gl3 = ball(PrimeContext(p=2, n=3), 2)
    for graph in (tree_p2, tree_p3, gl3):
        vector = iwahori_vector(graph.chambers[0], graph.ctx.p)
        for face in graph.interior_faces():
            faces += 1
            ok = ok and harmonicity_defect(vector, face, graph) == 0
            try:
                min_distance_chamber(face, graph)
            except AssertionError:
                ok = False
    _report(
        3,
        f"sign-decaying vector has zero defect and a unique closest chamber at "
        f"all {faces} interior faces (tree R=8 p=2,3; n=3 ball R=2)",
        ok,
    )


# -- 4 ---------------------------------------------------------------------------


def test_criterion_4_distance_equals_length(tree_p2, gl3_p2):
    ok = True
    d1 = affine_diagram("A1~")
    for L in range(6):
        for word in product((0, 1), repeat=L):
            w = element_from_word(d1, list(word))
            chamber = weyl_to_chamber(list(word), tree_p2.ctx)
            i = tree_p2.index.get(chamber)
            ok = ok and i is not None and tree_p2.distance[i] == length(d1, w)
    d2 = affine_diagram("A2~")
    for L in range(4):
        for word in product((0, 1, 2), repeat=L):
            w = element_from_word(d2, list(word))
            chamber = weyl_to_chamber(list(word), gl3_p2.ctx)
            i = gl3_p2.index.get(chamber)
            ok = ok and i is not None and gl3_p2.distance[i] == length(d2, w)
    _report(
        4,
        "d(C_0, wC_0) = l(w) for all words of length <= 5 (n=2, p=2) and "
        "<= 3 (n=3, p=2)",
        ok,
    )


# -- 5 ---------------------------------------------------------------------------


def test_criterion_5_hecke_relations(tree_p2):
    ok = True
    params = (Fraction(2), Fraction(3), Fraction(4), Fraction(7, 2))
    for label in ("A1~", "A2~", "A3~", "C2~"):
        d = affine_diagram(label)
        for q in params:
            one = unit(d, q)
            for s in d.generators:
                e = basis_element(d, [s], q)
                ok = ok and multiply(e, e) == (q - 1) * e + q * one
            for i, s in enumerate(d.generators):
                for t in d.generators[i + 1 :]:
                    m = d.order(s, t)
                    if m == float("inf"):
                        continue
                    left = right = one
                    for j in range(int(m)):
                        left = multiply(left, basis_element(d, [s if j % 2 == 0 else t], q))
                        right = multiply(right, basis_element(d, [t if j % 2 == 0 else s], q))
                    ok = ok and left == right

    d = affine_diagram("A2~")
    q = Fraction(3)
    elements = {}
    for L in range(5):
        for word in product((0, 1, 2), repeat=L):
            w = element_from_word(d, list(word))
            if length(d, w) == L:
                elements[w.matrix] = w
    for v in elements.values():
        for w in elements.values():
            prod = multiply(basis_element(d, v, q), basis_element(d, w, q))
            want = (-1) ** (length(d, v) + length(d, w))
            ok = ok and special_character(prod) == want

    # geometric action on the tree against the algebraic rule
    g = tree_p2
    dq = Fraction(g.ctx.p)
    d1 = affine_diagram("A1~")
    rng = random.Random(17)
    inner = [i for i in range(len(g)) if g.distance[i] <= 6]
    for _ in range(20):
        support = rng.sample(range(len(g)), k=rng.randint(1, 6))
        f = {i: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for i in support}
        for s in (0, 1):
            once = convolve_chamber_function(f, s, g)
            twice = convolve_chamber_function(once, s, g)
            for i in inner:
                lhs = twice.get(i, Fraction(0))
                rhs = (dq - 1) * once.get(i, Fraction(0)) + dq * f.get(i, Fraction(0))
                ok = ok and lhs == rhs
    # and cell indicators convolve exactly as basis elements multiply
    cells = defaultdict(list)
    for i in range(len(g)):
        cells[element_from_word(d1, list(g.weyl_word(i))).matrix].append(i)
    for matrix, members in cells.items():
        w = GroupElement(matrix)
        if length(d1, w) > 3:
            continue
        f = {i: Fraction(1) for i in members}
        for s in (0, 1):
            conv = convolve_chamber_function(f, s, g)
            prod = multiply(basis_element(d1, w, dq), basis_element(d1, [s], dq))
            expected: dict[int, Fraction] = defaultdict(Fraction)
            for v in prod.support:
                for i in cells[v.matrix]:
                    expected[i] += prod.coefficient(v)
            for i in inner:
                ok = ok and conv.get(i, Fraction(0)) == expected.get(i, Fraction(0))
    _report(
        5,
        "quadratic and braid relations hold for four types at q in {2,3,4,7/2}; "
        "the character is (-1)^length on all short pairs; the chamber "
        "convolution realizes the algebra",
        ok,
    )


# -- 6 ---------------------------------------------------------------------------


def test_criterion_6_period(tree_p2, tree_p3, gl3_p2):
    ok = True
    a1, a2 = parse_type_label("A1~"), parse_type_label("A2~")
    # code path 1: exact rational-function evaluation
    ok = ok and lambda_closed(a1, 2) == Fraction(1, 3)
    ok = ok and lambda_closed(a2, 2) == Fraction(1, 3)
    # code path 2: truncated summation with a certified tail
    for label in (a1, a2):
        report = make_report(label, 2, 20)
        ok = ok and abs(report.partial_sums[-1] - report.closed_form) <= report.tail_bound
        ok = ok and report.closed_form == Fraction(1, 3)
    # geometric sums equal the partial sums term for term
    for graph, label, q, radius in (
        (tree_p2, a1, 2, 6),
        (tree_p3, a1, 3, 5),
        (gl3_p2, a2, 2, 3),
    ):
        partials = lambda_partial(label, q, radius)
        acc = Fraction(0)
        for k, term in enumerate(geometric_shell_terms(graph)[: radius + 1]):
            acc += term
            ok = ok and acc == partials[k]
        ok = ok and geometric_lambda(graph.ctx, radius, graph=graph) == partials[radius]
    _report(
        6,
        "alternating sum is 1/3 for both types by two code paths; the K=20 "
        "truncation is inside the certified tail; enumerated geometric sums "
        "match the partial sums term for term",
        ok,
    )


# -- 7 ---------------------------------------------------------------------------


def test_criterion_7_sign_character():
    ok = True
    rng = random.Random(23)
    for n in (2, 3):
        ctx = PrimeContext(p=2, n=n)
        mats = []
        for _ in range(25):  # monomial: permutation times powers and units
            perm = list(range(n))
            rng.shuffle(perm)
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                m[i][perm[i]] = Fraction(2) ** rng.randint(-3, 3) * rng.choice([1, -1, 3, 5])
            mats.append(m)
        for _ in range(25):  # elementary: identity plus one off-diagonal entry
            m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
            i, j = rng.sample(range(n), 2)
            m[i][j] = Fraction(rng.randint(-4, 4))
            mats.append(m)
        for m in mats:
            ok = ok and epsilon_from_labels(m, ctx) == epsilon_from_determinant(m, ctx)
        for _ in range(40):
            a, b = rng.choice(mats), rng.choice(mats)
            prod = [
                [sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)]
                for r in range(n)
            ]
            ok = ok and epsilon(prod, ctx) == epsilon(a, ctx) * epsilon(b, ctx)
    _report(
        7,
        "label-permutation signature equals (-1)^((n-1) v(det)) on 50 matrices "
        "per group (n=2,3) and is multiplicative on sampled pairs",
        ok,
    )


# -- 8 ---------------------------------------------------------------------------


def test_criterion_8_boundary_map():
    ok = True
    rng = random.Random(29)
    for p in (2, 3):
        ctx = PrimeContext(p=p, n=2)
        o = standard_lattice(ctx)
        depth = 3
        inner = vertex_tree(ctx, o, depth - 1)
        for _ in range(50):
            picks = rng.sample(list(inner.vertices), k=rng.randint(1, 5))
            f = zero_cochain_from_map(
                {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in picks}
            )
            g = boundary_value(coboundary(f, ctx), o, depth, ctx)
            ok = ok and g.constant_value() == f.value(o)
        for _ in range(20):
            picks = rng.sample(list(inner.vertices), k=rng.randint(1, 5))
            f = zero_cochain_from_map(
                {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in picks}
            )
            omega = coboundary(f, ctx)
            recovered = primitive_cochain(omega, o, depth, ctx)
            ok = ok and coboundary(recovered, ctx) == omega and recovered == f
        for r in (1, 2, 3):
            tree = vertex_tree(ctx, o, r)
            ok = ok and len(tree) == sphere_vertex_count(p, r)
            values = {e: Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for e in tree.ends()}
            g = BoundaryFunction(depth=r, parts=tuple(values.items()))
            back = boundary_value(lift(g, o, ctx), o, r, ctx)
            ok = ok and (back.parts == g.parts or back.differs_by_constant(g))
    ok = ok and sphere_vertex_count(2, 2) == 10
    _report(
        8,
        "boundary of a coboundary is constant (50 random cochains, p=2,3); the "
        "primitive construction inverts d (20 cases); lift round-trips at "
        "depths <= 3; sphere counts match the closed forms",
        ok,
    )


# -- 9 ---------------------------------------------------------------------------


def test_criterion_9_rigidity():
    ok = True
    ok = ok and finite_support_rigidity(ball(PrimeContext(p=2, n=2), 3))
    ok = ok and finite_support_rigidity(ball(PrimeContext(p=3, n=2), 3))
    ok = ok and finite_support_rigidity(ball(PrimeContext(p=2, n=3), 2))
    _report(
        9,
        "no nonzero finitely supported harmonic cochain: exact rank is full on "
        "tree balls R=3 (p=2,3) and the n=3 ball R=2",
        ok,
    )
