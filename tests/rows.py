"""Measurement rows of the library's layers, in process, and of the CLI's
top request end to end.

    python tests/rows.py
    python tests/rows.py --top-request

Prints one row per measurement: the Coxeter layer's growth, length and
reduced words; the Hecke and decay requests of the benchmark's ``session``
workload, its product mix, its long A1~ products, its element queries on
elements built from a caller's matrix and the rule-form decay profile of
its balls; the harmonic face queries, the defect of the sign-decaying
vector and the closest chamber, over every interior face of those balls;
``finite_support_rigidity`` on its rigidity balls and one larger ball;
and the tree boundary maps' two round trips, lift then ``boundary_value``
and ``coboundary`` then ``primitive_cochain``, on its trees.  Each Hecke
row checks every result it times against the dense matrix arithmetic of
``references``, each harmonic row against the members' distances, each
rigidity row against the exact rank of ``references.full_rank``, and
each boundary row against the input it started from, and says whether
all matched; the script exits 1 when one did not.

With ``--top-request`` it prints the top ``ball`` request's rows instead:
cold CLI requests of it and of one ``harmonic`` request, three each, with
their wall seconds, each child's own peak RSS (its VmHWM, which it reports
as it exits) and whether stdout matches the digest recorded in
``bench/expected.json`` (read only); the top request written with
``--out``; in process with the collector off, its ball, the CLI's path
(rows made a slice at a time, then encoded) and ``ball_to_json``, whether
the streamed pieces join to the text of one ``json.dumps`` call on
``ball_to_json``, the ``tracemalloc`` size the ball keeps and its peak
while it is built, and the ``tracemalloc`` peak of the CLI's path and of
``ball_to_json`` above the ball; and one larger ball and its JSON with the
collector on, with how many more objects it then tracks.  It exits 1 when
a digest or the pieces do not match.

Stdlib only; it puts the checkout's ``src`` first on the path.  Not a test
module: the default collection reads it for doctests only.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# (n, p, R) of the balls and (p, depth) of the vertex trees, as in the
# session workload
BALLS = ((2, 2, 8), (2, 3, 6), (2, 5, 4), (3, 2, 4), (3, 3, 3))
# the session workload's rigidity balls, and (3, 2, 7): 1,927 unknowns,
# whose exact rank takes about 2 s on 2 CPUs ((3, 2, 8) and (3, 3, 6) take 8)
RIGIDITY_BALLS = ((2, 2, 4), (2, 3, 3), (3, 2, 3), (3, 2, 7))
RIGIDITY_CALLS = 40  # per ball
TREES = ((2, 4), (3, 3), (5, 2))
ROUND_TRIPS = 200  # per tree
# the session workload's Hecke products, element queries and long products
HECKE_TYPES = ("A2~", "C2~", "G2~", "A3~", "B3~")
HECKE_LENGTHS = (3, 8)
HECKE_Q = (Fraction(2), Fraction(3), Fraction(7, 2), Fraction(5, 3))
QUERY_TYPES = {"A1~": 60, "A2~": 20, "G2~": 20, "A3~": 12, "D4~": 8, "F4~": 8}
LONG_FIRST, LONG_TOTAL = (30, 50), (66, 90)
PRODUCTS, QUERIES, LONG_PRODUCTS, PROFILES = 300, 400, 60, 40


def coxeter_rows() -> None:
    # best-of-3 wall seconds of growth, and of length plus reduced word
    # over 500 elements (250 of A3~, 250 of E8~, words of 40 letters)
    from weylbuildings.coxeter import (
        affine_diagram, bfs_growth, element_from_word, length, reduced_word,
    )

    a3, e8 = affine_diagram("A3~"), affine_diagram("E8~")
    rng = random.Random(0)
    words = [(d, [rng.randrange(d.size) for _ in range(40)]) for d in (a3, e8) for _ in range(250)]

    def word_seconds():
        # fresh elements each time: an element keeps its peel once read
        elements = [(d, element_from_word(d, word)) for d, word in words]
        start = time.perf_counter()
        for d, w in elements:
            length(d, w)
            reduced_word(d, w)
        return time.perf_counter() - start

    print(f"bfs_growth E8~ K=8: {best_of_3(lambda: bfs_growth(e8, 8))[0]:.4f} s")
    print(f"bfs_growth A3~ K=30: {best_of_3(lambda: bfs_growth(a3, 30))[0]:.4f} s")
    print(f"length + reduced_word, 500 elements: {min(word_seconds() for _ in range(3)):.4f} s")


def best_of_3(run) -> tuple[float, object]:
    """The least wall seconds of three calls, and the last call's result."""
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        result = run()
        seconds.append(time.perf_counter() - start)
    return min(seconds), result


def hecke_rows() -> bool:
    """Best-of-3 wall seconds of the session workload's Hecke products, its
    long A1~ products, ``length`` plus ``reduced_word`` on elements built
    from a caller's matrix (so the membership check is timed), and the
    rule-form ``decay_profile`` of each ball, and whether every result
    matched the dense matrix arithmetic of ``references``."""
    from references import dense_product, reduced, reflections, word_matrix
    from weylbuildings.building import PrimeContext, ball
    from weylbuildings.coxeter import GroupElement, affine_diagram, length, reduced_word
    from weylbuildings.harmonic import decay_profile, iwahori_vector
    from weylbuildings.hecke import HeckeElement, multiply

    rng = random.Random(0)
    diagrams = {label: affine_diagram(label) for label in {*HECKE_TYPES, *QUERY_TYPES}}
    mats = {label: reflections(d) for label, d in diagrams.items()}

    def basis(label, word, q):
        element = GroupElement(word_matrix(mats[label], word))
        return HeckeElement(diagrams[label], q, ((element, Fraction(1)),))

    products, longs, queries = [], [], []
    for _ in range(PRODUCTS):
        label, q = rng.choice(HECKE_TYPES), rng.choice(HECKE_Q)
        v, w = (reduced(mats[label], rng, rng.randint(*HECKE_LENGTHS)) for _ in "vw")
        expected = dense_product(mats[label], q, [(v, 1)], [(w, 1)])
        products.append((basis(label, v, q), basis(label, w, q), expected))
    for _ in range(LONG_PRODUCTS):
        q, a = rng.choice(HECKE_Q), rng.randint(*LONG_FIRST)
        v, w = [i % 2 for i in range(a)], [(a + i) % 2 for i in range(rng.randint(*LONG_TOTAL) - a)]
        expected = dense_product(mats["A1~"], q, [(v, 1)], [(w, 1)])
        longs.append((basis("A1~", v, q), basis("A1~", w, q), expected))
    for _ in range(QUERIES):
        label = rng.choice(sorted(QUERY_TYPES))
        size = rng.randint(1, QUERY_TYPES[label])
        queries.append((label, size, word_matrix(mats[label], reduced(mats[label], rng, size))))

    def multiplied(pairs):
        def run():
            return [multiply(a, b) for a, b, _ in pairs]

        def check(results):
            return len(results) == len(pairs) and all(
                {u.matrix: c for u, c in x.terms} == expected for x, (_, _, expected) in zip(results, pairs))

        return run, check

    def queried():
        # fresh elements each time: an element keeps its peel once read
        elements = [(diagrams[label], GroupElement(m)) for label, _, m in queries]
        start = time.perf_counter()
        results = [(length(d, w), reduced_word(d, w)) for d, w in elements]
        return time.perf_counter() - start, results

    def query_check(results):
        return len(results) == len(queries) and all(
            n == size == len(word) and word_matrix(mats[label], word) == m
            for (n, word), (label, size, m) in zip(results, queries))

    ok = True
    rows = [("session Hecke products", PRODUCTS, *multiplied(products)),
            ("long A1~ products, length 66-90", LONG_PRODUCTS, *multiplied(longs))]
    for name, count, run, check in rows:
        seconds, results = best_of_3(run)
        equal = check(results)
        print(f"{name}, {count}: {seconds:.4f} s ({seconds / count * 1e6:.2f} us each), all match: {equal}")
        ok = ok and equal
    timed = [queried() for _ in range(3)]
    seconds, equal = min(t for t, _ in timed), all(query_check(r) for _, r in timed)
    print(f"length + reduced_word, caller-matrix elements, {QUERIES}: {seconds:.4f} s "
          f"({seconds / QUERIES * 1e6:.2f} us each), all match: {equal}")
    ok = ok and equal
    for n, p, radius in BALLS:
        g = ball(PrimeContext(p=p, n=n), radius)
        f = iwahori_vector(g.chambers[0], p)
        seconds, results = best_of_3(lambda: [decay_profile(f, g) for _ in range(PROFILES)])
        expected = tuple((k, Fraction(1, p**k)) for k in range(radius + 1))
        equal = all(r == expected for r in results)
        print(f"rule-form decay_profile, (n, p, R) = ({n}, {p}, {radius}), {PROFILES}: {seconds:.6f} s "
              f"({seconds / PROFILES * 1e6:.2f} us each), all match: {equal}")
        ok = ok and equal
    return ok


def harmonic_rows() -> bool:
    """Best-of-3 wall seconds of ``harmonicity_defect`` of the vector with
    q = p plus ``min_distance_chamber`` over every interior face of each
    ball, the first scan building the ball's profile, and whether each
    result matched the face's members: defect 0, and a member at their
    least distance."""
    from weylbuildings.building import PrimeContext, ball
    from weylbuildings.harmonic import harmonicity_defect, iwahori_vector, min_distance_chamber

    ok = True
    for n, p, radius in BALLS:
        g = ball(PrimeContext(p=p, n=n), radius)
        f, faces = iwahori_vector(g.chambers[0], p), g.interior_faces()

        def scan():
            return [(harmonicity_defect(f, face, g), min_distance_chamber(face, g)) for face in faces]

        seconds, results = best_of_3(scan)
        equal = len(results) == len(faces)
        for face, (defect, (chamber, delta)) in zip(faces, results):
            members = g.faces[face]
            i = g.index.get(chamber)
            equal = equal and defect == 0 and i in members and (
                g.distance[i] == delta == min(g.distance[j] for j in members))
        print(f"defect + closest chamber, (n, p, R) = ({n}, {p}, {radius}), {len(faces)} faces: "
              f"{seconds:.6f} s ({seconds / len(faces) * 1e6:.2f} us per face), all match: {equal}")
        ok = ok and equal
    return ok


def rigidity_rows() -> bool:
    """Best-of-3 wall seconds of RIGIDITY_CALLS ``finite_support_rigidity``
    calls per ball, the first building the ball's profile, the wall
    seconds of the exact rank, and whether every answer matched it."""
    from references import full_rank
    from weylbuildings.building import PrimeContext, ball
    from weylbuildings.harmonic import finite_support_rigidity

    ok = True
    for n, p, radius in RIGIDITY_BALLS:
        g = ball(PrimeContext(p=p, n=n), radius)
        seconds, results = best_of_3(lambda: [finite_support_rigidity(g) for _ in range(RIGIDITY_CALLS)])
        start = time.perf_counter()
        rank = full_rank(g)
        rank_seconds = time.perf_counter() - start
        equal = all(r is rank for r in results)
        unknowns = sum(1 for d in g.distance if d < radius)
        print(f"finite_support_rigidity, (n, p, R) = ({n}, {p}, {radius}), {unknowns} unknowns, "
              f"{RIGIDITY_CALLS}: {seconds:.6f} s ({seconds / RIGIDITY_CALLS * 1e6:.2f} us each); "
              f"exact rank {rank_seconds:.3f} s, all match: {equal}")
        ok = ok and equal
    return ok


def boundary_rows() -> bool:
    """Best-of-3 wall seconds of the two round trips over ROUND_TRIPS seeded
    inputs per tree, and whether each came back equal to its input."""
    from weylbuildings.boundary import (
        BoundaryFunction, boundary_value, coboundary, lift, primitive_cochain, vertex_tree,
        zero_cochain_from_map,
    )
    from weylbuildings.lattice import PrimeContext, standard_lattice

    rng = random.Random(0)
    lifts, primitives = [], []
    for p, depth in TREES:
        ctx = PrimeContext(p=p, n=2)
        origin = standard_lattice(ctx)
        tree = vertex_tree(ctx, origin, depth)
        inner = [v for v, d in zip(tree.vertices, tree.depth) if d < depth]
        for _ in range(ROUND_TRIPS):
            parts = tuple((e, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for e in tree.ends())
            lifts.append((BoundaryFunction(depth, parts), origin, depth, ctx))
            picks = rng.sample(inner, rng.randint(1, 4))
            f = zero_cochain_from_map({v: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for v in picks})
            primitives.append((f, origin, depth, ctx))

    def lifted():
        return [boundary_value(lift(g, o, ctx), o, r, ctx) == g for g, o, r, ctx in lifts]

    def recovered():
        return [primitive_cochain(coboundary(f, ctx), o, r, ctx) == f for f, o, r, ctx in primitives]

    ok = True
    size = f"{len(TREES)} trees x {ROUND_TRIPS}"
    for name, run in (("lift -> boundary_value", lifted), ("coboundary -> primitive_cochain", recovered)):
        seconds, results = best_of_3(run)
        equal = all(results)
        print(f"{name}, {size}: {seconds:.4f} s, all equal: {equal}")
        ok = ok and equal
    return ok


# a cold child: the CLI run as ``python -m weylbuildings`` runs it, that
# writes its own peak RSS in kB to stderr as it exits.  VmHWM starts again
# at exec; ru_maxrss, read only where there is no /proc, takes in on Linux
# the peak of the process that spawned the child
COLD_CHILD = """\
import atexit, runpy, sys

def peak():
    try:
        with open("/proc/self/status") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        import resource
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write(f"peak_kb {kb}\\n")

atexit.register(peak)
sys.argv[0] = "weylbuildings"
runpy.run_module("weylbuildings", run_name="__main__")
"""


def top_request_rows() -> bool:
    """The rows of ``--top-request``, and whether every digest and the
    pieces matched."""
    import gc
    import hashlib
    import json
    import os
    import statistics
    import subprocess
    import tempfile
    import tracemalloc
    from collections import deque

    top = "ball --n 2 --p 3 --R 8 --format json"
    expected = json.loads((SRC.parent / "bench" / "expected.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def digest(stream) -> str:
        sha = hashlib.sha256()
        for chunk in iter(lambda: stream.read(1 << 16), b""):
            sha.update(chunk)
        return sha.hexdigest()

    def cold(request: str, *extra: str) -> tuple[str, float, float]:
        # stdout's digest, wall seconds and the child's own peak RSS in MB;
        # stdout is hashed as it streams
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", COLD_CHILD, *request.split(), *extra],
                                 env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with child.stdout:
            out = digest(child.stdout)
        with child.stderr:
            err = child.stderr.read().decode()
        if child.wait():
            sys.stderr.write(err)
            raise subprocess.CalledProcessError(child.returncode, child.args)
        kb = int(err.splitlines()[-1].removeprefix("peak_kb "))
        return out, time.perf_counter() - start, kb / 1024

    ok = True
    # the harmonic request is the CLI path that reads a ball's distance profile
    for request in (top, "harmonic --n 2 --p 3 --R 5 --format json"):
        for _ in range(3):
            out, wall, peak_mb = cold(request)
            same = out == expected[request]
            print(f"{request}: {wall:.3f} s wall, {peak_mb:.1f} MB own peak RSS, digest matches: {same}")
            ok = ok and same
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "ball.json"
        _, _, peak_mb = cold(top, "--out", str(path))
        with path.open("rb") as f:
            same = digest(f) == expected[top]
    print(f"{top} --out FILE: {peak_mb:.1f} MB own peak RSS, digest matches: {same}")
    ok = ok and same

    from weylbuildings.building import PrimeContext, _ball_rows, ball, ball_to_json
    from weylbuildings.cli import _json_pieces

    def streamed(graph) -> None:
        # the CLI's path: rows made a slice at a time and encoded, each
        # piece dropped once made, as the writer drops it once written
        deque(_json_pieces(_ball_rows(graph)), maxlen=0)

    # the layers with the collector off, as cli.main runs them, and
    # ball_to_json beside them: medians of 3
    gc.disable()
    ms: dict[str, list[float]] = {"ball": [], "streamed rows and encoding": [], "ball_to_json": []}
    for _ in range(3):
        start = time.perf_counter()
        graph = ball(PrimeContext(p=3, n=2), 8)
        built = time.perf_counter()
        streamed(graph)
        encoded = time.perf_counter()
        ball_to_json(graph)
        rendered = time.perf_counter()
        spans = (("ball", start, built), ("streamed rows and encoding", built, encoded),
                 ("ball_to_json", encoded, rendered))
        for name, a, b in spans:
            ms[name].append(1e3 * (b - a))
    one_shot = json.dumps(ball_to_json(graph), sort_keys=True, separators=(",", ":"))
    same = "".join(_json_pieces(_ball_rows(graph))) == one_shot
    del one_shot
    medians = ", ".join(f"{name} {statistics.median(v):.1f} ms" for name, v in ms.items())
    print(f"in process, collector off, ball n=2 p=3 R=8: {medians}; "
          f"the streamed pieces join to json.dumps of ball_to_json: {same}")
    ok = ok and same

    # the ball's own build: the size it keeps, and its peak while the
    # shell search and the face map run
    del graph
    tracemalloc.start()
    graph = ball(PrimeContext(p=3, n=2), 8)
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"tracemalloc of the ball n=2 p=3 R=8: keeps {kept / 2**20:.2f} MB, "
          f"peak {peak / 2**20:.2f} MB while it is built")

    # what each path allocates above the ball it reads, at its peak
    peaks = []
    for name, run in (("streamed rows and encoding", streamed), ("ball_to_json", ball_to_json)):
        tracemalloc.start()
        run(graph)
        peaks.append(f"{name} {tracemalloc.get_traced_memory()[1] / 2**20:.2f} MB")
        tracemalloc.stop()
    del graph
    gc.enable()
    print(f"tracemalloc peak above the ball, n=2 p=3 R=8: {', '.join(peaks)}")

    # with the collector on: the wall seconds, and how many more objects it
    # tracks after them, the graph and its JSON both still held
    gc.collect()
    before = len(gc.get_objects())
    start = time.perf_counter()
    graph = ball(PrimeContext(p=5, n=2), 6)
    data = ball_to_json(graph)
    wall = time.perf_counter() - start
    tracked = len(gc.get_objects()) - before
    print(f"in process, collector on, ball plus ball_to_json n=2 p=5 R=6: {wall:.3f} s wall, "
          f"{tracked} more tracked objects")
    return ok


def main() -> int:
    sys.path.insert(0, str(SRC))
    if sys.argv[1:] == ["--top-request"]:
        return 0 if top_request_rows() else 1
    coxeter_rows()
    hecke = hecke_rows()
    harmonic = harmonic_rows()
    rigidity = rigidity_rows()
    return 0 if boundary_rows() and rigidity and harmonic and hecke else 1


if __name__ == "__main__":
    sys.exit(main())
