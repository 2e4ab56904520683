"""Code lines of the package: lines that carry code, not blank, not
comment-only and not part of a docstring.

    python tests/code_lines.py             # each module of src/ and the total
    python tests/code_lines.py --requests  # what one cold request of each subcommand compiles

With ``--requests`` each subcommand request runs in a fresh interpreter
without a bytecode cache, its output sent to ``os.devnull``, and the
``weylbuildings`` modules it loaded are listed with their code lines and
their total, ``cli`` and the package's ``__init__`` included: the code
that request compiles.  Beside the total is the median wall time of
``RUNS`` such cold runs, from the spawn to the exit.  A bare
``import weylbuildings.cli`` is listed first, the same way.  Each line
also names which of ``dataclasses`` and ``inspect`` were loaded, and so
does a first line for the interpreter alone.  The interpreters write no
bytecode, so the package is compiled on each run unless ``src/`` holds a
``__pycache__`` already.  Stdlib only; run from the root of the checkout.
"""

from __future__ import annotations

import ast
import os
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
REQUESTS = (
    "",  # the import alone
    "growth --type A2~ --K 5",
    "hecke --type A2~ --q 3",
    "period --type B3~ --q 2 --K 3",
    "period --type A1~ --q 2 --K 5",
    "ball --n 2 --p 3 --R 2",
    "harmonic --n 3 --p 2 --R 2",
    "boundary --p 3 --R 2 --seed 4",
)
RUNS = 5  # cold runs per request, for the median wall time
HEAVY = "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
# imports the CLI, runs the request if one is given, and prints the HEAVY
# modules loaded, then each loaded package module's name and file
PROBE = (
    "import os, sys\nfrom weylbuildings.cli import main\n"
    "if sys.argv[1:]:\n"
    "    main(sys.argv[1:] + ['--format', 'json', '--out', os.devnull])\n"
    f"{HEAVY}\n"
    "for name, module in sorted(sys.modules.items()):\n"
    "    if name.split('.')[0] == 'weylbuildings':\n"
    "        print(name, module.__file__)"
)


def code_lines(path: Path) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    with path.open("rb") as f:
        code = {t.start[0] for t in tokenize.tokenize(f.readline) if t.type not in BLANK}
    return len(code - docstrings)


def modules() -> None:
    total = 0
    for path in sorted((SRC / "weylbuildings").rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} code lines {path.relative_to(SRC.parent)}")
    print(f"{total:6d} code lines total")


def requests() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")

    def probe(*argv: str) -> tuple[list[str], float]:
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", *argv], env=env,
                             capture_output=True, text=True, check=True).stdout
        return out.splitlines(), time.perf_counter() - start

    print(f"interpreter alone: dataclasses/inspect loaded: {probe(f'import sys; {HEAVY}')[0][0]}")
    for request in REQUESTS:
        runs = [probe(PROBE, *request.split()) for _ in range(RUNS)]
        heavy, *modules = runs[0][0]
        loaded = (line.split(" ", 1) for line in modules)
        counts = {name: code_lines(Path(file)) for name, file in loaded}
        listed = ", ".join(f"{name} {count}" for name, count in counts.items())
        wall = statistics.median(seconds for _, seconds in runs)
        print(f"{sum(counts.values()):6d} code lines, {wall * 1000:5.1f} ms cold (median of {RUNS}), "
              f"compiled by {request or 'import weylbuildings.cli'}: {listed}; "
              f"dataclasses/inspect loaded: {heavy}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--requests"]:
        requests()
    else:
        modules()
