"""Which guards of ``src/`` does the Tier-1 suite trip?

A guard is an ``if <cond>:`` (or ``elif``) whose body starts with
``raise ValueError(...)``, ``raise AssertionError(...)`` or
``raise UsageError(...)``.  For each guard in turn the survey sets
``<cond>`` to ``False`` in a scratch copy of the project and runs the Tier-1
suite there with ``-x``.  A failing run, or one that outlives the timeout
(``TIMEOUT`` seconds; a disabled guard can let a loop run forever), trips
the guard; a passing run means no test reaches it, and the guard is printed
as a survivor.

Usage::

    python tests/survey_guards.py

Stdlib only.  The checkout is only read: each worker (two, or one on a
single CPU) copies the project into a temporary directory and mutates and
restores its own copy.  An unmutated run comes first; if it fails, the
survey stops with exit code 2.  Otherwise the exit code is 1 when a guard
survives and 0 when none does.
"""

from __future__ import annotations

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RAISED = {"ValueError", "AssertionError", "UsageError"}
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")
TIMEOUT = 300.0  # seconds per Tier-1 run


def guards() -> list[tuple[str, ast.expr, str]]:
    """(path relative to the project root, condition node, raised message) per
    guard, in file and line order."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.If) or not isinstance(node.body[0], ast.Raise):
                continue
            exc = node.body[0].exc
            call = exc if isinstance(exc, ast.Call) else None
            name = call.func if call is not None else exc
            if isinstance(name, ast.Name) and name.id in RAISED:
                message = ast.unparse(call.args[0]) if call is not None and call.args else ""
                found.append((rel, node.test, f"{name.id}({message})"))
    return sorted(found, key=lambda g: (g[0], g[1].lineno, g[1].col_offset))


def disabled(source: str, cond: ast.expr) -> str:
    """The source with the condition replaced by ``False``; a condition over
    several lines keeps its line breaks inside parentheses, so every other
    line keeps its number."""
    lines = source.splitlines(keepends=True)
    start = sum(len(x) for x in lines[: cond.lineno - 1])
    start += len(lines[cond.lineno - 1].encode()[: cond.col_offset].decode())
    end = sum(len(x) for x in lines[: cond.end_lineno - 1])
    end += len(lines[cond.end_lineno - 1].encode()[: cond.end_col_offset].decode())
    breaks = cond.end_lineno - cond.lineno
    return source[:start] + ("False" if not breaks else "(False" + "\n" * breaks + ")") + source[end:]


def tier1(copy: Path) -> str:
    """'passed', 'failed' or 'timeout' for one Tier-1 run in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    try:
        proc = subprocess.run(command, cwd=copy, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main() -> int:
    found = guards()
    with tempfile.TemporaryDirectory(prefix="survey-guards-") as scratch:
        copies = []
        for k in range(min(2, os.cpu_count() or 1)):
            copy = Path(scratch) / f"copy{k}"
            shutil.copytree(ROOT, copy, ignore=IGNORED)
            copies.append(copy)
        start = time.monotonic()
        baseline = tier1(copies[0])
        if baseline != "passed":
            print(f"the unmutated suite {baseline}; no guard can be judged", file=sys.stderr)
            return 2
        print(f"unmutated Tier-1 passed in {time.monotonic() - start:.0f} s; "
              f"surveying {len(found)} guards", flush=True)

        todo: queue.Queue = queue.Queue()
        for i, guard in enumerate(found):
            todo.put((i, guard))
        outcomes: dict[int, str] = {}
        lock = threading.Lock()

        def work(copy: Path) -> None:
            while True:
                try:
                    i, (rel, cond, message) = todo.get_nowait()
                except queue.Empty:
                    return
                target = copy / rel
                original = target.read_text(encoding="utf-8")
                target.write_text(disabled(original, cond), encoding="utf-8")
                try:
                    outcome = tier1(copy)
                finally:
                    target.write_text(original, encoding="utf-8")
                with lock:
                    outcomes[i] = outcome
                    print(f"[{len(outcomes)}/{len(found)}] {outcome:7} {rel}:{cond.lineno}: "
                          f"{message}", flush=True)

        threads = [threading.Thread(target=work, args=(copy,)) for copy in copies]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    survivors = [found[i] for i in sorted(outcomes) if outcomes[i] == "passed"]
    print(f"\n{len(survivors)} of {len(found)} guards not tripped by Tier-1" + ":" * bool(survivors))
    for rel, cond, message in survivors:
        print(f"  {rel}:{cond.lineno}: {message}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
