"""Replay every pinned CLI run of ``cli_bytes.json`` in this interpreter.

    python tests/replay_cli_bytes.py

Each record's argv runs through ``weylbuildings.cli.main`` in-process with
COLUMNS=80, the width the pins were taken at; its exit status, its exact
stderr and the SHA-256 of its stdout must match the record.  The script
prints each mismatch and a count, and exits 1 if any record differs.  It
uses the standard library only, so it runs under every Python the package
supports, with or without pytest, and imports the package from the ``src``
directory beside ``tests``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def replay(record: dict, main) -> list[str]:
    """What differs between a record and a run of its argv, if anything."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(record["argv"]))
        except SystemExit as exc:
            status = exc.code
    found = {
        "status": status,
        "stderr": err.getvalue(),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }
    return [f"{key}: pinned {record[key]!r}, got {x!r}" for key, x in found.items() if x != record[key]]


def main() -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps usage and help to the terminal width
    sys.path.insert(0, str(HERE.parent / "src"))
    from weylbuildings.cli import main as cli_main

    records = json.loads((HERE / "cli_bytes.json").read_text(encoding="utf-8"))
    failed = 0
    for record in records:
        diffs = replay(record, cli_main)
        if diffs:
            failed += 1
            print(" ".join(record["argv"]) or "(no arguments)")
            for line in diffs:
                print(f"  {line}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {len(records) - failed} of {len(records)} pins match")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
