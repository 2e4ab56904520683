"""Record the stdout SHA-256 of every request the CLI catalogues can send.

    python3 bench/record.py

Run at the commit whose output is the reference (the CLI's JSON bytes are
a fixed point of the project).  Every request must exit 0 with nonempty
stdout; the digests go to bench/expected.json and each request's wall
time is printed, to help keep the slots of a catalogue cost-balanced.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import catalogue
from run import BENCH, REQUEST_TIMEOUT_S, Child


def main() -> int:
    digests: dict[str, str] = {}
    for name, cat in catalogue.CATALOGUES.items():
        for argv in catalogue.variants(cat):
            cmd = [sys.executable, str(BENCH / "launch.py"), repr(time.time()), "0", "--", *argv]
            child = Child(cmd, REQUEST_TIMEOUT_S)
            if child.returncode != 0 or not child.out:
                print(f"error: {catalogue.key(argv)} exited {child.returncode}", file=sys.stderr)
                return 1
            digests[catalogue.key(argv)] = hashlib.sha256(child.out).hexdigest()
            print(f"{name:13s} {child.wall:7.3f}s  {catalogue.key(argv)}", flush=True)
    with open(BENCH / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
