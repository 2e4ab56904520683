"""Self-test of the benchmark's exactness gate.

    python3 bench/selftest.py

Shows that a corrupted expected value counts as a failure and records no
time, on both gates: the stdout digest of a cold CLI request and a
recorded value of the warm session.  Exits 0 when every check holds.
"""

from __future__ import annotations

import sys

import catalogue
import session
from run import SRC, Tally, load_expected, run_cli_request


def check(name: str, ok: bool, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        failures.append(name)


def cli_gate(failures: list[str]) -> None:
    argv = catalogue.hecke("A1~", "2")
    digest = load_expected()[catalogue.key(argv)]
    good = Tally()
    run_cli_request(argv, digest, False, good)
    check("cli: recorded digest passes and records one time",
          good.failed == 0 and len(good.latencies) == 1, failures)
    corrupted = "0" * 64 if digest != "0" * 64 else "1" * 64
    bad = Tally()
    run_cli_request(argv, corrupted, False, bad)
    check("cli: corrupted digest fails as a wrong answer and records no time",
          bad.failed == 1 and bad.wrong == 1 and not bad.latencies, failures)


def session_gate(failures: list[str]) -> None:
    sys.path.insert(0, str(SRC))
    import weylbuildings

    state = session.Session(weylbuildings)
    session.ROUND = (("rigidity", 3),)
    good = session.run_rounds(state, seed=1, rounds=1)
    check("session: recorded value passes and records three times",
          good["failed"] == 0 and len(good["latencies"]) == 3, failures)
    session.RIGIDITY_EXPECTED = not session.RIGIDITY_EXPECTED
    bad = session.run_rounds(state, seed=1, rounds=1)
    check("session: corrupted recorded value fails and records no time",
          bad["failed"] == 3 and bad["wrong"] == 3 and not bad["latencies"], failures)


def main() -> int:
    failures: list[str] = []
    cli_gate(failures)
    session_gate(failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
