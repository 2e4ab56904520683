"""Benchmark of the weylbuildings CLI and library; see bench/README.md.

    python3 bench/run.py --workload {cli-weyl,cli-building,session}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Every workload is a closed loop
with one client: a request starts only after the previous one finished.
The seed generates every request; the program under test receives only
the generated argv or call arguments.  Each result is checked exactly
before its time counts.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass over the
same requests, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import catalogue
from launch import TRACE_PREFIX

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("cli-weyl", "cli-building", "session")
# latency_tail_s is this percentile: the highest with at least ten
# requests beyond it in the smallest run (MIN_UNITS cycles or rounds:
# 72, 63 and 1,080 verified requests).
TAIL_PERCENTILE = {"cli-weyl": 87, "cli-building": 85, "session": 99}
# Wall seconds one cycle (cli) or one round (session) took at the seed
# commit.  --seconds / NOMINAL_S fixes how many a run does, so one seed
# sends the same requests to every commit.
NOMINAL_S = {"cli-weyl": 10.5, "cli-building": 10.5, "session": 0.15}
MIN_UNITS = {"cli-weyl": 3, "cli-building": 3, "session": 40}
# set-up time is the median of this many samples per run
SETUP_SAMPLES = {"cli": 9, "session": 3}
REQUEST_TIMEOUT_S = 60
SESSION_TIMEOUT_S = 150
# The machine's speed drifts by up to 1.8x within minutes.  A fresh
# interpreter importing a few standard modules, which no change to the
# program can speed up or slow down, is timed right before each request
# (each block of session rounds); the request's time is scaled by
# REFERENCE_S / that reference time, so it reads as seconds at the
# machine's usual speed.  REFERENCE_S is about the reference's median time
# on the reference machine (see bench/README.md).
REFERENCE = [sys.executable, "-c", "import argparse, fractions, json"]
REFERENCE_S = 0.075


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Tally:
    """Gate results of one pass: verified latencies and failures."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.busy_s = 0.0
        self.errors: dict[str, int] = {}

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def merge_session(self, res: dict) -> None:
        self.latencies += res["latencies"]
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.wrong += res["wrong"]
        self.busy_s += res["busy_s"]
        for reason, count in res["errors"].items():
            self.errors[reason] = self.errors.get(reason, 0) + count


def add_counts(total: dict[str, float], part: dict[str, float]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0) + value


class Child:
    """A finished child process: exit status, output and wall time."""

    def __init__(self, cmd: list[str], timeout: float) -> None:
        """Run ``cmd`` with ``src/`` on its path and wait for it to exit.

        The wait blocks in ``waitpid``: ``subprocess`` waits with a timeout
        by polling at up to 50 ms steps, which would quantize the wall
        time.  A timer kills the child instead when ``timeout`` passes.
        """
        self.timed_out = False
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env(), cwd=ROOT)

        def expire() -> None:
            self.timed_out = True
            proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            self.out, self.err = proc.communicate()
        finally:
            timer.cancel()
        self.wall = time.perf_counter() - start
        self.returncode = proc.returncode


# -- cold CLI requests -------------------------------------------------------------


def run_cli_request(argv, digest: str | None, trace: bool, tally: Tally, layers: dict | None = None,
                    scale: float = 1.0) -> bytes:
    """Run one request in a fresh interpreter and gate its stdout.

    Passes only with exit status 0, nonempty stdout and a stdout SHA-256
    equal to ``digest``.  Exit status 1 (a failed check) or a digest
    mismatch is a wrong answer; other exits, empty stdout and timeouts
    are failures.  Only a passing request records its latency, its wall
    time times ``scale``.
    """
    cmd = [sys.executable, str(BENCH / "launch.py"), repr(time.time()), str(int(trace)), "--", *argv]
    tally.attempted += 1
    child = Child(cmd, REQUEST_TIMEOUT_S)
    tally.busy_s += child.wall * scale
    if child.timed_out:
        tally.fail("timeout")
        return b""
    out, err = child.out, child.err
    if layers is not None:
        for line in err.decode(errors="replace").splitlines():
            if line.startswith(TRACE_PREFIX):
                add_counts(layers, json.loads(line[len(TRACE_PREFIX):]))
    if child.returncode != 0:
        tally.fail(f"exit {child.returncode}", wrong=child.returncode == 1)
    elif not out:
        tally.fail("empty stdout")
    elif hashlib.sha256(out).hexdigest() != digest:
        tally.fail("stdout digest differs from the recorded one", wrong=True)
    else:
        tally.latencies.append(child.wall * scale)
    return out


IMPORT_CLI = [sys.executable, "-c", "import weylbuildings.cli"]


def cold_seconds(cmd: list[str]) -> float:
    """Wall time of a fresh interpreter running ``cmd``, which must succeed."""
    child = Child(cmd, REQUEST_TIMEOUT_S)
    if child.returncode != 0:
        sys.stderr.write(child.err.decode(errors="replace"))
        raise SystemExit(f"{' '.join(cmd[1:])} failed with exit status {child.returncode}")
    return child.wall


def speed_scale() -> float:
    """REFERENCE_S / the reference interpreter's time now.

    A time measured right after this call, times the result, reads as
    seconds at the machine's usual speed.
    """
    return REFERENCE_S / cold_seconds(REFERENCE)


def report_speed(scales: list[float]) -> None:
    slowdown = 1 / statistics.median(scales)
    print(f"machine speed: the reference interpreter took {slowdown:.3f}x its usual time", file=sys.stderr)


def load_expected() -> dict[str, str]:
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def cli_pass(requests, expected, trace: bool, setup_samples: list[float] | None = None):
    """One pass over the requests; returns the tally, layer sums and wall time.

    With ``setup_samples`` (the measured pass), each request's time is
    scaled by a reference timed right before it (``speed_scale``), and a
    cold import, scaled the same way, is timed SETUP_SAMPLES times:
    before evenly spaced requests and after the last, so set-up is
    sampled across the run.
    """
    tally, layers, stdout_bytes = Tally(), {}, 0
    gaps = SETUP_SAMPLES["cli"] - 1
    sample_before = {k * len(requests) // gaps for k in range(gaps)}
    scales: list[float] = []
    start = time.perf_counter()
    for i, argv in enumerate(requests):
        scale = 1.0
        if setup_samples is not None:
            scale = speed_scale()
            scales.append(scale)
            if i in sample_before:
                setup_samples.append(cold_seconds(IMPORT_CLI) * scale)
        out = run_cli_request(argv, expected.get(catalogue.key(argv)), trace, tally, layers if trace else None,
                              scale)
        stdout_bytes += len(out)
    if setup_samples is not None:
        scale = speed_scale()
        setup_samples.append(cold_seconds(IMPORT_CLI) * scale)
        report_speed(scales + [scale])
    layers["cli.stdout_bytes"] = stdout_bytes
    return tally, layers, time.perf_counter() - start


def cli_workload(workload: str, seed: int, units: int, trace: bool) -> tuple[Tally, dict]:
    expected = load_expected()
    requests = [argv for cycle in catalogue.draw_cycles(catalogue.CATALOGUES[workload], seed, units)
                for argv in cycle]
    cold_seconds(IMPORT_CLI)  # writes the bytecode cache, so every sample below reads it
    if not trace:
        setups: list[float] = []
        tally, _, _ = cli_pass(requests, expected, False, setups)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return tally, {"setup_s": statistics.median(setups), **latency_metrics(workload, tally),
                       "peak_rss_mb": peak_kb / 1024}
    _, _, plain_wall = cli_pass(requests, expected, False)
    tally, layers, traced_wall = cli_pass(requests, expected, True)
    return tally, layer_metrics(layers, tally, traced_wall / plain_wall)


# -- warm library session ---------------------------------------------------------


def run_session_child(seed: int, rounds: int, trace: bool, setup_only: bool = False) -> tuple[dict, float]:
    cmd = [sys.executable, str(BENCH / "session.py"), "--seed", str(seed), "--rounds", str(rounds),
           "--trace", str(int(trace)), "--spawned", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    child = Child(cmd, SESSION_TIMEOUT_S)
    if child.returncode != 0 or not child.out.strip():
        sys.stderr.write(child.err.decode(errors="replace"))
        raise SystemExit(f"session process failed with exit status {child.returncode}")
    return json.loads(child.out.decode().splitlines()[-1]), child.wall


def session_workload(seed: int, rounds: int, trace: bool) -> tuple[Tally, dict]:
    tally = Tally()
    if not trace:
        # set-up alone before and after the timed session, which sets up too
        before = [run_session_child(seed, 0, False, setup_only=True)[0]["setup_s"]
                  for _ in range(SETUP_SAMPLES["session"] // 2)]
        res, _ = run_session_child(seed, rounds, False)
        after = [run_session_child(seed, 0, False, setup_only=True)[0]["setup_s"]
                 for _ in range(SETUP_SAMPLES["session"] // 2)]
        tally.merge_session(res)
        report_speed(res["scales"])
        metrics = {"setup_s": statistics.median(before + [res["setup_s"]] + after)}
        return tally, {**metrics, **latency_metrics("session", tally), "peak_rss_mb": res["maxrss_kb"] / 1024}
    _, plain_wall = run_session_child(seed, rounds, False)
    res, traced_wall = run_session_child(seed, rounds, True)
    tally.merge_session(res)
    layers = dict(res["trace"])
    layers["process.start_import_s"] = res["start_import_s"]
    return tally, layer_metrics(layers, tally, traced_wall / plain_wall)


# -- metrics ------------------------------------------------------------------------


def latency_metrics(workload: str, tally: Tally) -> dict[str, float]:
    lat = tally.latencies
    if len(lat) < 2:
        return {"requests_per_s": 0.0, "latency_p50_s": 0.0, "latency_tail_s": 0.0, "verified_ratio": 0.0}
    tail = statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PERCENTILE[workload] - 1]
    return {
        "requests_per_s": len(lat) / tally.busy_s,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "verified_ratio": len(lat) / tally.attempted,
    }


def layer_metrics(layers: dict[str, float], tally: Tally, overhead: float) -> dict[str, float]:
    out = {name: layers.get(name, 0) for name in declared_units()[1]}
    out["cli.self_s"] = sum(v for k, v in layers.items() if k.startswith("cli.") and k.endswith(".self_s"))
    out["failed_ratio"] = tally.failed / tally.attempted
    out["trace.overhead_ratio"] = overhead
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "weylbuildings" / "cli.py").is_file():
        print(f"error: no weylbuildings sources under {SRC}", file=sys.stderr)
        return 2
    units = max(MIN_UNITS[args.workload], round(args.seconds / NOMINAL_S[args.workload]))
    if args.workload == "session":
        tally, metrics = session_workload(args.seed, units, bool(args.trace))
    else:
        tally, metrics = cli_workload(args.workload, args.seed, units, bool(args.trace))
    units_of = declared_units()[args.trace]
    for reason, count in sorted(tally.errors.items()):
        print(f"failed {count}x: {reason}", file=sys.stderr)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
