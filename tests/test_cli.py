"""The command line: formats, determinism, exit statuses."""

import argparse
import errno
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylbuildings
import weylbuildings.cli
from weylbuildings.cli import main

SRC = str(Path(weylbuildings.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- happy paths -----------------------------------------------------------------


def test_growth_table(capsys):
    code, out, _ = run(capsys, "growth", "--type", "A1~", "--K", "6")
    assert code == 0
    lines = out.splitlines()
    enumerated = next(l for l in lines if l.startswith("enumerated"))
    closed = next(l for l in lines if l.startswith("closed-form"))
    assert enumerated.split()[1:] == ["1", "2", "2", "2", "2", "2", "2"]
    assert closed.split()[1:] == ["1", "2", "2", "2", "2", "2", "2"]
    assert "all equal: yes" in out


def test_growth_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "growth", "--type", "A2~", "--K", "5", "--format", "json")
    code2, out2, _ = run(capsys, "growth", "--type", "A2~", "--K", "5", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["allEqual"] is True
    assert [r["enumerated"] for r in data["rows"]] == [1, 3, 6, 9, 12, 15]


def test_growth_csv_cells(capsys):
    code, out, _ = run(capsys, "growth", "--type", "A1~", "--K", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,enumerated,closedForm,equal"
    assert lines[1] == "0,1,1,yes"
    assert lines[2] == "1,2,2,yes"


def test_period_csv_exact_rationals(capsys):
    code, out, _ = run(capsys, "period", "--type", "A1~", "--q", "2", "--K", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,partialSum,closedForm,tailBound"
    assert lines[3] == "2,1/2,1/3,1/8"
    assert lines[5] == "4,3/8,1/3,1/8"


def test_period_report(capsys):
    code, out, _ = run(capsys, "period", "--type", "A2~", "--q", "2", "--K", "12")
    assert code == 0
    assert "closed form: 1/3" in out
    assert "truncation certified: yes" in out
    assert "matches partial sum: yes" in out


def test_ball_shell_counts(capsys):
    code, out, _ = run(capsys, "ball", "--n", "3", "--p", "2", "--R", "2")
    assert code == 0
    lines = out.splitlines()
    enumerated = next(l for l in lines if l.startswith("enumerated"))
    assert enumerated.split()[1:] == ["1", "6", "24"]
    assert "all equal: yes" in out


def test_ball_json_contains_adjacency(capsys):
    code, out, _ = run(capsys, "ball", "--n", "2", "--p", "2", "--R", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ball"]["shell_sizes"] == [1, 4, 8]
    assert len(data["ball"]["adjacency"]) == 13
    assert len(data["ball"]["chambers"]) == 13


def test_harmonic_scan(capsys):
    code, out, _ = run(capsys, "harmonic", "--n", "2", "--p", "2", "--R", "4")
    assert code == 0
    assert "defects: 0 nonzero / " in out
    assert "pass: yes" in out


def test_hecke_relations(capsys):
    code, out, _ = run(capsys, "hecke", "--type", "A2~", "--q", "3")
    assert code == 0
    assert "pass: yes" in out
    code, out, _ = run(capsys, "hecke", "--type", "C2~", "--q", "7/2")
    assert code == 0
    assert "pass: yes" in out


def test_boundary_checks(capsys):
    code, out, _ = run(capsys, "boundary", "--p", "2", "--R", "2")
    assert code == 0
    assert "pass: yes" in out
    code, out, _ = run(capsys, "boundary", "--p", "3", "--R", "2", "--seed", "4")
    assert code == 0
    assert "pass: yes" in out


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "growth", "--type", "A1~", "--K", "4", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    first = target.read_bytes()
    code, _, _ = run(
        capsys, "growth", "--type", "A1~", "--K", "4", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert target.read_bytes() == first
    assert json.loads(first.decode())["allEqual"] is True


# -- sad paths --------------------------------------------------------------------


def test_out_into_missing_directory_exits_2(tmp_path):
    target = tmp_path / "missing" / "x.json"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "weylbuildings", "growth", "--type", "A1~", "--K", "3",
         "--out", str(target)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert str(target) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "--type", "A1~", "--K", "3", "--format", "json"],
        ["ball", "--n", "2", "--p", "3", "--R", "5", "--format", "json"],
    ],
)
def test_closed_stdout_exits_2(argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child starts
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "weylbuildings", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def _child_env(unbuffered: bool) -> dict:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # stdout's binary layer is then a raw FileIO
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _one_error_line(stderr: str, prefix: str) -> None:
    assert stderr.startswith(prefix)
    assert stderr.count("\n") == 1
    assert "Traceback" not in stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_gone_after_a_few_bytes_exits_2(unbuffered):
    # the document (175,710 bytes) is larger than a pipe's buffer, so the
    # child is still writing when the reader goes
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylbuildings", "ball", "--n", "2", "--p", "3", "--R", "6",
         "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(unbuffered),
    )
    try:
        assert proc.stdout.read(10) == b'{"allEqual'
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    _one_error_line(stderr, "error: cannot write to stdout: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("to_out", [False, True], ids=["stdout", "out"])
def test_a_failed_write_exits_2(to_out, unbuffered):
    argv = [sys.executable, "-m", "weylbuildings", "growth", "--type", "A1~", "--K", "3",
            "--format", "json"]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            argv + ["--out", "/dev/full"] if to_out else argv,
            stdout=subprocess.PIPE if to_out else full,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(unbuffered),
            timeout=60,
        )
    assert proc.returncode == 2
    prefix = "error: cannot write --out /dev/full: " if to_out else "error: cannot write to stdout: "
    _one_error_line(proc.stderr, prefix + os.strerror(errno.ENOSPC))


def test_bad_label_exits_2(capsys):
    code, _, err = run(capsys, "growth", "--type", "Z9~", "--K", "3")
    assert code == 2
    assert "error" in err


def test_bad_q_exits_2(capsys):
    code, _, err = run(capsys, "period", "--type", "A1~", "--q", "1", "--K", "3")
    assert code == 2
    code, _, err = run(capsys, "hecke", "--type", "A1~", "--q", "zebra")
    assert code == 2


def test_bad_prime_exits_2(capsys):
    code, _, err = run(capsys, "ball", "--n", "2", "--p", "4", "--R", "2")
    assert code == 2
    code, _, err = run(capsys, "ball", "--n", "5", "--p", "2", "--R", "2")
    assert code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _exit(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, word",
    [
        (["--bogus", "frobnicate"], "frobnicate"),
        (["-x", "--", "frobnicate"], "frobnicate"),
        (["--", "-h"], "-h"),
        (["-1"], "-1"),
        (["--bogus", "-.5", "growth"], "-.5"),
        (["-"], "-"),
        (["-x", "-y z"], "-y z"),
    ],
)
def test_the_command_word_is_checked_wherever_it_stands(argv, word, capsys, monkeypatch):
    # argparse would print its own message, whose quoting differs by release
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit(argv) == 2
    choices = "'growth', 'period', 'harmonic', 'ball', 'hecke', 'boundary'"
    assert capsys.readouterr().err == (
        "usage: weylbuildings [-h] {growth,period,harmonic,ball,hecke,boundary} ...\n"
        f"weylbuildings: error: argument command: invalid choice: {word!r} (choose from {choices})\n"
    )


@pytest.mark.parametrize("argv", [["--help", "frobnicate"], ["--bogus", "-h", "x"], ["--he", "growth"]])
def test_a_help_flag_before_the_command_word_prints_help(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: weylbuildings [-h]") and "positional arguments" in out


def test_the_command_check_names_every_subcommand():
    # main refuses an unknown command before argparse does, in argparse's
    # words; its list of commands must be the parser's own
    parser = weylbuildings.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == weylbuildings.cli._COMMANDS


def test_library_value_error_is_a_failed_check(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("tail bound fails to certify the truncation")

    monkeypatch.setattr(weylbuildings.period, "make_report", broken)
    code, out, err = run(capsys, "period", "--type", "A1~", "--q", "2", "--K", "3")
    assert code == 1
    assert out == ""
    assert err == "error: check failed: tail bound fails to certify the truncation\n"


def test_library_assertion_is_a_failed_check(capsys, monkeypatch):
    def broken(*args):
        raise AssertionError("a face must lie in exactly p + 1 chambers")

    monkeypatch.setattr(weylbuildings.building, "ball", broken)
    code, out, err = run(capsys, "ball", "--n", "2", "--p", "2", "--R", "2")
    assert code == 1
    assert out == ""
    assert err == "error: check failed: a face must lie in exactly p + 1 chambers\n"


def test_a_face_that_is_not_sharp_fails_the_harmonic_check(capsys, monkeypatch):
    # a ball given other distances: the defect scan's profile refuses its
    # first face that is not one closest chamber and p one step out
    real = weylbuildings.building.ball

    def tampered(ctx, radius):
        g = real(ctx, radius)
        fields = {name: getattr(g, name) for name in g._shown}
        distance = list(g.distance)
        distance[-1] += 2  # a chamber of the last shell, two steps farther out
        return type(g)(**{**fields, "distance": tuple(distance)})

    monkeypatch.setattr(weylbuildings.building, "ball", tampered)
    code, out, err = run(capsys, "harmonic", "--n", "2", "--p", "2", "--R", "3")
    assert code == 1
    assert out == ""
    assert err.startswith(
        "error: check failed: distance multiset over a face must be one minimum and p at"
        " minimum + 1: Face(classes=(LatticeClass("
    )


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_collector_is_paused_for_a_request_and_then_restored(enabled, capsys, monkeypatch):
    during = []

    def report(label, q, cutoff):
        during.append(gc.isenabled())
        if q == 3:
            raise ValueError("tail bound fails to certify the truncation")
        if q == 5:
            raise KeyError("not a check")
        return real(label, q, cutoff)

    real = weylbuildings.period.make_report
    monkeypatch.setattr(weylbuildings.period, "make_report", report)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for q, status in [("2", 0), ("3", 1), ("1", 2)]:
            assert run(capsys, "period", "--type", "B3~", "--q", q, "--K", "3")[0] == status
            assert gc.isenabled() is enabled
        with pytest.raises(KeyError):
            main(["period", "--type", "B3~", "--q", "5", "--K", "3"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False, False]  # q = 1 is refused before the report


# -- bytes pinned by the benchmark -------------------------------------------------------

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
_BALLS = [(2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 5, 2), (2, 5, 3),
          (3, 2, 2), (3, 2, 3), (3, 3, 2)]
# every cli-building request of the benchmark except its ~20k chamber ball
CHEAP_BUILDING_REQUESTS = (
    [("ball", "--n", n, "--p", p, "--R", r) for n, p, r in _BALLS + [(2, 2, 9), (3, 3, 4)]]
    + [("harmonic", "--n", n, "--p", p, "--R", r) for n, p, r in _BALLS]
    + [("boundary", "--p", p, "--R", r, "--seed", seed)
       for p, r in ((2, 4), (3, 3), (5, 2)) for seed in range(5)]
)


@pytest.mark.parametrize(
    "argv",
    [tuple(str(a) for a in req) + ("--format", "json") for req in CHEAP_BUILDING_REQUESTS],
    ids=" ".join,
)
def test_building_requests_match_benchmark_digests(argv, capsys):
    expected = json.loads(EXPECTED.read_text())[" ".join(argv)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


# -- every subcommand's bytes, pinned --------------------------------------------------

# Each record holds an argv, its exit status, its exact stderr and the SHA-256
# of its stdout: every subcommand in table, json and csv, the defaults, usage
# errors raised by the subcommands and by argparse, and each --help.  The
# records were taken before the subcommands shared their renderers; a change
# that alters the CLI's bytes on purpose is the only reason to retake them.
PINNED = json.loads((Path(__file__).resolve().parent / "cli_bytes.json").read_text())


@pytest.mark.parametrize("record", PINNED, ids=lambda r: " ".join(r["argv"]) or "(no arguments)")
def test_cli_bytes_are_pinned(record, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal width
    try:
        code = main(list(record["argv"]))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == record["status"]
    assert out.err == record["stderr"]
    assert hashlib.sha256(out.out.encode()).hexdigest() == record["stdout_sha256"]


# -- the JSON writer ----------------------------------------------------------------

SLICE = weylbuildings.cli._SLICE


def _every_row(rows) -> list:
    # a row maker, rows(lo, hi), stands for all of its rows
    return rows(0, sys.maxsize)


def _one_shot(payload) -> bytes:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_every_row)
    return (text + "\n").encode()


def _ball_payload(*argv: str) -> dict:
    args = weylbuildings.cli.build_parser().parse_args(list(argv))
    return args.func(args)[1]


def _maker(items: list):
    return lambda lo, hi: items[lo:hi]


# a row maker's lengths: none, one, below, at and above a slice, and two slices
_COUNTS = (0, 1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE)


@pytest.mark.parametrize("sink", ["stdout", "stringio", "out"])
@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        list(range(SLICE)),
        list(range(SLICE + 1)),
        tuple((i, -i) for i in range(2 * SLICE + 1)),
        [{"b": [i, {"z": -i, "a": None}], "a": str(i), "c": i % 3 == 0} for i in range(3 * SLICE + 7)],
        {"z": {"y": list(range(2 * SLICE + 1)), "x": {}}, "a": [], "m": [[i] for i in range(SLICE + 1)]},
        *({"rows": _maker([[i, (i, -i)] for i in range(count)]), "k": count} for count in _COUNTS),
    ],
    ids=["empty dict", "empty list", "slice", "slice plus one", "tuple of pairs", "nested dicts",
         "dict of long lists", *(f"row maker of {count}" for count in _COUNTS)],
)
def test_json_writer_matches_one_shot_dumps(payload, sink, tmp_path, capsysbinary, monkeypatch):
    args = argparse.Namespace(format="json", out=str(tmp_path / "x.json") if sink == "out" else None)
    if sink == "stringio":
        monkeypatch.setattr(sys, "stdout", io.StringIO())
    weylbuildings.cli._emit(args, payload, [], ([], []))
    if sink == "out":
        written = (tmp_path / "x.json").read_bytes()
    elif sink == "stringio":
        written = sys.stdout.getvalue().encode()
    else:
        written = capsysbinary.readouterr().out
    assert written == _one_shot(payload)


def test_ball_json_through_stdout_and_out_matches_one_shot_dumps(tmp_path, capsysbinary):
    argv = ["ball", "--n", "2", "--p", "3", "--R", "6", "--format", "json"]
    payload = _ball_payload(*argv)
    assert payload["ball"]["chamber_count"] == 2185 > SLICE
    expected = _one_shot(payload)
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == expected
    target = tmp_path / "ball.json"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert target.read_bytes() == expected


@pytest.mark.parametrize("n, p, radius", [(2, 2, 7), (2, 2, 8), (3, 2, 4), (3, 3, 4)], ids=str)
def test_ball_bytes_are_one_dumps_of_ball_to_json(n, p, radius, tmp_path, capsysbinary):
    # balls on either side of the slice: stdout and --out, whose rows the
    # writer made a slice at a time, are one json.dumps of ball_to_json
    from weylbuildings.building import PrimeContext, ball, ball_to_json

    argv = ["ball", "--n", str(n), "--p", str(p), "--R", str(radius), "--format", "json"]
    payload = _ball_payload(*argv)
    payload["ball"] = ball_to_json(ball(PrimeContext(p=p, n=n), radius))
    expected = _one_shot(payload)
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == expected
    target = tmp_path / "ball.json"
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_bytes() == expected


class _Recorder(io.BytesIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return super().write(data)


def test_no_write_holds_a_quarter_of_a_large_document(monkeypatch):
    argv = ["ball", "--n", "2", "--p", "3", "--R", "7", "--format", "json"]
    expected = _one_shot(_ball_payload(*argv))
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(recorder, encoding="utf-8"))
    assert main(argv) == 0
    assert recorder.getvalue() == expected
    assert max(recorder.sizes) <= len(expected) // 4


# -- python -m ----------------------------------------------------------------------


@pytest.mark.parametrize("module", ["weylbuildings", "weylbuildings.cli"])
@pytest.mark.parametrize("label, status", [("A1~", 0), ("Z9~", 2)])
def test_python_dash_m_exit_status(module, label, status):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "growth", "--type", label, "--K", "3", "--format", "json"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == status
    if status == 0:
        assert [r["enumerated"] for r in json.loads(proc.stdout)["rows"]] == [1, 2, 2, 2]
    else:
        assert proc.stdout == ""
        assert "Z9~" in proc.stderr
