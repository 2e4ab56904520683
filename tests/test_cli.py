"""The command line: formats, determinism, exit statuses."""

import hashlib
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
