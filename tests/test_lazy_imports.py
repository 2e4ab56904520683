"""Lazy loading: the package namespace and each CLI subcommand import only
the modules they use.

Every check runs in a fresh interpreter, because this test process has
already imported every module.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylbuildings

SRC = str(Path(weylbuildings.__file__).resolve().parents[1])
PINNED = {
    " ".join(r["argv"]): r
    for r in json.loads((Path(__file__).resolve().parent / "cli_bytes.json").read_text())
}

# prints the library modules loaded so far, after the code before it ran
LOADED = 'print(sorted(m for m in __import__("sys").modules if m.startswith("weylbuildings.")))'


def fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, COLUMNS="80"),
        timeout=60,
    )


def test_importing_the_cli_loads_no_library_module():
    proc = fresh(f"import weylbuildings.cli\n{LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['weylbuildings.cli']\n"


@pytest.mark.parametrize(
    "argv, modules",
    [
        ("growth --type A2~ --K 5", {"coxeter", "exact", "poincare"}),
        ("hecke --type A2~ --q 3", {"coxeter", "exact", "hecke"}),
        ("period --type B3~ --q 2 --K 3", {"coxeter", "exact", "period", "poincare"}),
        ("period --type A1~ --q 2 --K 5", {"building", "coxeter", "exact", "period", "poincare"}),
        ("ball --n 2 --p 3 --R 2", {"building", "coxeter", "exact"}),
        ("harmonic --n 3 --p 2 --R 2", {"building", "exact", "harmonic"}),
        ("boundary --p 3 --R 2 --seed 4", {"boundary", "building", "exact"}),
    ],
    ids=lambda x: x if isinstance(x, str) else None,
)
def test_a_subcommand_loads_only_what_it_runs(argv, modules):
    record = PINNED[f"{argv} --format json"]
    # the module list goes to stderr, after the subcommand's own output
    code = (
        "import sys\nfrom weylbuildings.cli import main\n"
        "status = main(sys.argv[1:])\n"
        f"sys.stdout = sys.stderr\n{LOADED}\nsys.exit(status)"
    )
    proc = fresh(code, *record["argv"])
    *err, loaded = proc.stderr.splitlines(keepends=True)
    assert proc.returncode == record["status"]
    assert "".join(err) == record["stderr"]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == record["stdout_sha256"]
    assert loaded == repr(sorted(f"weylbuildings.{m}" for m in modules | {"cli"})) + "\n"


def test_star_import_binds_every_public_name():
    proc = fresh(
        "from weylbuildings import *\nimport weylbuildings\n"
        "print([n for n in weylbuildings.__all__ if n not in globals()], len(weylbuildings.__all__))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"[] {len(weylbuildings.__all__)}\n"


def test_dir_lists_all_the_public_names_and_the_submodules():
    proc = fresh(
        "import weylbuildings\nnames = set(dir(weylbuildings))\n"
        "print('__all__' in names, set(weylbuildings.__all__) <= names, 'building' in names)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True True\n"


def test_a_submodule_resolves_without_an_import():
    proc = fresh(
        "import weylbuildings\nprint(weylbuildings.building.__name__)\n"
        "print(weylbuildings.ball is weylbuildings.building.ball)\n" + LOADED
    )
    assert proc.returncode == 0, proc.stderr
    # reading ``ball`` searches coxeter and poincare before building
    assert proc.stdout == (
        "weylbuildings.building\nTrue\n"
        "['weylbuildings.building', 'weylbuildings.coxeter', 'weylbuildings.exact', "
        "'weylbuildings.poincare']\n"
    )


def test_an_unknown_name_raises_attribute_error_naming_it():
    proc = fresh(
        "import weylbuildings\n"
        "try:\n    weylbuildings.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'weylbuildings' has no attribute 'no_such_name'\n"


# ``dataclasses`` and ``inspect``, with the ``ast``, ``dis`` and ``tokenize``
# that ``inspect`` loads, are the largest import a cold request could make
HEAVY = ("dataclasses", "inspect")


@pytest.mark.parametrize(
    "argv",
    [
        "growth --type A2~ --K 5",
        "hecke --type A2~ --q 3",
        "ball --n 2 --p 3 --R 2",
        "boundary --p 3 --R 2 --seed 4",
    ],
)
def test_no_subcommand_imports_dataclasses_or_inspect(argv):
    heavy = f"print(sorted(m for m in {HEAVY!r} if m in __import__('sys').modules))"
    baseline = fresh(heavy)
    assert baseline.returncode == 0, baseline.stderr
    code = (
        "import sys\nfrom weylbuildings.cli import main\n"
        f"status = main(sys.argv[1:])\nsys.stdout = sys.stderr\n{heavy}\nsys.exit(status)"
    )
    proc = fresh(code, *argv.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] + "\n" == baseline.stdout
