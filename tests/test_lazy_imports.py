"""Lazy loading: the package namespace and each CLI subcommand import only
the modules they use, and a request imports only its own subcommand's
module of ``weylbuildings.commands``.

Every check runs in a fresh interpreter, because this test process has
already imported every module.
"""

import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import weylbuildings
import weylbuildings.commands
from weylbuildings.cli import _COMMANDS

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


def test_every_subcommand_is_one_command_module():
    # the parser's subcommands and the modules of weylbuildings.commands are
    # the same names, and each module's run is what main dispatches to
    found = {m.name for m in pkgutil.iter_modules(weylbuildings.commands.__path__)}
    assert found == set(_COMMANDS)
    for name in _COMMANDS:
        assert callable(importlib.import_module(f"weylbuildings.commands.{name}").run)


@pytest.mark.parametrize(
    "argv, modules",
    [
        ("growth --type A2~ --K 5", {"coxeter", "exact", "poincare"}),
        ("hecke --type A2~ --q 3", {"coxeter", "exact", "hecke"}),
        ("period --type B3~ --q 2 --K 3", {"coxeter", "exact", "period", "poincare"}),
        (
            "period --type A1~ --q 2 --K 5",
            {"building", "coxeter", "exact", "lattice", "period", "poincare"},
        ),
        # N(k) is read off its closed form: no Coxeter layer
        ("ball --n 2 --p 3 --R 2", {"building", "exact", "lattice"}),
        ("harmonic --n 3 --p 2 --R 2", {"building", "exact", "harmonic", "lattice"}),
        # the tree reads the vertex layer alone: no chamber layer, no building
        ("boundary --p 3 --R 2 --seed 4", {"boundary", "exact", "lattice"}),
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
    # the library modules, the CLI, and exactly one command module: its own
    command = f"commands.{record['argv'][0]}"
    assert loaded == repr(sorted(f"weylbuildings.{m}" for m in modules | {"cli", "commands", command})) + "\n"


def test_no_request_loads_the_group_action():
    # every pinned request, of every subcommand, in one fresh interpreter
    code = (
        f"import sys\nsys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import replay_cli_bytes\nstatus = replay_cli_bytes.main()\n"
        "print('weylbuildings.action' in sys.modules)\nsys.exit(status)"
    )
    proc = fresh(code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        f"Python {'.'.join(map(str, sys.version_info[:3]))}: {len(PINNED)} of {len(PINNED)} pins match",
        "False",
    ]


def test_the_group_action_resolves_from_building():
    # in a fresh interpreter, so that each name's first read goes through
    # building's module __getattr__, which imports action and binds the name
    code = (
        "import pickle, sys\nimport weylbuildings.building as building\n"
        "missing = hasattr(building, 'no_such_name')\n"
        "print(missing, 'weylbuildings.action' in sys.modules)\n"
        "from weylbuildings.building import act, lattice_from_rows, _canonical\n"
        "import weylbuildings.action as action\n"
        "public = [name for name in building._ACTION if not name.startswith('_')]\n"
        "print(set(public) <= set(building.__all__))\n"
        "print({getattr(building, name).__module__ for name in public})\n"
        "print(all(getattr(building, name) is getattr(action, name) for name in building._ACTION))\n"
        "print([pickle.loads(pickle.dumps(f)) is f for f in (act, lattice_from_rows)])\n"
        "import weylbuildings\nprint(weylbuildings.act is act, 'act' in weylbuildings.__all__)"
    )
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "False False\nTrue\n{'weylbuildings.building'}\nTrue\n[True, True]\nTrue True\n"
    )


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
    # reading ``ball`` searches coxeter and poincare before building, which
    # loads its vertex layer
    assert proc.stdout == (
        "weylbuildings.building\nTrue\n"
        "['weylbuildings.building', 'weylbuildings.coxeter', 'weylbuildings.exact', "
        "'weylbuildings.lattice', 'weylbuildings.poincare']\n"
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


@pytest.mark.parametrize("fmt, loads_csv", [("json", False), ("csv", True)])
def test_csv_loads_only_for_csv_output(fmt, loads_csv):
    probe = "print('csv' in __import__('sys').modules)"
    baseline = fresh(probe)
    assert baseline.returncode == 0, baseline.stderr
    assert baseline.stdout == "False\n"
    code = (
        "import sys\nfrom weylbuildings.cli import main\n"
        f"status = main(sys.argv[1:])\nsys.stdout = sys.stderr\n{probe}\nsys.exit(status)"
    )
    proc = fresh(code, "ball", "--n", "2", "--p", "3", "--R", "2", "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == str(loads_csv)
