"""Command-line front end: every verification pipeline, machine-readable.

Subcommands
    growth    enumerated growth table vs closed-form series, side by side
    period    partial sums, closed form, tail certificate, geometric check
    harmonic  defect scan of the sign-decaying vector over a ball
    ball      shell counts of an enumerated ball vs the counting formula
    hecke     presentation relations and character checks at a parameter
    boundary  tree cochain, end chart and boundary-map checks

Shared flags: --type, --q, --p, --n, --R, --K, --format {json,csv,table},
--out PATH, --seed.  All numbers are exact rationals rendered as text;
rows carry a method column (enumerated vs closed-form) where two routes
are compared.  Identical configuration produces byte-identical JSON.
JSON is written in slices, a dict key by key and a long list a few
thousand items at a time, so no copy of a whole document is held; the
bytes are those of one ``json.dumps`` call.  The encoder runs without its
cycle scan (``check_circular=False``): every payload is a tree of
containers the subcommand has just built, which may share a value but
never contains itself.

This module holds the parser, the shared renderings, the writer and
``main``; each subcommand's body is its own module, ``commands.<name>``,
which ``main`` imports when it dispatches, so a cold request compiles
only its own subcommand.  The body imports the library modules it uses
when it runs, so a request loads only those, and ``csv`` loads only for
CSV output.

Exit status: 0 when every exact check passes, 1 when any check fails,
2 on usage errors (bad flags, malformed labels, invalid parameters).  A
``ValueError`` or ``AssertionError`` raised by the library once the
arguments are validated is a broken invariant: it is reported as
``error: check failed: <message>`` with exit status 1.  A write that
fails or stops short, to stdout (a reader that has gone, as in
``... | head -c 10``, or a full disk) or to ``--out``, is reported as
one ``error:`` line with exit status 2, like an ``--out`` path that
cannot be opened.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import os
import re
import sys
from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .lattice import PrimeContext

__all__ = ["build_parser", "main", "entrypoint"]


class UsageError(ValueError):
    """Bad parameter combination; maps to exit status 2."""


# what a subcommand returns: whether every check passed, the JSON payload,
# the table lines and the CSV (header, rows); ``main`` renders one of them
Result = tuple[bool, dict, list[str], tuple[list[str], list]]


def _cell(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    return str(x)  # a Fraction prints as n or n/d


# items of a long list that one ``json.dumps`` call encodes
_SLICE = 2048


def _json_pieces(obj):
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` in pieces
    that join to the same text: a dict is walked in the encoder's order,
    ``sorted(obj.items())``, and a list or tuple longer than ``_SLICE`` is
    encoded ``_SLICE`` items at a time, so no piece holds a large document
    whole.  Every key must be a ``str``, as it is in every payload."""
    if isinstance(obj, dict):
        opener = "{"
        for key, value in sorted(obj.items()):
            yield opener + json.dumps(key) + ":"
            yield from _json_pieces(value)
            opener = ","
        yield "}" if obj else "{}"
    elif isinstance(obj, (list, tuple)) and len(obj) > _SLICE:
        for i in range(0, len(obj), _SLICE):
            part = json.dumps(
                obj[i : i + _SLICE], sort_keys=True, separators=(",", ":"), check_circular=False
            )
            yield ("," if i else "[") + part[1:-1]
        yield "]"
    else:
        yield json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def _write(stream, text: str) -> None:
    """Write ``text`` to ``stream`` in full.  A text stream with no binary
    layer (a StringIO in place of stdout) takes the text; any other gets
    its UTF-8 bytes on the binary layer, written again from where a raw
    one (``python -u``) stopped, so that a reader that has gone raises
    ``BrokenPipeError`` instead of the rest being dropped in silence."""
    binary = getattr(stream, "buffer", stream)
    if isinstance(binary, io.TextIOBase):
        binary.write(text)
        return
    view = memoryview(text.encode())
    while view:
        view = view[binary.write(view) :]


def _emit(args, payload: dict, table_lines: list[str], csv_table: tuple[list[str], list[list]]) -> None:
    if args.format == "json":
        pieces = itertools.chain(_json_pieces(payload), ["\n"])
    elif args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header, rows = csv_table
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(x) for x in row])
        pieces = [buf.getvalue()]
    else:
        pieces = ["\n".join(table_lines) + "\n"]
    if args.out:
        try:
            fh = open(args.out, "wb")
        except OSError as exc:
            raise UsageError(f"cannot open --out {args.out}: {exc.strerror}") from exc
        try:
            with fh:
                for piece in pieces:
                    _write(fh, piece)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc
        return
    try:
        sys.stdout.flush()  # what was printed before goes first
        for piece in pieces:
            _write(sys.stdout, piece)
        sys.stdout.flush()  # a failed write raises here, inside main, not at exit
    except OSError as exc:
        # the flush at exit would fail the same way: send what is left nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write to stdout: {exc.strerror}") from exc


def _columns(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def _parse_label(text: str):
    from .coxeter import parse_type_label

    try:
        return parse_type_label(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# -- shared renderings --------------------------------------------------------


def _comparison(title: str, enumerated, closed, closed_json) -> Result:
    """Enumerated against closed-form values, k by k: the JSON rows and
    ``allEqual``, the transposed table grid and the CSV rows."""
    rows = [[k, a, b, a == b] for k, (a, b) in enumerate(zip(enumerated, closed))]
    ok = all(e for *_, e in rows)
    payload = {
        "rows": [
            {"k": k, "enumerated": a, "closedForm": closed_json(b), "equal": e}
            for k, a, b, e in rows
        ],
        "allEqual": ok,
    }
    grid = [
        [name] + [_cell(row[i]) for row in rows]
        for i, name in enumerate(("method", "enumerated", "closed-form"))
    ]
    table = [title] + _columns(grid) + [f"all equal: {_cell(ok)}"]
    return ok, payload, table, (["k", "enumerated", "closedForm", "equal"], rows)


def _checks(title: str, checks: list[tuple[str, bool]]) -> Result:
    """Named pass/fail checks: the JSON ``checks`` and ``pass``, one
    ``name: yes`` line each and the ``check,pass`` CSV."""
    ok = all(passed for _, passed in checks)
    payload = {"checks": [{"name": name, "pass": passed} for name, passed in checks], "pass": ok}
    table = [title] + [f"{name}: {_cell(passed)}" for name, passed in checks]
    return ok, payload, table + [f"pass: {_cell(ok)}"], (["check", "pass"], checks)


# -- plumbing ----------------------------------------------------------------


def _context(args) -> PrimeContext:
    from .lattice import PrimeContext

    if args.n not in (2, 3):
        raise UsageError("--n must be 2 or 3")
    if args.R < 0:
        raise UsageError("--R must be nonnegative")
    try:
        return PrimeContext(p=args.p, n=args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _run(args) -> Result:
    """The subcommand's own module, imported now, runs the request."""
    return import_module(f".commands.{args.command}", __package__).run(args)


_COMMANDS = ("growth", "period", "harmonic", "ball", "hecke", "boundary")
_FORMATS = ("json", "csv", "table")


def _invalid_choice(value: str, choices: tuple[str, ...]) -> str:
    # argparse's words and quotes, which later 3.13 releases print unquoted
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _command_word(argv: list[str]) -> str | None:
    """The argument argparse takes for the subcommand: the first that is
    not an option, or the one after "--"; None if a help flag comes first,
    so that argparse prints the help.  Like argparse, it reads "-", a
    negative number and anything with a space as a value, not an option."""
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            return next(rest, None)
        if arg == "-h" or (arg.startswith("--h") and "--help".startswith(arg)):
            return None
        if not arg.startswith("-") or arg == "-" or " " in arg or re.fullmatch(r"-\d+|-\d*\.\d+", arg):
            return arg
    return None


def _format(text: str) -> str:
    if text not in _FORMATS:
        raise argparse.ArgumentTypeError(_invalid_choice(text, _FORMATS))
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylbuildings",
        description="exact checks for Weyl growth, Hecke relations, building balls, "
        "harmonic cochains, tree boundaries and the alternating period",
    )
    parser.set_defaults(func=_run)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", type=_format, default="table", metavar="{json,csv,table}")
        p.add_argument("--out", default=None, help="write output to this path")

    def ball_options(p: argparse.ArgumentParser, radius: int, radius_help=None) -> None:
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--p", type=int, default=2)
        p.add_argument("--R", type=int, default=radius, help=radius_help)

    g = sub.add_parser("growth", help="enumerated growth vs closed-form series")
    g.add_argument("--type", required=True, help="affine type label like A2~")
    g.add_argument("--K", type=int, default=10, help="largest length to compare")
    common(g)

    p = sub.add_parser("period", help="partial sums, closed form, certificates")
    p.add_argument("--type", required=True)
    p.add_argument("--q", required=True, help="residue cardinality, integer >= 2")
    p.add_argument("--K", type=int, default=10)
    common(p)

    h = sub.add_parser("harmonic", help="defect scan over an enumerated ball")
    ball_options(h, 4)
    common(h)

    b = sub.add_parser("ball", help="shell counts vs the counting formula")
    ball_options(b, 3)
    common(b)

    k = sub.add_parser("hecke", help="presentation relations at a parameter")
    k.add_argument("--type", required=True)
    k.add_argument("--q", required=True, help="rational parameter, e.g. 3 or 7/2")
    common(k)

    d = sub.add_parser("boundary", help="tree boundary-map checks")
    ball_options(d, 2, "sphere depth")
    d.add_argument("--seed", type=int, default=0)
    common(d)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _command_word(argv)
    if command is not None and command not in _COMMANDS:
        parser.error(f"argument command: {_invalid_choice(command, _COMMANDS)}")
    args = parser.parse_args(argv)
    # a request builds large acyclic structures, which the cyclic collector
    # would only rescan; it is paused for the subcommand and then restored
    collecting = gc.isenabled()
    gc.disable()
    try:
        ok, payload, table_lines, csv_table = args.func(args)
        _emit(args, payload, table_lines, csv_table)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()
    return 0 if ok else 1


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    # ``python -m weylbuildings.cli`` runs this file as ``__main__``; the
    # subcommand modules raise the ``UsageError`` of the imported module
    import_module(__spec__.name).entrypoint()
