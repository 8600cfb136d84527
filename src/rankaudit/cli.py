"""Command-line interface.

Subcommands: validate, label, audit, churn, rerank, stats, simulate,
export.  A key/value config file can set defaults for any long option of
the subcommand (``key = value`` lines, ``#`` comments); explicit flags win.
Every randomized subcommand requires an explicit ``--seed``.  Output
ordering is deterministic (sorted by query, day, cutoff).  :func:`main`
runs one subcommand and returns; :func:`run` is the process entry point.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys
from typing import NoReturn, Sequence, TextIO

from .errors import AuditError

# The subcommands, in the order the parser lists them, and their help.
# Each one's options and handler are in ``commands.<name>``.
_COMMANDS = {
    "validate": "check a snapshot file and report problems",
    "label": "infer group labels from name tables",
    "audit": "exposure metrics per query, day, and cutoff",
    "churn": "top-k membership churn between days",
    "rerank": "apply DetGreedy to a scored pool",
    "stats": "mixed-model significance protocols",
    "simulate": "generate a synthetic dataset",
    "export": "pivot a long metric table into a matrix",
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; return its exit status.

    For the length of the run the cyclic garbage collector is paused,
    process-wide: a run builds many short-lived containers but leaves only
    a few hundred cyclic objects, so collection passes are wasted work.
    The collector's prior state comes back however the run ends.

    Warnings that the layers log reach stderr as ``warning:`` lines, like
    the CLI's own, in the subcommands whose layers log (today ``stats``);
    the handler is attached for the length of that subcommand only
    (:func:`.commands._with_library_warnings`), and no other run loads
    ``logging``.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _parse_args(_build_parser(argv), argv)
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).
        _silence(sys.stdout)
        return 1
    except (AuditError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def run() -> NoReturn:
    """The process entry point (``python -m rankaudit.cli`` and the
    ``rankaudit`` script): run :func:`main` on ``sys.argv``, flush stdout
    and stderr, and end the process with ``os._exit``.

    Skipping interpreter teardown saves freeing, module by module, what the
    OS reclaims anyway; every file the run opened was closed by its
    ``with`` block, so no buffered output is lost, but ``atexit`` handlers
    do not run.  Under a profiler or tracer the process
    exits through ``sys.exit``, so that they write their output.
    """
    status = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except BrokenPipeError:
                _silence(stream)
                status = 1
    if _observed():
        sys.exit(status)
    os._exit(status)


def _silence(stream: TextIO) -> None:
    """Point ``stream``, whose reader has gone away, at devnull, so that a
    later flush cannot raise again (recipe from the ``signal`` module docs)."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _observed() -> bool:
    """Whether a profiler or tracer is installed, through ``sys.setprofile``,
    ``sys.settrace`` or (3.12+) a ``sys.monitoring`` tool."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6))


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Raise, so that ``main`` prints one ``error:`` line and returns 1."""
        raise ValueError(message)


def _build_parser(argv: Sequence[str] | None = None) -> _Parser:
    """The parser; ``commands`` maps each subcommand it has to its own parser.

    When ``argv[0]`` names a subcommand, that subcommand is the only one the
    parser has, and its module (``commands.<name>``) the only one imported:
    the other seven would be built to go unused.  Its options, help and
    error messages are the full parser's, since a subcommand's parser
    depends on no other and :meth:`_Parser.error` prints no usage line; a
    test compares the two.  With no ``argv``, or an ``argv[0]`` that is no
    subcommand (``--help``, a typo), every subcommand is built, so the
    top-level help lists them all and an unknown name is reported with the
    choices.
    """
    parser = _Parser(prog="rankaudit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    for name in [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS:
        command = importlib.import_module(f".commands.{name}", __package__)
        p = sub.add_parser(name, help=_COMMANDS[name])
        command.add_arguments(p)
        p.set_defaults(handler=command.run)
    return parser


# ---------------------------------------------------------------------------
# config file


# What a config line's keys and values are trimmed of: any other
# whitespace stays in the value, as it would on the command line.
_BLANKS = " \t\n"


def _load_config(path: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; quotes optional, # outside quotes
    starts a comment, a line of whitespace alone is blank.  Values stay
    strings, as the same option on the command line gives."""
    values: dict[str, str] = {}
    # A file ends lines at LF, CRLF or CR only, unlike str.splitlines.
    with open(path, encoding="utf-8") as lines:
        for lineno, raw in enumerate(lines, start=1):
            key, equals, value = raw.partition("=")
            value = value.strip(_BLANKS)
            if equals and "#" not in key and value[:1] in ("'", '"'):
                # A quoted value may hold "#"; only a comment may follow it.
                end = value.find(value[0], 1)
                if end > 0 and value[end + 1:].lstrip(_BLANKS)[:1] in ("", "#"):
                    values[key.strip(_BLANKS).replace("-", "_")] = value[1:end]
                    continue
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            value = value.strip(_BLANKS)
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
                value = value[1:-1]
            values[key.strip(_BLANKS).replace("-", "_")] = value
    return values


def _parse_args(parser: _Parser, argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse ``argv``, then again with the ``--config`` values as the
    subcommand's defaults: argparse converts them with each option's
    ``type``, and a flag wins.  Argparse checks no default against a flag
    (``true`` or ``false``) or ``choices``, and would append a repeatable
    option's uses to it, so those three are handled here.  Keys of options
    the subcommand lacks are ignored."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    command = parser.commands[args.command]
    options = {action.dest: action for action in command._actions if action.option_strings}
    defaults: dict[str, object] = {}
    for key, value in _load_config(args.config).items():
        action = options.get(key)
        if action is None or not hasattr(args, key):
            continue
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() not in ("true", "false"):
                raise ValueError(f"config {key} = {value!r}: expected true or false")
            defaults[key] = value.lower() == "true"
        elif isinstance(action, argparse._AppendAction):
            if getattr(args, key) is None:
                defaults[key] = [value]
        else:
            defaults[key] = value
    command.set_defaults(**defaults)
    args = parser.parse_args(argv)
    for action in options.values():
        value = getattr(args, action.dest, None)
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config {action.dest} = {value!r}: choose from {', '.join(action.choices)}")
    return args


if __name__ == "__main__":
    run()
