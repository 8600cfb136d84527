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
import json
import os
import sys
from typing import Iterable, NoReturn, Sequence, TextIO

from . import churn as churn_mod
from . import dataio, detgreedy, exposure, loader, mixedlm, model, names, readers, simulate
from .errors import AuditError, EmptyPool, MissingBaselineEntry

_PROTOCOLS = ("minskew-protocol", "churn-protocol")
# The metrics of ``audit``, in the order their curves are built.  This and
# the parser's other defaults from layer modules are literals, so that
# building the parser executes none of those modules; a test checks each.
_METRICS = ("deviation", "skew", "minskew", "corrected_skew")
# ``dataio.FORMAT_CSV`` and ``dataio.FORMAT_JSON``.
_FORMATS = ("csv", "json")
_CUTOFFS = "25,50,75,100"
# The subcommands, in the order the parser lists them.
_COMMANDS = ("validate", "label", "audit", "churn", "rerank", "stats", "simulate", "export")


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; return its exit status.

    For the length of the run the cyclic garbage collector is paused,
    process-wide: a run builds many short-lived containers but leaves only
    a few hundred cyclic objects, so collection passes are wasted work.
    The collector's prior state comes back however the run ends.

    Warnings that the layers log reach stderr as ``warning:`` lines, like
    the CLI's own, in the subcommands whose layers log (today ``stats``);
    the handler is attached for the length of that subcommand only
    (:func:`_with_library_warnings`), and no other run loads ``logging``.
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


def _with_library_warnings(command):
    """``command`` run with a handler on the ``rankaudit`` logger that
    writes its records of level WARNING and above to stderr as
    ``warning: <message>``, removed again however the command ends.

    Only a subcommand whose layers log is wrapped, so that every other run
    leaves ``logging`` unloaded; a test checks that no layer but
    :mod:`.mixedlm` (``stats``) creates a logger.
    """
    def run_logged(args: argparse.Namespace) -> int:
        import logging

        handler = logging.StreamHandler(sys.stderr)
        handler.setLevel(logging.WARNING)
        handler.setFormatter(logging.Formatter("warning: %(message)s"))
        logger = logging.getLogger("rankaudit")
        logger.addHandler(handler)
        try:
            return command(args)
        finally:
            logger.removeHandler(handler)
    return run_logged


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


def _list_of(item, name: str):
    """An option type, ``name`` in argparse's errors: a non-empty comma list."""
    def parse(text: str) -> list:
        values = [item(part.strip()) for part in text.split(",") if part.strip()]
        if not values:
            raise ValueError(f"expected a comma-separated list, got {text!r}")
        return values
    parse.__name__ = name
    return parse


def _number(kind: type):
    """An option type, ``kind``'s name in argparse's errors: ``kind`` read
    by :func:`.dataio.numeral`, so that ``1_0`` is refused.  ``dataio`` is
    looked up only when a number is read, so building the parser does not
    execute it."""
    def parse(text: str):
        return dataio.numeral(text, kind)
    parse.__name__ = kind.__name__
    return parse


_int = _number(int)
_float = _number(float)
_texts = _list_of(str, "list")
_ints = _list_of(_int, "int list")
_floats = _list_of(_float, "float list")


def _day_pairs(spec: str) -> str | list[tuple[int, int]]:
    """``anchored``, ``consecutive``, or explicit ``S-E,S-E,...`` pairs."""
    if spec.strip() in ("anchored", "consecutive"):
        return spec.strip()
    return [(_int(s), _int(e)) for s, _, e in (part.partition("-") for part in _texts(spec))]


def _pool_range(spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition(":")
    return _int(lo), _int(hi or lo)


def _shares(text: str) -> dict[str, float]:
    return {label.strip(): _float(share) for label, _, share in (part.partition("=") for part in _texts(text))}


def _cutoff_list(full: bool, name: str):
    """An option type, ``name`` in argparse's errors: cutoffs of at least 1
    as ``N``, ``A,B,C`` or ``LO:HI[:STEP]``, kept once each in increasing
    order; with ``full``, also ``full`` (every cutoff of each list)."""
    def parse(spec: str) -> str | list[int]:
        spec = spec.strip()
        if full and spec == "full":
            return spec
        parts = spec.split(":")
        if len(parts) == 1:
            grid = _ints(spec)
        elif len(parts) <= 3:
            lo, hi, step = _int(parts[0]), _int(parts[1]), _int(parts[2]) if len(parts) == 3 else 1
            if step < 1:
                raise argparse.ArgumentTypeError(f"step must be at least 1 in {spec!r}")
            grid = list(range(lo, hi + 1, step))
            if not grid:
                raise argparse.ArgumentTypeError(f"empty range {spec!r}")
        else:
            forms = "N, A,B,C, LO:HI[:STEP] or full" if full else "N, A,B,C or LO:HI[:STEP]"
            raise argparse.ArgumentTypeError(f"expected {forms}, got {spec!r}")
        if min(grid) < 1:
            raise argparse.ArgumentTypeError(f"cutoffs must be at least 1, got {spec!r}")
        return sorted(set(grid))
    parse.__name__ = name
    return parse


_k_grid = _cutoff_list(True, "k grid")
_cutoffs = _cutoff_list(False, "int list")


def _at_least(least: int, what: str):
    """An option type, ``int`` in argparse's errors: a ``what`` of at least ``least``."""
    def parse(text: str) -> int:
        value = _int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{what} must be at least {least}, got {text!r}")
        return value
    parse.__name__ = "int"
    return parse


# Loaded days start at 1; the generators take no seed below 0.
_day = _at_least(1, "day")
_seed = _at_least(0, "seed")


def _metrics(text: str) -> list[str]:
    """A comma list of :data:`_METRICS` names."""
    metrics = _texts(text)
    unknown = set(metrics) - set(_METRICS)
    if unknown:
        raise argparse.ArgumentTypeError(f"unrecognized metrics: {sorted(unknown)}")
    return metrics


_day_pairs.__name__, _pool_range.__name__, _shares.__name__ = "day pairs", "pool range", "proportions"
_metrics.__name__ = "list"


def _build_parser(argv: Sequence[str] | None = None) -> _Parser:
    """The parser; ``commands`` maps each subcommand it has to its own parser.

    When ``argv[0]`` names a subcommand, that subcommand is the only one the
    parser has: the other seven would be built to go unused.  Its options,
    help and error messages are the full parser's, since a subcommand's
    parser depends on no other and :meth:`_Parser.error` prints no usage
    line; a test compares the two.  With no ``argv``, or an ``argv[0]`` that
    is no subcommand (``--help``, a typo), every subcommand is built, so the
    top-level help lists them all and an unknown name is reported with the
    choices.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file with option defaults")
    common.add_argument("--output", "-o", default=sys.stdout, help="output path (default: stdout)")

    scheme = argparse.ArgumentParser(add_help=False)
    scheme.add_argument("--attribute", default="gender", help="protected attribute name (default %(default)s)")
    scheme.add_argument("--labels", type=_texts, default="F,M", help="comma list of group labels (default %(default)s)")

    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=_FORMATS, default="csv", help="(default %(default)s)")

    parser = _Parser(prog="rankaudit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    only = argv[0] if argv and argv[0] in _COMMANDS else None

    def command(name: str, handler, help: str, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser | None:
        """The parser of subcommand ``name``; None when the parser is built
        for another subcommand only."""
        if only not in (None, name):
            return None
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(handler=handler)
        return p

    if p := command("validate", _cmd_validate, "check a snapshot file and report problems"):
        p.add_argument("dataset")
        p.add_argument("--format", choices=_FORMATS, default="json", help="(default %(default)s)")

    if p := command("label", _cmd_label, "infer group labels from name tables", scheme):
        p.add_argument("dataset")
        p.add_argument("--unknown-label", default="unknown",
                       help="label for unresolved candidates (default %(default)s)")
        p.add_argument("--names", action="append", metavar="CSV",
                       help="name,label,count table; repeat to build a chain")
        p.add_argument("--full-name", action="store_true", help="look up 'first last' instead of first name")

    if p := command("audit", _cmd_audit, "exposure metrics per query, day, and cutoff", scheme, table):
        p.add_argument("dataset")
        p.add_argument("--baseline", help="external target proportions CSV")
        p.add_argument("--k-grid", type=_k_grid,
                       help="cutoffs: 'N', 'A,B,C', 'LO:HI[:STEP]' or 'full' (default: page cutoffs)")
        p.add_argument("--metrics", type=_metrics, default=",".join(_METRICS), help="comma list (default %(default)s)")
        p.add_argument("--day", type=_day, help="restrict to one day (default: all days)")

    if p := command("churn", _cmd_churn, "top-k membership churn between days", scheme, table):
        p.add_argument("dataset")
        p.add_argument("--k-grid", type=_k_grid, default=_CUTOFFS, help="cutoffs, as for audit (default %(default)s)")
        p.add_argument("--pairs", type=_day_pairs, default="anchored",
                       help="'anchored', 'consecutive', or explicit 'S-E,S-E,...' day pairs (default %(default)s)")

    if p := command("rerank", _cmd_rerank, "apply DetGreedy to a scored pool", scheme, table):
        p.add_argument("pool", help="CSV candidate_id,label,score")
        p.add_argument("--proportions", type=_shares, help="targets like 'F=0.5,M=0.5' (default: pool shares)")

    if p := command("stats", _cmd_stats, "mixed-model significance protocols", scheme, table):
        p.add_argument("protocol", choices=_PROTOCOLS)
        p.add_argument("dataset")
        p.add_argument("--null", type=_float, default=-0.011,
                       help="null value for the MinSkew intercept test (default %(default)s)")
        p.add_argument("--cutoffs", type=_cutoffs, default=_CUTOFFS,
                       help="cutoffs, as for audit's --k-grid but not 'full' (default %(default)s)")
        p.add_argument("--max-missing", type=_float, default=0.15, help="max day-1 missing rate (default %(default)s)")
        p.add_argument("--min-pool", type=_int, default=101, help="min day-1 list length (default %(default)s)")
        p.add_argument("--baseline", help="external target proportions CSV (minskew protocol)")

    if p := command("simulate", _cmd_simulate, "generate a synthetic dataset", scheme):
        p.add_argument("--seed", type=_seed, help="RNG seed (required)")
        p.add_argument("--queries", type=_int, default=100, help="number of queries (default %(default)s)")
        p.add_argument("--pool", type=_pool_range, default="100:200",
                       help="pool size range MIN:MAX (default %(default)s)")
        p.add_argument("--weights", type=_floats, help="group mix, e.g. '0.45,0.55' (default: equal)")
        p.add_argument("--score-means", type=_floats, help="per-group score means")
        p.add_argument("--score-spreads", type=_floats, help="per-group score spreads")
        p.add_argument("--days", type=_int, default=1, help="(default %(default)s)")
        p.add_argument("--departures", type=_floats, help="per-group daily departure probabilities")
        p.add_argument("--missing-prob", type=_float, default=0.0, help="(default %(default)s)")
        p.add_argument("--postprocess", choices=("none", "detgreedy"), default="none", help="(default %(default)s)")
        p.add_argument("--weights-concentration", type=_float, help="Dirichlet concentration of per-query mixes")
        p.add_argument("--ledger", help="path for the ground-truth ledger JSONL")
        p.add_argument("--inject-label", help="demote this group from the top page")
        p.add_argument("--inject-strength", type=_float, default=1.0, help="(default %(default)s)")
        p.add_argument("--inject-seed", type=_seed, help="(default: --seed)")
        p.add_argument("--page-size", type=_int, default=25, help="(default %(default)s)")

    if p := command("export", _cmd_export, "pivot a long metric table into a matrix"):
        p.add_argument("table", help="long-format CSV or JSONL produced by audit/churn")
        p.add_argument("--metric", required=True)
        p.add_argument("--label", help="group label filter (required for labeled metrics)")

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


# ---------------------------------------------------------------------------
# shared helpers


def _scheme(args: argparse.Namespace) -> model.GroupScheme:
    return model.GroupScheme(args.attribute, tuple(args.labels))


def _baseline(
    args: argparse.Namespace, scheme: model.GroupScheme
) -> dict[tuple[str, str], model.GroupProportions] | None:
    """The ``--baseline`` targets; None means each query's pool shares."""
    return None if args.baseline is None else readers.load_baseline(args.baseline, {scheme.attribute_name: scheme})


def _grid_for(k_grid: str | list[int], limit: int) -> list[int]:
    """The cutoffs of a parsed ``--k-grid`` for lists of at most ``limit``."""
    return list(range(1, limit + 1)) if k_grid == "full" else k_grid


def _load_or_fail(path: str):
    series, report = loader.load_dataset(path)
    for issue in report.parse_issues:
        print(f"warning: line {issue.line}: {issue.message}", file=sys.stderr)
    for issue in report.integrity_issues:
        print(f"warning: {issue.query_id} day {issue.day} (line {issue.line}): {issue.message}", file=sys.stderr)
    return series, report


def _targets_for(
    snapshot,
    scheme: model.GroupScheme,
    baseline: dict[tuple[str, str], model.GroupProportions] | None,
    counts: model.PrefixCounts | None = None,
) -> model.GroupProportions:
    if baseline is not None:
        key = (snapshot.query_id, scheme.attribute_name)
        if key not in baseline:
            raise MissingBaselineEntry(f"baseline has no proportions for {key!r}")
        return baseline[key]
    return model.observed_proportions(snapshot, scheme, counts=counts)


def _curves(
    grids: Iterable[tuple[model.RankingSnapshot, list[int]]],
    scheme: model.GroupScheme,
    baseline: dict[tuple[str, str], model.GroupProportions] | None,
    metrics: Sequence[str],
) -> list[exposure.MetricCurve]:
    """The curves of ``metrics`` for each (snapshot, grid), built in
    :data:`_METRICS` order from one prefix table per snapshot, one per
    label for the labeled metrics.  A snapshot whose targets or curve raise
    an :class:`AuditError` gets a ``warning:`` line and keeps the curves
    built before the failure."""
    ordered = [metric for metric in _METRICS if metric in metrics]
    curves = []
    for snap, grid in grids:
        counts = model.snapshot_counts(snap, scheme)
        try:
            targets = _targets_for(snap, scheme, baseline, counts=counts)
            for metric in ordered:
                # Looked up per call, so a rebinding of the module attribute is seen.
                build = getattr(exposure, f"{metric}_curve")
                if metric == exposure.MINSKEW:
                    curves.append(build(snap, scheme, targets, grid, counts=counts))
                else:
                    curves.extend(build(snap, scheme, targets, label, grid, counts=counts) for label in scheme.labels)
        except AuditError as exc:
            print(f"warning: {snap.query_id} day {snap.day}: {exc}", file=sys.stderr)
    return curves


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args: argparse.Namespace) -> int:
    series, report = loader.load_dataset(args.dataset)
    if args.format == dataio.FORMAT_JSON:
        with dataio.text_stream(args.output, "w") as out:
            out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        rows = [
            *(("parse", "", "", issue.line, issue.message) for issue in report.parse_issues),
            *(("integrity", issue.query_id, issue.day, issue.line, issue.message)
              for issue in report.integrity_issues),
            *(("quarantined", query_id, day, "", "") for query_id, day in report.quarantined),
        ]
        dataio.write_long_table(rows, dataio.ISSUE_HEADER, args.output, args.format)
    return 0 if report.ok else 1


def _cmd_label(args: argparse.Namespace) -> int:
    if not args.names:
        raise ValueError("at least one --names table is required")
    scheme = model.GroupScheme(args.attribute, tuple(args.labels), args.unknown_label)
    chain = [names.load_name_table(path, scheme) for path in args.names]
    series, report = _load_or_fail(args.dataset)
    snapshots = [series_one.snapshots[day] for series_one in series for day in series_one.days]
    labeled, coverage = names.label_dataset(snapshots, scheme, chain, full_name=args.full_name)
    regrouped: dict[str, dict[int, object]] = {}
    for snap in labeled:
        regrouped.setdefault(snap.query_id, {})[snap.day] = snap
    out_series = [model.QuerySeries(query_id=qid, snapshots=days) for qid, days in sorted(regrouped.items())]
    dataio.write_snapshots(out_series, args.output)
    print(f"labeled {coverage.resolved}/{coverage.total} candidates (coverage {coverage.coverage:.4f})",
          file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    scheme = _scheme(args)
    series, report = _load_or_fail(args.dataset)
    if args.day is not None:
        days = sorted({day for one in series for day in one.days})
        if args.day not in days:
            print(f"warning: no snapshot has day {args.day} (days in the file: {', '.join(map(str, days)) or 'none'})",
                  file=sys.stderr)
    snaps = [
        one.snapshots[day]
        for one in series
        for day in one.days
        if (args.day is None or day == args.day) and one.snapshots[day].entries
    ]
    # The default page grid follows the longest list, so every curve of the
    # run shares it; cells past a shorter list are undefined.
    longest = max((len(snap.entries) for snap in snaps), default=0)
    run_grid = (list(exposure.page_cutoffs(longest)) or [longest]) if args.k_grid is None else None

    grids = ((snap, run_grid or _grid_for(args.k_grid, len(snap.entries))) for snap in snaps)
    curves = _curves(grids, scheme, _baseline(args, scheme), args.metrics)
    dataio.write_long_table(dataio.curve_rows(curves), dataio.CURVE_HEADER, args.output, args.format)
    return 0 if report.ok else 1


def _cmd_churn(args: argparse.Namespace) -> int:
    scheme = _scheme(args)
    series, report = _load_or_fail(args.dataset)
    cells = []
    for one in series:
        # ``anchored_pairs`` or ``consecutive_pairs`` of the query, or the explicit pairs.
        pairs = getattr(churn_mod, f"{args.pairs}_pairs")(one) if isinstance(args.pairs, str) else args.pairs
        if not pairs:
            continue
        grid = _grid_for(args.k_grid, max(len(one.snapshots[d].entries) for d in one.days))
        cells.extend(churn_mod.churn_grid(one, scheme, grid, pairs))
    dataio.write_long_table(dataio.churn_rows(cells), dataio.CHURN_HEADER, args.output, args.format)
    return 0 if report.ok else 1


def _cmd_rerank(args: argparse.Namespace) -> int:
    scheme = _scheme(args)
    pool = readers.read_pool(args.pool)
    if not pool:
        raise EmptyPool("cannot re-rank an empty pool")
    if args.proportions is not None:
        targets = model.GroupProportions(scheme=scheme, shares=args.proportions)
    else:
        codes = model.label_codes((cand.label for cand in pool), scheme)
        if -1 in codes:
            raise ValueError(f"pool label {pool[codes.index(-1)].label!r} not in scheme")
        targets = model.PrefixCounts(codes, scheme.labels).proportions(scheme)
    result = detgreedy.detgreedy_rerank(pool, targets)
    by_id = {cand.candidate_id: cand for cand in pool}
    if args.format == dataio.FORMAT_CSV:
        rows = [(rank, cid, by_id[cid].label, by_id[cid].score) for rank, cid in enumerate(result.order, 1)]
        dataio.write_long_table(rows, dataio.RERANK_HEADER, args.output, args.format)
    else:
        summary = {
            "order": list(result.order),
            "feasible": result.feasible,
            "violations": [[k, label] for k, label in result.violation_positions],
        }
        with dataio.text_stream(args.output, "w") as out:
            out.write(json.dumps(summary, ensure_ascii=False) + "\n")
    if not result.feasible:
        print(f"warning: {len(result.violation_positions)} prefix-constraint violations", file=sys.stderr)
    return 0


@_with_library_warnings
def _cmd_stats(args: argparse.Namespace) -> int:
    scheme = _scheme(args)
    series, report = _load_or_fail(args.dataset)
    kept, manifest = loader.filter_queries(series, args.max_missing, args.min_pool)
    dropped = sum(1 for line in manifest if not line["kept"])
    if dropped:
        print(f"filtered out {dropped}/{len(manifest)} queries", file=sys.stderr)

    if args.protocol == "minskew-protocol":
        snaps = (one.snapshots[day] for one in kept for day in one.days)
        grids = ((snap, args.cutoffs) for snap in snaps if snap.entries)
        curves = _curves(grids, scheme, _baseline(args, scheme), [exposure.MINSKEW])
        rows = mixedlm.minskew_protocol(curves, args.null, args.cutoffs)
    else:
        if args.baseline is not None:
            print("warning: --baseline is not used by churn-protocol", file=sys.stderr)
        cells = []
        for one in kept:
            pairs = churn_mod.anchored_pairs(one)
            if pairs:
                cells.extend(churn_mod.churn_grid(one, scheme, args.cutoffs, pairs))
        rows = mixedlm.churn_protocol(cells, scheme, args.cutoffs)

    # One line per failed cutoff; churn has two rows per cutoff.
    for k, reason in dict.fromkeys((row.k, row.reason) for row in rows if row.reason):
        print(f"warning: k={k}: {reason}", file=sys.stderr)
    dataio.write_protocol_table(rows, args.output, args.format)
    # A run in which no cutoff could be tested has failed, rows or not.
    untested = bool(rows) and all(row.reason for row in rows)
    return 0 if report.ok and not untested else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ValueError("--seed is required (no time-based default)")
    scheme = _scheme(args)
    labels = scheme.labels
    weights = args.weights or [1.0 / len(labels)] * len(labels)
    means = args.score_means or [0.6] * len(labels)
    spreads = args.score_spreads or [0.15] * len(labels)
    departures = args.departures or [0.0] * len(labels)
    for name, values in (("weights", weights), ("score-means", means),
                         ("score-spreads", spreads), ("departures", departures)):
        if len(values) != len(labels):
            raise ValueError(f"--{name} needs one value per label ({len(labels)})")
    config = simulate.SimConfig(
        seed=args.seed,
        n_queries=args.queries,
        pool_size=args.pool,
        scheme=scheme,
        group_weights=dict(zip(labels, weights)),
        score_models={
            label: simulate.ScoreModel(mean, spread)
            for label, mean, spread in zip(labels, means, spreads)
        },
        days=args.days,
        departure_probs=dict(zip(labels, departures)),
        missing_prob=args.missing_prob,
        postprocess=args.postprocess,
        weights_concentration=args.weights_concentration,
    )
    inject_seed = args.seed if args.inject_seed is None else args.inject_seed
    inject = (scheme, args.inject_label, args.inject_strength, inject_seed, args.page_size)
    if args.inject_label is not None:
        # On no series, so that a bad option fails before generation.
        simulate.inject_topk_bias([], *inject)
    result = simulate.generate(config)
    series = result.series
    if args.inject_label is not None:
        series, record = simulate.inject_topk_bias(series, *inject)
        print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
    dataio.write_snapshots(series, args.output)
    if args.ledger is not None:
        dataio.write_ledger(result.truth, args.ledger)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    readers.export_heatmap(readers.read_long_table(args.table), args.metric, args.label, args.output)
    return 0


if __name__ == "__main__":
    run()
