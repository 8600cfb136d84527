"""The subcommands of :mod:`rankaudit.cli`, one module each, and what
more than one of them uses: the option types, the shared options and the
load, target and curve helpers.

Each ``commands.<name>`` defines ``add_arguments(parser)``, which adds the
subcommand's options to its parser, and ``run(args)``, which runs it and
returns its exit status.  The CLI imports only the module of the
subcommand a run names, so a start compiles one handler.  A command module
calls the layers through their module attributes (``loader.load_dataset``),
never a function imported by name, so a rebinding of the attribute is
seen; and it never imports :mod:`rankaudit.cli`, which
``python -m rankaudit.cli`` runs as ``__main__``.
"""
from __future__ import annotations

import argparse
import sys
from typing import Iterable, Sequence

from .. import dataio, exposure, loader, model, readers
from ..errors import AuditError, MissingBaselineEntry

# The metrics of ``audit``, in the order their curves are built.  This and
# the parser's other defaults from layer modules are literals, so that
# building the parser executes none of those modules; a test checks each.
_METRICS = ("deviation", "skew", "minskew", "corrected_skew")
# ``dataio.FORMAT_CSV`` and ``dataio.FORMAT_JSON``.
_FORMATS = ("csv", "json")
_CUTOFFS = "25,50,75,100"


# ---------------------------------------------------------------------------
# option types


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


def add_shared(parser: argparse.ArgumentParser, scheme: bool = False, table: bool = False) -> None:
    """Add the options every subcommand has (``--config``, ``--output``),
    then with ``scheme`` the group scheme's (``--attribute``, ``--labels``)
    and with ``table`` the table ``--format``, in the order help lists them."""
    parser.add_argument("--config", help="key=value file with option defaults")
    parser.add_argument("--output", "-o", default=sys.stdout, help="output path (default: stdout)")
    if scheme:
        parser.add_argument("--attribute", default="gender", help="protected attribute name (default %(default)s)")
        parser.add_argument("--labels", type=_texts, default="F,M",
                            help="comma list of group labels (default %(default)s)")
    if table:
        parser.add_argument("--format", choices=_FORMATS, default="csv", help="(default %(default)s)")


# ---------------------------------------------------------------------------
# shared helpers


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


def _warn_missing_days(series: Sequence[model.QuerySeries], wanted: Iterable[int]) -> None:
    """One ``warning:`` line for each day of ``wanted`` that no snapshot of
    ``series`` has, in the order first named."""
    days = sorted({day for one in series for day in one.days})
    for day in dict.fromkeys(wanted):
        if day not in days:
            print(f"warning: no snapshot has day {day} (days in the file: {', '.join(map(str, days)) or 'none'})",
                  file=sys.stderr)


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
