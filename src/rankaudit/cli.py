"""Command-line interface.

Subcommands: validate, label, audit, churn, rerank, stats, simulate,
export.  A key/value config file can set defaults for any long option
(``key = value`` lines, ``#`` comments); explicit flags win.  Every
randomized subcommand requires an explicit ``--seed``.  Output ordering is
deterministic (sorted by query, day, cutoff).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

from . import churn as churn_mod
from . import dataio, exposure, mixedlm, simulate
from .detgreedy import detgreedy_rerank
from .errors import AuditError, MissingBaselineEntry
from .model import (
    GroupProportions,
    GroupScheme,
    PrefixCounts,
    QuerySeries,
    RankingSnapshot,
    label_codes,
    observed_proportions,
    snapshot_counts,
)
from .names import label_dataset, load_name_table

_PROTOCOLS = ("minskew-protocol", "churn-protocol")
# The metrics of ``audit``, in the order their curves are built.
_METRICS = (exposure.DEVIATION, exposure.SKEW, exposure.MINSKEW, exposure.CORRECTED_SKEW)
_FORMATS = (dataio.FORMAT_CSV, dataio.FORMAT_JSON)
_POSTPROCESS = (simulate.POSTPROCESS_NONE, simulate.POSTPROCESS_DETGREEDY)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Library warnings (``logging``) reach stderr like the CLI's own.
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logger = logging.getLogger("rankaudit")
    logger.addHandler(handler)
    try:
        config = _load_config(args.config) if args.config else {}
        _apply_config(args, config, _subcommand_actions(parser, args.command))
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so the flush at exit cannot raise again (recipe from the
        # ``signal`` module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file with option defaults")
    common.add_argument("--format", choices=_FORMATS, default=None)
    common.add_argument("--output", "-o", help="output path (default: stdout)")

    scheme = argparse.ArgumentParser(add_help=False)
    scheme.add_argument("--attribute", default=None, help="protected attribute name (default gender)")
    scheme.add_argument("--labels", default=None, help="comma-separated group labels (default F,M)")
    scheme.add_argument("--unknown-label", default=None, help="label for unresolved candidates")

    parser = argparse.ArgumentParser(prog="rankaudit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a snapshot file and report problems")
    p.add_argument("dataset")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("label", parents=[common, scheme], help="infer group labels from name tables")
    p.add_argument("dataset")
    p.add_argument("--names", action="append", default=None, metavar="CSV",
                   help="name,label,count table; repeat to build a chain")
    p.add_argument("--full-name", action="store_true", help="look up 'first last' instead of first name")
    p.set_defaults(handler=_cmd_label)

    p = sub.add_parser("audit", parents=[common, scheme], help="exposure metrics per query, day, and cutoff")
    p.add_argument("dataset")
    p.add_argument("--baseline", help="external target proportions CSV")
    p.add_argument("--k-grid", default=None, help="cutoffs: 'N', 'A,B,C', 'LO:HI[:STEP]', or 'full'")
    p.add_argument("--metrics", default=None, help="comma list from deviation,skew,minskew,corrected_skew")
    p.add_argument("--day", default=None, help="restrict to one day (default: all days)")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("churn", parents=[common, scheme], help="top-k membership churn between days")
    p.add_argument("dataset")
    p.add_argument("--k-grid", default=None, help="cutoffs (default 25,50,75,100)")
    p.add_argument("--pairs", default=None,
                   help="'anchored', 'consecutive', or explicit 'S-E,S-E,...' day pairs")
    p.set_defaults(handler=_cmd_churn)

    p = sub.add_parser("rerank", parents=[common, scheme], help="apply DetGreedy to a scored pool")
    p.add_argument("pool", help="CSV candidate_id,label,score")
    p.add_argument("--proportions", default=None, help="targets like 'F=0.5,M=0.5' (default: pool shares)")
    p.set_defaults(handler=_cmd_rerank)

    p = sub.add_parser("stats", parents=[common, scheme], help="mixed-model significance protocols")
    p.add_argument("protocol", choices=_PROTOCOLS)
    p.add_argument("dataset")
    p.add_argument("--null", default=None, help="null value for the MinSkew intercept test")
    p.add_argument("--cutoffs", default=None, help="comma-separated cutoffs (default 25,50,75,100)")
    p.add_argument("--max-missing", default=None, help="inclusion threshold on day-1 missing rate")
    p.add_argument("--min-pool", default=None, help="inclusion threshold on day-1 list length")
    p.add_argument("--baseline", help="external target proportions CSV (minskew protocol)")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("simulate", parents=[common, scheme], help="generate a synthetic dataset")
    p.add_argument("--seed", default=None, required=False, help="RNG seed (required)")
    p.add_argument("--queries", default=None, help="number of queries")
    p.add_argument("--pool", default=None, help="pool size range MIN:MAX")
    p.add_argument("--weights", default=None, help="group mix, e.g. '0.45,0.55'")
    p.add_argument("--score-means", default=None, help="per-group score means")
    p.add_argument("--score-spreads", default=None, help="per-group score spreads")
    p.add_argument("--days", default=None)
    p.add_argument("--departures", default=None, help="per-group daily departure probabilities")
    p.add_argument("--missing-prob", default=None)
    p.add_argument("--postprocess", default=None, choices=_POSTPROCESS)
    p.add_argument("--weights-concentration", default=None)
    p.add_argument("--ledger", default=None, help="path for the ground-truth ledger JSONL")
    p.add_argument("--inject-label", default=None, help="demote this group from the top page")
    p.add_argument("--inject-strength", default=None)
    p.add_argument("--inject-seed", default=None)
    p.add_argument("--page-size", default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("export", parents=[common], help="pivot a long metric table into a matrix")
    p.add_argument("table", help="long-format CSV or JSONL produced by audit/churn")
    p.add_argument("--metric", required=True)
    p.add_argument("--label", default=None, help="group label filter (required for labeled metrics)")
    p.set_defaults(handler=_cmd_export)

    return parser


# ---------------------------------------------------------------------------
# config file


def _load_config(path: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; quotes optional, # outside quotes
    starts a comment.  Values stay strings, as the same option on the
    command line gives."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        key, equals, value = raw.partition("=")
        value = value.strip()
        if equals and "#" not in key and value[:1] in ("'", '"'):
            # A quoted value may hold "#"; only a comment may follow it.
            end = value.find(value[0], 1)
            if end > 0 and value[end + 1:].lstrip()[:1] in ("", "#"):
                values[key.strip().replace("-", "_")] = value[1:end]
                continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        values[key.strip().replace("-", "_")] = value
    return values


def _subcommand_actions(parser: argparse.ArgumentParser, command: str) -> dict[str, argparse.Action]:
    """The actions of subcommand ``command`` by destination."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {one.dest: one for one in action.choices[command]._actions}
    return {}


def _apply_config(args: argparse.Namespace, config: dict[str, str], actions: dict[str, argparse.Action]) -> None:
    """Fill the options left unset on the command line from ``config``.

    A value for a flag (``store_true``) must be ``true`` or ``false``; one
    for a repeatable option becomes a one-element list, as one use of the
    flag gives; one for an option with ``choices`` must be among them,
    since argparse checks only the command line."""
    for key, value in config.items():
        action = actions.get(key)
        if action is None or not action.option_strings or not hasattr(args, key):
            continue
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() not in ("true", "false"):
                raise ValueError(f"config {key} = {value!r}: expected true or false")
            if value.lower() == "true":
                setattr(args, key, True)
        elif getattr(args, key) is None:
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"config {key} = {value!r}: choose from {', '.join(action.choices)}")
            setattr(args, key, [value] if isinstance(action, argparse._AppendAction) else value)


# ---------------------------------------------------------------------------
# shared helpers


def _scheme(args: argparse.Namespace) -> GroupScheme:
    labels = tuple(_csv_list(args.labels or "F,M"))
    return GroupScheme(
        attribute_name=args.attribute or "gender",
        labels=labels,
        unknown_label=args.unknown_label or "unknown",
    )


def _csv_list(text: str) -> list[str]:
    return [part.strip() for part in str(text).split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in _csv_list(text)]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in _csv_list(text)]


def _parse_grid(spec: str | None, limit: int) -> list[int]:
    """Cutoff grid spec: 'full', single int, comma list, or LO:HI[:STEP]."""
    if spec is None:
        grid = list(exposure.page_cutoffs(limit))
        return grid if grid else [limit]
    spec = str(spec).strip()
    if spec == "full":
        return list(range(1, limit + 1))
    if ":" in spec:
        parts = [int(p) for p in spec.split(":")]
        lo, hi = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 1
        return list(range(lo, hi + 1, step))
    return _int_list(spec)


def _emit_long(args, rows, header) -> None:
    dataio.write_long_table(rows, header, args.output or sys.stdout, args.format or dataio.FORMAT_CSV)


def _load_or_fail(path: str):
    series, report = dataio.load_dataset(path)
    for issue in report.parse_issues:
        print(f"warning: line {issue.line}: {issue.message}", file=sys.stderr)
    for issue in report.integrity_issues:
        print(
            f"warning: {issue.query_id} day {issue.day} (line {issue.line}): {issue.message}",
            file=sys.stderr,
        )
    return series, report


def _targets_for(
    snapshot,
    scheme: GroupScheme,
    baseline: dict[tuple[str, str], GroupProportions] | None,
    counts: PrefixCounts | None = None,
) -> GroupProportions:
    if baseline is not None:
        key = (snapshot.query_id, scheme.attribute_name)
        if key not in baseline:
            raise MissingBaselineEntry(f"baseline has no proportions for {key!r}")
        return baseline[key]
    return observed_proportions(snapshot, scheme, counts=counts)


def _curves(
    grids: Iterable[tuple[RankingSnapshot, list[int]]],
    scheme: GroupScheme,
    baseline: dict[tuple[str, str], GroupProportions] | None,
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
        counts = snapshot_counts(snap, scheme)
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
    series, report = dataio.load_dataset(args.dataset)
    if (args.format or dataio.FORMAT_JSON) == dataio.FORMAT_JSON:
        with dataio.text_stream(args.output or sys.stdout, "w") as out:
            out.write(json.dumps(report.to_dict(), indent=2, sort_keys=False))
            out.write("\n")
    else:
        rows = [
            *(("parse", "", "", issue.line, issue.message) for issue in report.parse_issues),
            *(("integrity", issue.query_id, issue.day, issue.line, issue.message)
              for issue in report.integrity_issues),
            *(("quarantined", query_id, day, "", "") for query_id, day in report.quarantined),
        ]
        _emit_long(args, rows, dataio.ISSUE_HEADER)
    return 0 if report.ok else 1


def _cmd_label(args: argparse.Namespace) -> int:
    if not args.names:
        raise ValueError("at least one --names table is required")
    scheme = _scheme(args)
    chain = [load_name_table(path, scheme) for path in args.names]
    series, report = _load_or_fail(args.dataset)
    snapshots = [series_one.snapshots[day] for series_one in series for day in series_one.days]
    labeled, coverage = label_dataset(snapshots, scheme, chain, full_name=bool(args.full_name))
    regrouped: dict[str, dict[int, object]] = {}
    for snap in labeled:
        regrouped.setdefault(snap.query_id, {})[snap.day] = snap
    out_series = [QuerySeries(query_id=qid, snapshots=days) for qid, days in sorted(regrouped.items())]
    dataio.write_snapshots(out_series, args.output or sys.stdout)
    print(
        f"labeled {coverage.resolved}/{coverage.total} candidates (coverage {coverage.coverage:.4f})",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    scheme = _scheme(args)
    series, report = _load_or_fail(args.dataset)
    baseline = dataio.load_baseline(args.baseline, {scheme.attribute_name: scheme}) if args.baseline else None
    metrics = _csv_list(args.metrics) if args.metrics else _METRICS
    unknown = set(metrics) - set(_METRICS)
    if unknown:
        raise ValueError(f"unrecognized metrics: {sorted(unknown)}")
    only_day = int(args.day) if args.day is not None else None
    snaps = [
        one.snapshots[day]
        for one in series
        for day in one.days
        if (only_day is None or day == only_day) and one.snapshots[day].entries
    ]
    # The default page grid follows the longest list, so every curve of the
    # run shares it; cells past a shorter list are undefined.
    run_grid = None
    if args.k_grid is None and snaps:
        run_grid = _parse_grid(None, max(len(snap.entries) for snap in snaps))

    grids = ((snap, run_grid or _parse_grid(args.k_grid, len(snap.entries))) for snap in snaps)
    curves = _curves(grids, scheme, baseline, metrics)
    _emit_long(args, dataio.curve_rows(curves), dataio.CURVE_HEADER)
    return 0 if report.ok else 1


def _cmd_churn(args: argparse.Namespace) -> int:
    scheme = _scheme(args)
    series, report = _load_or_fail(args.dataset)
    spec = (args.pairs or "anchored").strip()

    cells = []
    for one in series:
        if spec == "anchored":
            pairs = churn_mod.anchored_pairs(one)
        elif spec == "consecutive":
            pairs = churn_mod.consecutive_pairs(one)
        else:
            pairs = [(int(s), int(e)) for s, _, e in (p.partition("-") for p in _csv_list(spec))]
        if not pairs:
            continue
        max_len = max(len(one.snapshots[d].entries) for d in one.days)
        grid = _parse_grid(args.k_grid, max_len) if args.k_grid else list(mixedlm.DEFAULT_CUTOFFS)
        cells.extend(churn_mod.churn_grid(one, scheme, grid, pairs))
    _emit_long(args, dataio.churn_rows(cells), dataio.CHURN_HEADER)
    return 0 if report.ok else 1


def _cmd_rerank(args: argparse.Namespace) -> int:
    scheme = _scheme(args)
    pool = dataio.read_pool(args.pool)
    if args.proportions:
        shares = {}
        for part in _csv_list(args.proportions):
            label, _, share = part.partition("=")
            shares[label.strip()] = float(share)
        targets = GroupProportions(scheme=scheme, shares=shares)
    else:
        codes = label_codes((cand.label for cand in pool), scheme)
        if -1 in codes:
            raise ValueError(f"pool label {pool[codes.index(-1)].label!r} not in scheme")
        targets = PrefixCounts(codes, scheme.labels).proportions(scheme)
    result = detgreedy_rerank(pool, targets)
    by_id = {cand.candidate_id: cand for cand in pool}
    if (args.format or dataio.FORMAT_CSV) == dataio.FORMAT_CSV:
        rows = [(rank, cid, by_id[cid].label, by_id[cid].score) for rank, cid in enumerate(result.order, 1)]
        _emit_long(args, rows, dataio.RERANK_HEADER)
    else:
        summary = {
            "order": list(result.order),
            "feasible": result.feasible,
            "violations": [[k, label] for k, label in result.violation_positions],
        }
        with dataio.text_stream(args.output or sys.stdout, "w") as out:
            out.write(json.dumps(summary, ensure_ascii=False))
            out.write("\n")
    if not result.feasible:
        print(f"warning: {len(result.violation_positions)} prefix-constraint violations", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    scheme = _scheme(args)
    series, report = _load_or_fail(args.dataset)
    max_missing = float(args.max_missing) if args.max_missing is not None else 0.15
    min_pool = int(args.min_pool) if args.min_pool is not None else 101
    kept, manifest = dataio.filter_queries(series, max_missing, min_pool)
    dropped = sum(1 for line in manifest if not line["kept"])
    if dropped:
        print(f"filtered out {dropped}/{len(manifest)} queries", file=sys.stderr)
    cutoffs = _int_list(args.cutoffs) if args.cutoffs else list(mixedlm.DEFAULT_CUTOFFS)

    if args.protocol == "minskew-protocol":
        baseline = (
            dataio.load_baseline(args.baseline, {scheme.attribute_name: scheme}) if args.baseline else None
        )
        snaps = (one.snapshots[day] for one in kept for day in one.days)
        curves = _curves(((snap, cutoffs) for snap in snaps if snap.entries), scheme, baseline, [exposure.MINSKEW])
        null = float(args.null) if args.null is not None else mixedlm.DEFAULT_MINSKEW_NULL
        rows = mixedlm.minskew_protocol(curves, null, cutoffs)
    else:
        cells = []
        for one in kept:
            pairs = churn_mod.anchored_pairs(one)
            if pairs:
                cells.extend(churn_mod.churn_grid(one, scheme, cutoffs, pairs))
        rows = mixedlm.churn_protocol(cells, scheme, cutoffs)

    # One line per failed cutoff; churn has two rows per cutoff.
    for k, reason in dict.fromkeys((row.k, row.reason) for row in rows if row.reason):
        print(f"warning: k={k}: {reason}", file=sys.stderr)
    dataio.write_protocol_table(rows, args.output or sys.stdout, args.format or dataio.FORMAT_CSV)
    # A run in which no cutoff could be tested has failed, rows or not.
    untested = bool(rows) and all(row.reason for row in rows)
    return 0 if report.ok and not untested else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ValueError("--seed is required (no time-based default)")
    scheme = _scheme(args)
    labels = scheme.labels
    weights = _float_list(args.weights) if args.weights else [1.0 / len(labels)] * len(labels)
    means = _float_list(args.score_means) if args.score_means else [0.6] * len(labels)
    spreads = _float_list(args.score_spreads) if args.score_spreads else [0.15] * len(labels)
    departures = _float_list(args.departures) if args.departures else [0.0] * len(labels)
    for name, values in (("weights", weights), ("score-means", means),
                         ("score-spreads", spreads), ("departures", departures)):
        if len(values) != len(labels):
            raise ValueError(f"--{name} needs one value per label ({len(labels)})")
    pool_spec = str(args.pool or "100:200")
    lo, _, hi = pool_spec.partition(":")
    config = simulate.SimConfig(
        seed=int(args.seed),
        n_queries=int(args.queries or 100),
        pool_size=(int(lo), int(hi or lo)),
        scheme=scheme,
        group_weights=dict(zip(labels, weights)),
        score_models={
            label: simulate.ScoreModel(mean, spread)
            for label, mean, spread in zip(labels, means, spreads)
        },
        days=int(args.days or 1),
        departure_probs=dict(zip(labels, departures)),
        missing_prob=float(args.missing_prob or 0.0),
        postprocess=args.postprocess or simulate.POSTPROCESS_NONE,
        weights_concentration=(
            float(args.weights_concentration) if args.weights_concentration is not None else None
        ),
    )
    result = simulate.generate(config)
    series = result.series
    if args.inject_label is not None:
        strength = float(args.inject_strength) if args.inject_strength is not None else 1.0
        inject_seed = int(args.inject_seed) if args.inject_seed is not None else int(args.seed)
        page = int(args.page_size) if args.page_size is not None else exposure.DEFAULT_PAGE_SIZE
        series, record = simulate.inject_topk_bias(
            series, scheme, args.inject_label, strength, inject_seed, page
        )
        print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
    dataio.write_snapshots(series, args.output or sys.stdout)
    if args.ledger:
        dataio.write_ledger(result.truth, args.ledger)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    dataio.export_heatmap(dataio.read_long_table(args.table), args.metric, args.label, args.output or sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
