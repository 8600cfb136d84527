"""``rankaudit label``: infer group labels from name tables."""
from __future__ import annotations

import argparse
import sys

from .. import dataio, model, names
from . import _load_or_fail, add_shared


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_shared(parser, scheme=True)
    parser.add_argument("dataset")
    parser.add_argument("--unknown-label", default="unknown",
                        help="label for unresolved candidates (default %(default)s)")
    parser.add_argument("--names", action="append", metavar="CSV",
                        help="name,label,count table; repeat to build a chain")
    parser.add_argument("--full-name", action="store_true", help="look up 'first last' instead of first name")


def run(args: argparse.Namespace) -> int:
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
