"""``rankaudit audit``: exposure metrics per query, day and cutoff."""
from __future__ import annotations

import argparse

from .. import dataio, exposure
from . import (_METRICS, _baseline, _curves, _day, _grid_for, _k_grid, _load_or_fail, _metrics, _scheme,
               _warn_missing_days, add_shared)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_shared(parser, scheme=True, table=True)
    parser.add_argument("dataset")
    parser.add_argument("--baseline", help="external target proportions CSV")
    parser.add_argument("--k-grid", type=_k_grid,
                        help="cutoffs: 'N', 'A,B,C', 'LO:HI[:STEP]' or 'full' (default: page cutoffs)")
    parser.add_argument("--metrics", type=_metrics, default=",".join(_METRICS), help="comma list (default %(default)s)")
    parser.add_argument("--day", type=_day, help="restrict to one day (default: all days)")


def run(args: argparse.Namespace) -> int:
    scheme = _scheme(args)
    series, report = _load_or_fail(args.dataset)
    if args.day is not None:
        _warn_missing_days(series, [args.day])
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
