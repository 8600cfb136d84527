"""``rankaudit churn``: top-k membership churn between days."""
from __future__ import annotations

import argparse

from .. import churn as churn_mod
from .. import dataio
from . import _CUTOFFS, _day_pairs, _grid_for, _k_grid, _load_or_fail, _scheme, _warn_missing_days, add_shared


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_shared(parser, scheme=True, table=True)
    parser.add_argument("dataset")
    parser.add_argument("--k-grid", type=_k_grid, default=_CUTOFFS, help="cutoffs, as for audit (default %(default)s)")
    parser.add_argument("--pairs", type=_day_pairs, default="anchored",
                        help="'anchored', 'consecutive', or explicit 'S-E,S-E,...' day pairs (default %(default)s)")


def run(args: argparse.Namespace) -> int:
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
    if not isinstance(args.pairs, str):
        _warn_missing_days(series, [day for pair in args.pairs for day in pair])
    dataio.write_long_table(dataio.churn_rows(cells), dataio.CHURN_HEADER, args.output, args.format)
    return 0 if report.ok else 1
