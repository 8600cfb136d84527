"""``rankaudit stats``: the mixed-model significance protocols."""
from __future__ import annotations

import argparse
import sys

from .. import churn as churn_mod
from .. import dataio, exposure, loader, mixedlm
from . import (_CUTOFFS, _baseline, _curves, _cutoffs, _float, _int, _load_or_fail, _scheme,
               _with_library_warnings, add_shared)

_PROTOCOLS = ("minskew-protocol", "churn-protocol")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_shared(parser, scheme=True, table=True)
    parser.add_argument("protocol", choices=_PROTOCOLS)
    parser.add_argument("dataset")
    parser.add_argument("--null", type=_float, default=-0.011,
                        help="null value for the MinSkew intercept test (default %(default)s)")
    parser.add_argument("--cutoffs", type=_cutoffs, default=_CUTOFFS,
                        help="cutoffs, as for audit's --k-grid but not 'full' (default %(default)s)")
    parser.add_argument("--max-missing", type=_float, default=0.15, help="max day-1 missing rate (default %(default)s)")
    parser.add_argument("--min-pool", type=_int, default=101, help="min day-1 list length (default %(default)s)")
    parser.add_argument("--baseline", help="external target proportions CSV (minskew protocol)")


@_with_library_warnings
def run(args: argparse.Namespace) -> int:
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
