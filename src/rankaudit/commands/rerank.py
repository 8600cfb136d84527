"""``rankaudit rerank``: apply DetGreedy to a scored pool."""
from __future__ import annotations

import argparse
import json
import sys

from .. import dataio, detgreedy, model, readers
from ..errors import EmptyPool
from . import _scheme, _shares, add_shared


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_shared(parser, scheme=True, table=True)
    parser.add_argument("pool", help="CSV candidate_id,label,score")
    parser.add_argument("--proportions", type=_shares, help="targets like 'F=0.5,M=0.5' (default: pool shares)")


def run(args: argparse.Namespace) -> int:
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
