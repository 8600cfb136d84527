"""``rankaudit simulate``: generate a synthetic dataset."""
from __future__ import annotations

import argparse
import json
import sys

from .. import dataio
from .. import simulate as simulate_mod
from . import _float, _floats, _int, _pool_range, _scheme, _seed, add_shared


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_shared(parser, scheme=True)
    parser.add_argument("--seed", type=_seed, help="RNG seed (required)")
    parser.add_argument("--queries", type=_int, default=100, help="number of queries (default %(default)s)")
    parser.add_argument("--pool", type=_pool_range, default="100:200",
                        help="pool size range MIN:MAX (default %(default)s)")
    parser.add_argument("--weights", type=_floats, help="group mix, e.g. '0.45,0.55' (default: equal)")
    parser.add_argument("--score-means", type=_floats, help="per-group score means")
    parser.add_argument("--score-spreads", type=_floats, help="per-group score spreads")
    parser.add_argument("--days", type=_int, default=1, help="(default %(default)s)")
    parser.add_argument("--departures", type=_floats, help="per-group daily departure probabilities")
    parser.add_argument("--missing-prob", type=_float, default=0.0, help="(default %(default)s)")
    parser.add_argument("--postprocess", choices=("none", "detgreedy"), default="none", help="(default %(default)s)")
    parser.add_argument("--weights-concentration", type=_float, help="Dirichlet concentration of per-query mixes")
    parser.add_argument("--ledger", help="path for the ground-truth ledger JSONL")
    parser.add_argument("--inject-label", help="demote this group from the top page")
    parser.add_argument("--inject-strength", type=_float, default=1.0, help="(default %(default)s)")
    parser.add_argument("--inject-seed", type=_seed, help="(default: --seed)")
    parser.add_argument("--page-size", type=_int, default=25, help="(default %(default)s)")


def run(args: argparse.Namespace) -> int:
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
    config = simulate_mod.SimConfig(
        seed=args.seed,
        n_queries=args.queries,
        pool_size=args.pool,
        scheme=scheme,
        group_weights=dict(zip(labels, weights)),
        score_models={
            label: simulate_mod.ScoreModel(mean, spread)
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
        simulate_mod.inject_topk_bias([], *inject)
    result = simulate_mod.generate(config)
    series = result.series
    if args.inject_label is not None:
        series, record = simulate_mod.inject_topk_bias(series, *inject)
        print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
    dataio.write_snapshots(series, args.output)
    if args.ledger is not None:
        dataio.write_ledger(result.truth, args.ledger)
    return 0
