"""``rankaudit export``: pivot a long metric table into a matrix."""
from __future__ import annotations

import argparse

from .. import readers
from . import add_shared


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_shared(parser)
    parser.add_argument("table", help="long-format CSV or JSONL produced by audit/churn")
    parser.add_argument("--metric", required=True)
    parser.add_argument("--label", help="group label filter (required for labeled metrics)")


def run(args: argparse.Namespace) -> int:
    readers.export_heatmap(readers.read_long_table(args.table), args.metric, args.label, args.output)
    return 0
