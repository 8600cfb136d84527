"""``rankaudit validate``: check a snapshot file and report its problems."""
from __future__ import annotations

import argparse
import json

from .. import dataio, loader
from . import _FORMATS, add_shared


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_shared(parser)
    parser.add_argument("dataset")
    parser.add_argument("--format", choices=_FORMATS, default="json", help="(default %(default)s)")


def run(args: argparse.Namespace) -> int:
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
