"""Shared fixtures and snapshot-building helpers."""
from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import rankaudit
from rankaudit import CandidateRecord, GroupScheme, MalformedRow, QueryTruth, QuerySeries, RankingSnapshot
from rankaudit.dataio import LEDGER_KEYS, json_objects

GENDER = GroupScheme("gender", ("F", "M"))


def child_env() -> dict[str, str]:
    """Environment for a fresh ``python`` child that imports this checkout's
    rankaudit."""
    src = str(Path(rankaudit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_cli_inputs(directory: Path) -> None:
    """Write the small hand-made CLI inputs into ``directory``: ``raw.jsonl``
    (unlabeled snapshots with first names), ``names.csv`` (a name-frequency
    table for them) and ``pool.csv`` (a scored pool for ``rerank``)."""
    names = ["Ada", "Omar", "Lena", "Ravi", "Mia", "Tom"]
    rows = [
        {"query_id": f"q{q}", "day": day, "rank": rank, "candidate_id": f"q{q}-{name.lower()}",
         "first_name": name, "last_name": None, "groups": None, "missing": False}
        for q in (1, 2)
        for day in (1, 2)
        for rank, name in enumerate(names[q - 1:] + names[:q - 1], start=1)
    ]
    (directory / "raw.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    (directory / "names.csv").write_text(
        "name,label,count\nada,F,900\nada,M,100\nomar,M,400\nlena,F,300\n"
        "ravi,M,250\nmia,F,500\ntom,M,800\n",
        encoding="utf-8",
    )
    (directory / "pool.csv").write_text(
        "candidate_id,label,score\n"
        + "".join(f"c{i},{'F' if i % 3 == 0 else 'M'},{1.0 - i / 20:.2f}\n" for i in range(12)),
        encoding="utf-8",
    )


def load_ledger(path: str | Path) -> list[QueryTruth]:
    """Read a ledger written by ``dataio.write_ledger``; a line that is not
    a ledger object raises :class:`MalformedRow` with its line number.
    Lines end at LF alone."""
    truths = []
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        for lineno, raw in json_objects(handle):
            for key in LEDGER_KEYS:
                if key not in raw:
                    raise MalformedRow(f"line {lineno}: no {key!r} value")
            try:
                departures = tuple((day, cid) for day, cid in raw["departures"])
            except (TypeError, ValueError):
                raise MalformedRow(f"line {lineno}: departures must be [day, candidate_id] pairs") from None
            truths.append(
                QueryTruth(
                    query_id=raw["query_id"],
                    weights=raw["weights"],
                    composition=raw["composition"],
                    labels=raw["labels"],
                    scores=raw["scores"],
                    departures=departures,
                )
            )
    return truths


def record(cid: str, label: str | None, first: str | None = None, last: str | None = None) -> CandidateRecord:
    """Candidate with a gender label; label "?" or None = unlabeled, "x" = missing."""
    if label == "x":
        return CandidateRecord(candidate_id=cid, missing=True)
    if label == "?" or label is None:
        return CandidateRecord(candidate_id=cid, first_name=first, last_name=last)
    return CandidateRecord(
        candidate_id=cid, first_name=first, last_name=last, group_labels={"gender": label}
    )


def snapshot(labels: str, query_id: str = "q1", day: int = 1) -> RankingSnapshot:
    """Snapshot from a label string: F/M labeled, '?' unlabeled, 'x' missing.

    ``snapshot("FMx?")`` is a 4-entry list with ranks 1..4.
    """
    entries = []
    for i, ch in enumerate(labels):
        cid = f"{query_id}-d{day}-{i:03d}"
        if ch == "x":
            entries.append(CandidateRecord(candidate_id=cid, missing=True))
        elif ch == "?":
            entries.append(CandidateRecord(candidate_id=cid))
        else:
            entries.append(CandidateRecord(candidate_id=cid, group_labels={"gender": ch}))
    return RankingSnapshot(query_id=query_id, day=day, entries=tuple(entries))


def series_from_days(*day_labels: str, query_id: str = "q1") -> QuerySeries:
    """Series whose day d snapshot comes from ``day_labels[d-1]``."""
    snaps = {
        day: snapshot(labels, query_id=query_id, day=day)
        for day, labels in enumerate(day_labels, start=1)
    }
    return QuerySeries(query_id=query_id, snapshots=snaps)


@pytest.fixture
def gender() -> GroupScheme:
    return GENDER
