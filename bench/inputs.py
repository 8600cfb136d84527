"""Seeded benchmark inputs: raw scrapes, name tables, labeled datasets and
rerank pools.

Everything here is drawn from ``random.Random`` seeded by the workload name
and seed, so inputs never move when the program's own simulator changes.
List lengths follow a fixed schedule rather than the seed, so every seed
gives inputs of the same size and only their content varies.  Each builder
writes its files and returns a ``truth`` dict that the checks in
``checks.py`` recompute expected outputs from.  Nothing here imports
rankaudit.
"""
from __future__ import annotations

import csv
import json
import random
from pathlib import Path

DAILY_LABELS = ("F", "M")
SWEEP_LABELS = ("A", "B", "C")
RERANK_PROPORTIONS = {"A": 0.5, "B": 0.3, "C": 0.2}

_SEP = (",", ":")


def fold(name: str) -> str:
    return name.strip().casefold()


def _json_line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=_SEP) + "\n"


def _evolve(rng: random.Random, qid: str, n: int, days: int, depart: float, make_attrs) -> list[list[dict]]:
    """Ranked lists for ``days`` days of one query.

    Candidates carry a base score; each day they are ranked by base score plus
    noise, after every candidate left independently with probability
    ``depart`` and was replaced by a fresh one.
    """
    serial = 0

    def fresh() -> dict:
        nonlocal serial
        cand = {"cid": f"{qid}-c{serial:06d}", "base": rng.random(), **make_attrs()}
        serial += 1
        return cand

    pool = [fresh() for _ in range(n)]
    lists = []
    for day in range(1, days + 1):
        if day > 1:
            pool = [cand if rng.random() >= depart else fresh() for cand in pool]
        noisy = [(cand["base"] + rng.gauss(0.0, 0.08), cand["cid"], cand) for cand in pool]
        noisy.sort(key=lambda item: (-item[0], item[1]))
        lists.append([cand for _, _, cand in noisy])
    return lists


# ---------------------------------------------------------------------------
# daily-audit: raw scrape with names, plus a name table


def build_daily(work: Path, seed: int, queries: int) -> dict:
    rng = random.Random(f"daily-audit:{seed}")
    table_rows, names = _name_table(rng)
    with open(work / "names.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["name", "label", "count"])
        writer.writerows(table_rows)
    table: dict[str, dict[str, int]] = {}
    for name, label, count in table_rows:
        if count > 0:
            table.setdefault(fold(name), dict.fromkeys(DAILY_LABELS, 0))[label] += count

    def first_name() -> str:
        draw = rng.random()
        pool = names["resolved"] if draw < 0.85 else names["tied"] if draw < 0.9 else names["unlisted"]
        name = rng.choice(pool)
        variant = rng.random()
        if variant < 0.1:
            return name.upper()
        if variant < 0.15:
            return f" {name} "
        return name

    snapshots: dict[tuple[str, int], list[dict]] = {}
    for qi in range(queries):
        qid = f"q{qi:05d}"
        # Most queries hide about 5% of the list; every tenth hides more than
        # the 0.15 default `stats` filter.
        miss = rng.uniform(0.2, 0.3) if qi % 10 == 3 else rng.uniform(0.02, 0.08)
        lists = _evolve(rng, qid, 120 + qi * 7 % 21, 3, 0.15,
                        lambda: {"first": first_name(), "last": f"ln{rng.randrange(5000)}"})
        for day, ranked in enumerate(lists, start=1):
            snapshots[(qid, day)] = [
                {"cid": c["cid"], "first": c["first"], "last": c["last"], "missing": rng.random() < miss}
                for c in ranked
            ]

    # A few snapshots carry one defect each; the loader must quarantine them.
    keys = sorted(snapshots)
    chosen = rng.sample(keys, max(3, len(keys) // 40))
    defects = {key: ("bad_json", "bad_field", "rank_gap")[i % 3] for i, key in enumerate(chosen)}
    n_lines = 0
    with open(work / "raw.jsonl", "w", encoding="utf-8", newline="\n") as handle:
        for key in keys:
            qid, day = key
            entries = snapshots[key]
            hit = rng.randrange(1, len(entries) - 1) if key in defects else -1
            for rank, e in enumerate(entries, start=1):
                row = {
                    "query_id": qid, "day": day, "rank": rank, "candidate_id": e["cid"],
                    "first_name": None if e["missing"] else e["first"],
                    "last_name": None if e["missing"] else e["last"],
                    "groups": None if e["missing"] else {},
                    "missing": e["missing"],
                }
                line = _json_line(row)
                if rank - 1 == hit:
                    kind = defects[key]
                    if kind == "rank_gap":
                        continue
                    if kind == "bad_json":
                        line = line[: len(line) // 2] + "\n"
                    else:
                        line = _json_line({**row, "rank": str(rank)})
                handle.write(line)
                n_lines += 1
    return {"snapshots": snapshots, "defects": defects, "table": table, "n_lines": n_lines,
            "labels": DAILY_LABELS}


def _name_table(rng: random.Random) -> tuple[list[tuple[str, str, int]], dict[str, list[str]]]:
    """Rows of the bench name table plus the names drawn from it.

    Most names have a clear majority; some are exact ties (which label as
    unknown); ``unlisted`` names are absent from the table.  Some (name,
    label) pairs repeat and accumulate, and zero counts are present.
    """
    rows: list[tuple[str, str, int]] = []
    names: dict[str, list[str]] = {"resolved": [], "tied": [], "unlisted": []}
    for i in range(600):
        name = f"nm{i:04d}"
        if i % 20 == 7:
            names["unlisted"].append(name)
            continue
        if i % 20 == 11:
            count = rng.randint(5, 500)
            rows += [(name, "F", count), (name, "M", count)]
            names["tied"].append(name)
            continue
        major, minor = (("F", "M") if rng.random() < 0.5 else ("M", "F"))
        count = rng.randint(20, 5000)
        rows += [(name, major, count), (name, minor, rng.randint(0, count - 1))]
        if i % 9 == 0:
            rows.append((name, major, rng.randint(1, 50)))
        names["resolved"].append(name)
    rng.shuffle(rows)
    return rows, names


# ---------------------------------------------------------------------------
# full-sweep: labeled dataset, three labels, five days, long lists


def build_sweep(work: Path, seed: int, queries: int) -> dict:
    rng = random.Random(f"full-sweep:{seed}")
    snapshots: dict[tuple[str, int], list[dict]] = {}
    for qi in range(queries):
        qid = f"q{qi:05d}"
        raw = [rng.uniform(0.15, 1.0) for _ in SWEEP_LABELS]
        weights = [w / sum(raw) for w in raw]

        def attrs() -> dict:
            draw = rng.random()
            if draw < 0.05:
                return {"label": None}
            if draw < 0.08:
                return {"label": "unknown"}
            return {"label": rng.choices(SWEEP_LABELS, weights)[0]}

        lists = _evolve(rng, qid, 250 + qi * 37 % 101, 5, 0.12, attrs)
        for day, ranked in enumerate(lists, start=1):
            snapshots[(qid, day)] = [{"cid": c["cid"], "label": c["label"]} for c in ranked]
    with open(work / "sweep.jsonl", "w", encoding="utf-8", newline="\n") as handle:
        for (qid, day), entries in sorted(snapshots.items()):
            for rank, e in enumerate(entries, start=1):
                masked = e["label"] is None
                handle.write(_json_line({
                    "query_id": qid, "day": day, "rank": rank, "candidate_id": e["cid"],
                    "first_name": None if masked else "x", "last_name": None,
                    "groups": None if masked else ({} if e["label"] == "unknown" else {"gender": e["label"]}),
                    "missing": masked,
                }))
    return {"snapshots": snapshots, "labels": SWEEP_LABELS}


# ---------------------------------------------------------------------------
# generate-rerank: one scored three-label pool for `rerank`


def build_rerank(work: Path, seed: int, pool_size: int) -> dict:
    rng = random.Random(f"generate-rerank:{seed}")
    pool = []
    serial = 0
    for label, share in RERANK_PROPORTIONS.items():
        for _ in range(round(pool_size * share)):
            # Coarse scores leave ties, so the id tie-break is exercised.
            score = round(rng.betavariate(2, 3 if label == "A" else 4), 4)
            pool.append({"cid": f"p{serial:07d}", "label": label, "score": score})
            serial += 1
    rng.shuffle(pool)
    with open(work / "pool.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["candidate_id", "label", "score"])
        writer.writerows([c["cid"], c["label"], repr(c["score"])] for c in pool)
    return {"pool": pool, "proportions": dict(RERANK_PROPORTIONS), "labels": SWEEP_LABELS}


def write_empty(work: Path) -> Path:
    path = work / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    return path
