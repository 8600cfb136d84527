"""Independent checks of the program's outputs, recomputed from the inputs.

Nothing here imports rankaudit: labels, prefix shares, skews, churn and the
DetGreedy floor/ceiling bounds are recomputed from the truth that
``inputs.py`` returns.  Every check returns a list of problems; an empty
list means the output passed.  Tables are checked for their exact row
count, and a seeded sample of their cells (every cell, for small tables) is
recomputed and must match the written value to all 10 significant digits.
Corrected-skew cells are covered by row counts and the sha256 references
only.
"""
from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

from inputs import fold

SAMPLE = 3000
MAX_MISSING = 0.15
MIN_POOL = 101

CURVE_HEADER = ["query_id", "day", "attribute", "label", "k", "metric", "value"]
CHURN_HEADER = ["query_id", "attribute", "label", "k", "metric", "start_day", "end_day", "value"]
PROTOCOL_HEADER = ["k", "coef", "estimate", "se", "z", "p", "ci_lo", "ci_hi"]


class Lists:
    """Ranked (candidate id, label) lists keyed by (query, day).

    A label of ``None`` marks a hidden candidate; ``"unknown"`` an
    unresolved one.  Neither enters a share's numerator or denominator.
    """

    def __init__(self, lists: dict[tuple[str, int], list[tuple[str, str | None]]], labels: tuple[str, ...]):
        self.lists = lists
        self.labels = labels
        self.days: dict[str, list[int]] = {}
        for qid, day in sorted(lists):
            self.days.setdefault(qid, []).append(day)
        self._tables: dict = {}

    def _table(self, key):
        if key not in self._tables:
            counts = {label: [0] for label in self.labels}
            totals = [0]
            for _, label in self.lists[key]:
                for lbl, acc in counts.items():
                    acc.append(acc[-1] + (label == lbl))
                totals.append(totals[-1] + (label in counts))
            targets = {lbl: counts[lbl][-1] / totals[-1] for lbl in self.labels}
            self._tables[key] = (counts, totals, targets)
        return self._tables[key]

    def share(self, key, label, k):
        counts, totals, _ = self._table(key)
        if k < 1 or k >= len(totals) or totals[k] == 0:
            return None
        return counts[label][k] / totals[k]

    def skew(self, key, label, k):
        share = self.share(key, label, k)
        if share is None:
            return None
        return -math.inf if share == 0.0 else math.log(share / self._table(key)[2][label])

    def metric(self, key, metric, label, k):
        target = self._table(key)[2].get(label)
        if metric == "deviation":
            share = self.share(key, label, k)
            return None if share is None else target - share
        if metric == "skew":
            return self.skew(key, label, k)
        if metric == "minskew":
            skews = [self.skew(key, lbl, k) for lbl in self.labels]
            return None if any(s is None for s in skews) else min(skews)
        raise ValueError(f"metric {metric!r}")

    def churn(self, qid, label, k, start_day, end_day):
        start, end = self.lists.get((qid, start_day)), self.lists.get((qid, end_day))
        if start is None or end is None or not (1 <= k <= min(len(start), len(end))):
            return None
        members = [cid for cid, lbl in start[:k] if lbl == label]
        if not members:
            return None
        kept = {cid for cid, _ in end[:k]}
        return sum(1 for cid in members if cid not in kept) / len(members)

    def pairs(self, qid, mode):
        days = self.days[qid]
        if mode == "consecutive":
            return list(zip(days, days[1:]))
        return [(days[0], d) for d in days[1:]]

    def missing_rate(self, key):
        entries = self.lists[key]
        return sum(1 for _, lbl in entries if lbl is None) / len(entries)


def _cell(text):
    if text is None or text in ("undefined", ""):
        return None
    if text == "-inf":
        return -math.inf
    return float(text)


def _same(got, want) -> bool:
    """Exact agreement with the program's 10-significant-digit output."""
    if got is None or want is None or math.isinf(want):
        return got == want
    return got == float(f"{want:.10g}")


def _sample(rows: list, seed: str, size: int = SAMPLE) -> list:
    if len(rows) <= size:
        return rows
    return random.Random(seed).sample(rows, size)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _count(problems: list, what: str, got: int, want: int) -> None:
    if got != want:
        problems.append(f"{what}: {got} rows, expected {want}")


# ---------------------------------------------------------------------------
# daily-audit


def resolve(name: str | None, table: dict, labels: tuple[str, ...]) -> str:
    entry = table.get(fold(name)) if name is not None else None
    if entry is None:
        return "unknown"
    best = max(entry.values())
    winners = [lbl for lbl in labels if entry[lbl] == best]
    return winners[0] if len(winners) == 1 else "unknown"


def daily_lists(truth: dict) -> Lists:
    """The labeled dataset `label` should produce: quarantined snapshots
    dropped, every visible candidate labeled from the name table."""
    lists = {}
    for key, entries in truth["snapshots"].items():
        if key not in truth["defects"]:
            lists[key] = [(e["cid"], None if e["missing"] else resolve(e["first"], truth["table"], truth["labels"]))
                          for e in entries]
    return Lists(lists, truth["labels"])


def check_label(path: Path, truth: dict, data: Lists) -> list[str]:
    problems: list[str] = []
    rows = _read_jsonl(path)
    want = [(qid, day, rank, e) for (qid, day) in sorted(data.lists)
            for rank, e in enumerate(truth["snapshots"][(qid, day)], start=1)]
    _count(problems, path.name, len(rows), len(want))
    for row, (qid, day, rank, e) in zip(rows, want):
        label = data.lists[(qid, day)][rank - 1][1]
        expected = {
            "query_id": qid, "day": day, "rank": rank, "candidate_id": e["cid"],
            "first_name": None if e["missing"] else e["first"],
            "last_name": None if e["missing"] else e["last"],
            "groups": None if e["missing"] else {"gender": label},
            "missing": e["missing"],
        }
        if row != expected:
            problems.append(f"{path.name}: {qid} day {day} rank {rank}: {row!r} != {expected!r}")
            break
    return problems


def check_validate(path: Path, truth: dict) -> list[str]:
    report = json.loads(path.read_text(encoding="utf-8"))
    kinds = list(truth["defects"].values())
    kept = {qid for (qid, day) in truth["snapshots"] if (qid, day) not in truth["defects"]}
    want = {
        "n_rows": truth["n_lines"],
        "n_snapshots": len(truth["snapshots"]) - len(kinds),
        "n_series": len(kept),
        "ok": False,
        "parse": kinds.count("bad_json") + kinds.count("bad_field"),
        "integrity": kinds.count("bad_json") + kinds.count("rank_gap"),
        "quarantined": sorted(truth["defects"]),
    }
    got = {
        "n_rows": report["n_rows"],
        "n_snapshots": report["n_snapshots"],
        "n_series": report["n_series"],
        "ok": report["ok"],
        "parse": len(report["parse_issues"]),
        "integrity": len(report["integrity_issues"]),
        "quarantined": [(q["query_id"], q["day"]) for q in report["quarantined"]],
    }
    return [f"{path.name}: {name} = {got[name]!r}, expected {want[name]!r}" for name in want if got[name] != want[name]]


def check_curves(path: Path, data: Lists, grid: list[int] | None) -> list[str]:
    """Audit long table; ``grid`` of None means every cutoff 1..n."""
    problems: list[str] = []
    rows = _read_csv(path)
    if rows[:1] != [CURVE_HEADER]:
        return [f"{path.name}: header {rows[:1]!r}"]
    per_cutoff = 3 * len(data.labels) + 1
    want = sum(per_cutoff * (len(entries) if grid is None else len(grid)) for entries in data.lists.values())
    _count(problems, path.name, len(rows) - 1, want)
    for qid, day, _, label, k, metric, value in _sample(rows[1:], f"curves:{path.name}"):
        if metric == "corrected_skew":
            continue
        key = (qid, int(day))
        if key not in data.lists:
            problems.append(f"{path.name}: unexpected snapshot {key}")
            break
        expected = data.metric(key, metric, label or None, int(k))
        if not _same(_cell(value), expected):
            problems.append(f"{path.name}: {qid} day {day} {metric} {label} k={k}: {value} != {expected!r}")
            break
    return problems


def check_churn(path: Path, data: Lists, mode: str, grid: list[int] | None, fmt: str) -> list[str]:
    """Churn long table; ``grid`` of None means 1..longest list of the query."""
    problems: list[str] = []
    if fmt == "csv":
        rows = _read_csv(path)
        if rows[:1] != [CHURN_HEADER]:
            return [f"{path.name}: header {rows[:1]!r}"]
        cells = [(r[0], r[2], int(r[3]), int(r[5]), int(r[6]), _cell(r[7])) for r in rows[1:]]
    else:
        cells = [(r["query_id"], r["label"], r["k"], r["start_day"], r["end_day"],
                  -math.inf if r["value"] == "-inf" else r["value"]) for r in _read_jsonl(path)]
    want = 0
    for qid in data.days:
        longest = max(len(data.lists[(qid, d)]) for d in data.days[qid])
        want += len(data.labels) * len(data.pairs(qid, mode)) * (longest if grid is None else len(grid))
    _count(problems, path.name, len(cells), want)
    for qid, label, k, start, end, value in _sample(cells, f"churn:{path.name}"):
        expected = data.churn(qid, label, k, start, end)
        if not _same(value, expected):
            problems.append(f"{path.name}: {qid} {label} k={k} {start}->{end}: {value!r} != {expected!r}")
            break
    return problems


def _protocol_rows(path: Path, problems: list, want_keys: list[tuple[int, str]]) -> list[list[str]]:
    rows = _read_csv(path)
    if rows[:1] != [PROTOCOL_HEADER]:
        problems.append(f"{path.name}: header {rows[:1]!r}")
        return []
    rows = rows[1:]
    _count(problems, path.name, len(rows), len(want_keys))
    for row, (k, coef) in zip(rows, want_keys):
        if (int(row[0]), row[1]) != (k, coef):
            problems.append(f"{path.name}: row {row[:2]} where ({k}, {coef}) was expected")
        elif not all(math.isfinite(float(v)) for v in row[2:]):
            problems.append(f"{path.name}: non-finite value in {row}")
    return rows


def kept_queries(data: Lists) -> list[str]:
    """Queries the `stats` default filter keeps (first observed day)."""
    return [qid for qid, days in data.days.items()
            if data.missing_rate((qid, days[0])) <= MAX_MISSING and len(data.lists[(qid, days[0])]) >= MIN_POOL]


def check_minskew_protocol(path: Path, data: Lists, cutoffs: list[int]) -> list[str]:
    """Row layout, plus the intercept estimate on balanced cutoffs: when every
    kept query contributes the same number of cells, the random-intercept
    GLS estimate is the plain mean of the cells at any variance ratio."""
    problems: list[str] = []
    rows = _protocol_rows(path, problems, [(k, "intercept") for k in cutoffs])
    kept = kept_queries(data)
    for row, k in zip(rows, cutoffs):
        per_query = []
        for qid in kept:
            values = [data.metric((qid, d), "minskew", None, k) for d in data.days[qid]]
            per_query.append([v for v in values if v is not None and v != -math.inf])
        if len({len(v) for v in per_query}) == 1:
            mean = sum(sum(v) for v in per_query) / sum(len(v) for v in per_query)
            if not math.isclose(float(row[2]), mean, rel_tol=1e-8, abs_tol=1e-10):
                problems.append(f"{path.name}: k={k} estimate {row[2]} != cell mean {mean!r}")
    return problems


def check_churn_protocol(path: Path, data: Lists, cutoffs: list[int]) -> list[str]:
    problems: list[str] = []
    coef = f"is_{data.labels[1]}"
    _protocol_rows(path, problems, [(k, c) for k in cutoffs for c in (coef, "day")])
    return problems


def check_heatmap(path: Path, data: Lists, grid: list[int]) -> list[str]:
    problems: list[str] = []
    rows = _read_csv(path)
    if rows[:1] != [["row", *map(str, grid)]]:
        return [f"{path.name}: header {rows[:1]!r}"]
    keys = sorted(data.lists)
    _count(problems, path.name, len(rows) - 1, len(keys))
    want = {f"{qid}:{day}": (qid, day) for qid, day in keys}
    for row in _sample(rows[1:], f"heatmap:{path.name}"):
        key = want.get(row[0])
        if key is None:
            problems.append(f"{path.name}: unexpected row {row[0]!r}")
            break
        for k, text in zip(grid, row[1:]):
            expected = data.metric(key, "minskew", None, k)
            if not _same(_cell(text), expected):
                problems.append(f"{path.name}: {row[0]} k={k}: {text!r} != {expected!r}")
                return problems
    return problems


# ---------------------------------------------------------------------------
# full-sweep


def sweep_lists(truth: dict) -> Lists:
    return Lists({key: [(e["cid"], e["label"]) for e in entries] for key, entries in truth["snapshots"].items()},
                 truth["labels"])


# ---------------------------------------------------------------------------
# generate-rerank


def prefix_violations(labels_in_order: list[str], shares: dict[str, float]) -> list[tuple[int, str]]:
    """(k, label) where the top-k count leaves [floor(k p), ceil(k p)]."""
    counts = dict.fromkeys(shares, 0)
    bad = []
    for k, label in enumerate(labels_in_order, start=1):
        counts[label] += 1
        for lbl, p in shares.items():
            x = p * k
            if not math.floor(x) <= counts[lbl] <= math.ceil(x):
                bad.append((k, lbl))
    return bad


def check_simulate(snap_path: Path, ledger_path: Path, queries: int, days: int, labels: tuple[str, ...],
                   seed: int) -> list[str]:
    """Simulated snapshots against the simulator's own ledger: row counts,
    visible labels, departures, and DetGreedy prefix bounds on sampled lists."""
    problems: list[str] = []
    ledger = _read_jsonl(ledger_path)
    _count(problems, ledger_path.name, len(ledger), queries)
    truth = {row["query_id"]: row for row in ledger}
    lists: dict[tuple[str, int], list[dict]] = {}
    rows = _read_jsonl(snap_path)
    for row in rows:
        lists.setdefault((row["query_id"], row["day"]), []).append(row)
    _count(problems, snap_path.name, len(rows), sum(sum(t["composition"].values()) * days for t in ledger))
    for (qid, day), entries in lists.items():
        t = truth.get(qid)
        if t is None or [e["rank"] for e in entries] != list(range(1, sum(t["composition"].values()) + 1)):
            problems.append(f"{snap_path.name}: {qid} day {day}: ranks or length disagree with the ledger")
            return problems
        for e in entries:
            want = None if e["missing"] else {"gender": t["labels"][e["candidate_id"]]}
            if e["groups"] != want:
                problems.append(f"{snap_path.name}: {e['candidate_id']} groups {e['groups']!r} != {want!r}")
                return problems
    for qid, day in _sample(sorted(lists), f"simulate:{seed}", 200):
        t = truth[qid]
        order = [t["labels"][e["candidate_id"]] for e in lists[(qid, day)]]
        shares = {lbl: order.count(lbl) / len(order) for lbl in labels}
        bad = prefix_violations(order, shares)
        if bad:
            problems.append(f"{snap_path.name}: {qid} day {day}: DetGreedy prefix bounds broken at {bad[:3]}")
            break
        for dep_day, cid in t["departures"]:
            if dep_day == day and day > 1:
                before = {e["candidate_id"] for e in lists[(qid, day - 1)]}
                after = {e["candidate_id"] for e in lists[(qid, day)]}
                if cid not in before or cid in after:
                    problems.append(f"{snap_path.name}: departure of {cid} on day {day} not reflected")
                    return problems
    return problems


def check_rerank(path: Path, truth: dict) -> list[str]:
    problems: list[str] = []
    rows = _read_csv(path)
    if rows[:1] != [["rank", "candidate_id", "label", "score"]]:
        return [f"{path.name}: header {rows[:1]!r}"]
    rows = rows[1:]
    pool = {c["cid"]: c for c in truth["pool"]}
    _count(problems, path.name, len(rows), len(pool))
    if sorted(r[1] for r in rows) != sorted(pool) or [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        return problems + [f"{path.name}: not a ranking of the pool"]
    last: dict[str, tuple[float, str]] = {}
    for _, cid, label, score in rows:
        cand = pool[cid]
        if label != cand["label"] or not _same(float(score), cand["score"]):
            return problems + [f"{path.name}: {cid} reads {label},{score}"]
        prev = last.get(label)
        if prev is not None and (-prev[0], prev[1]) > (-cand["score"], cid):
            return problems + [f"{path.name}: {cid} ranked out of score order within {label}"]
        last[label] = (cand["score"], cid)
    bad = prefix_violations([r[2] for r in rows], truth["proportions"])
    if bad:
        problems.append(f"{path.name}: DetGreedy prefix bounds broken at {bad[:3]}")
    return problems
