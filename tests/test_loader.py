"""The chunked snapshot loader against a reference copy of the line-by-line
loader it replaced.

``ref_load_dataset`` below is ``dataio.load_dataset`` as it stood before
the bulk parse: one ``json.loads`` and one ``ref_row_problem`` (the
``isinstance`` checks the exact-type ``_row_problem`` replaced) per line,
and records built through the public constructor.  It reads lines that end
at LF alone, as the loader has since a bare CR stopped splitting lines.  The hypothesis tests write
the same lines to a file, load it with both (under chunk sizes small enough
that chunk boundaries fall on bad lines) and require equal reports and
series, or the same exception.
"""
from __future__ import annotations

import itertools
import json
import pickle
import re
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankaudit import cli, dataio, loader
from rankaudit.dataio import (
    IntegrityIssue,
    ParseIssue,
    ValidationReport,
    load_dataset,
    write_snapshots,
)
from rankaudit.errors import MalformedRow
from rankaudit.model import CandidateRecord, QuerySeries, RankingSnapshot

from conftest import load_ledger

# ---------------------------------------------------------------------------
# reference loader


def ref_load_dataset(path):
    report = ValidationReport()
    grouped = {}
    tainted = {}

    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            report.n_rows += 1
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                report.parse_issues.append(ParseIssue(lineno, f"invalid JSON: {exc.msg}"))
                continue
            problem = ref_row_problem(raw)
            if problem is not None:
                report.parse_issues.append(ParseIssue(lineno, problem))
                key = loader._row_key(raw)
                if key is not None:
                    tainted.setdefault(key, lineno)
                continue
            key = (raw["query_id"], raw["day"])
            grouped.setdefault(key, []).append((lineno, raw["rank"], raw))

    snapshots = {}
    for key in sorted(grouped):
        query_id, day = key
        rows = sorted(grouped[key], key=lambda item: item[1])
        first_line = rows[0][0]
        if key in tainted:
            report.quarantined.append(key)
            continue
        ranks = [rank for _, rank, _ in rows]
        if ranks != list(range(1, len(rows) + 1)):
            report.integrity_issues.append(
                IntegrityIssue(query_id, day, first_line,
                               f"ranks not contiguous 1..{len(rows)}: {loader._rank_gap(ranks)}")
            )
            report.quarantined.append(key)
            continue
        ids = [raw["candidate_id"] for _, _, raw in rows]
        if len(set(ids)) != len(ids):
            dupe = next(cid for cid in ids if ids.count(cid) > 1)
            report.integrity_issues.append(
                IntegrityIssue(query_id, day, first_line, f"duplicate candidate_id {dupe!r}")
            )
            report.quarantined.append(key)
            continue
        entries = tuple(
            CandidateRecord(
                candidate_id=raw["candidate_id"],
                first_name=raw["first_name"],
                last_name=raw["last_name"],
                group_labels=raw["groups"] or {},
                missing=raw["missing"],
            )
            for _, _, raw in rows
        )
        snapshots.setdefault(query_id, {})[day] = RankingSnapshot(query_id=query_id, day=day, entries=entries)

    for key in sorted(tainted):
        if key not in grouped:
            report.quarantined.append(key)
    report.quarantined.sort()

    series = [QuerySeries(query_id=query_id, snapshots=days) for query_id, days in sorted(snapshots.items())]
    report.n_series = len(series)
    report.n_snapshots = sum(len(s.snapshots) for s in series)
    for one in series:
        report.missing_rates[one.query_id] = one.snapshots[one.first_day].missing_rate
    return series, report


def ref_row_problem(raw):
    if not isinstance(raw, dict):
        return "row is not a JSON object"
    for name in dataio.SNAPSHOT_FIELDS:
        if name not in raw:
            return f"required field {name!r} absent"
    if not isinstance(raw["query_id"], str) or not raw["query_id"]:
        return "query_id must be a non-empty string"
    for name in ("day", "rank"):
        value = raw[name]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            return f"{name} must be an integer >= 1"
    if not isinstance(raw["candidate_id"], str) or not raw["candidate_id"]:
        return "candidate_id must be a non-empty string"
    for name in ("first_name", "last_name"):
        if raw[name] is not None and not isinstance(raw[name], str):
            return f"{name} must be a string or null"
    groups = raw["groups"]
    if groups is not None:
        if not isinstance(groups, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in groups.items()
        ):
            return "groups must be a string-to-string object or null"
    if not isinstance(raw["missing"], bool):
        return "missing must be a boolean"
    if raw["missing"] and not (raw["first_name"] is None and raw["last_name"] is None and groups is None):
        return "missing entries must have null names and groups"
    return None


# ---------------------------------------------------------------------------
# helpers


def row(**overrides) -> dict:
    obj = {"query_id": "q1", "day": 1, "rank": 1, "candidate_id": "c1", "first_name": "Ana",
           "last_name": None, "groups": {"gender": "F"}, "missing": False}
    obj.update(overrides)
    return obj


def line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # both loaders must fail the same way
        return type(exc), str(exc)


def load_both(path: Path, text: str, chunk: int):
    """(bulk outcome, reference outcome) for a file holding ``text``, loaded
    ``chunk`` lines at a time."""
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(loader, "_CHUNK_LINES", chunk):
        got = outcome(load_dataset, path)
    return got, outcome(ref_load_dataset, path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("loader")


# ---------------------------------------------------------------------------
# strategies

NAMES = st.one_of(st.none(), st.sampled_from(["Ana", "José", "Łucja", "  ", "Zoë Ö", "王芳", ""]), st.integers(0, 3))
GROUPS = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["gender", "ä"]), st.sampled_from(["F", "é"]), max_size=2),
    st.just({"gender": 1}),
    st.just(["F"]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.just(10**30), st.just(float("nan")),
    st.floats(allow_nan=False, allow_infinity=True), st.sampled_from(["", "1", "q1", "c2"]),
)
EXTRA = st.one_of(SCALARS, st.lists(SCALARS, max_size=2), st.dictionaries(st.just("k"), SCALARS, max_size=1))

QUERY_IDS = st.sampled_from(["q1", "q2", "é"])
DAYS = st.integers(1, 2)
RANKS = st.integers(1, 4)
CANDIDATE_IDS = st.sampled_from(["c1", "c2", "c3", "ç"])
GROUP_LABELS = st.dictionaries(st.sampled_from(["gender", "region", "ä"]), st.sampled_from(["F", "M", "unknown", "é"]),
                               max_size=2)

ROWS = st.builds(
    lambda obj, absent: {name: value for name, value in obj.items() if name != absent},
    st.fixed_dictionaries(
        {
            "query_id": st.one_of(QUERY_IDS, SCALARS),
            "day": st.one_of(DAYS, SCALARS),
            "rank": st.one_of(RANKS, SCALARS),
            "candidate_id": st.one_of(CANDIDATE_IDS, SCALARS),
            "first_name": NAMES,
            "last_name": NAMES,
            "groups": GROUPS,
            "missing": st.one_of(st.booleans(), SCALARS),
        },
        optional={"extra": EXTRA, "zz": EXTRA},
    ),
    st.one_of(st.none(), st.sampled_from(dataio.SNAPSHOT_FIELDS)),
)
KEYS = {"query_id": QUERY_IDS, "day": DAYS, "rank": RANKS, "candidate_id": CANDIDATE_IDS}
NAME_TEXT = st.one_of(st.none(), st.text(max_size=4))
VALID_ROWS = st.one_of(
    st.fixed_dictionaries(
        {**KEYS, "first_name": NAME_TEXT, "last_name": NAME_TEXT, "groups": st.one_of(st.none(), GROUP_LABELS),
         "missing": st.just(False)},
        optional={"extra": EXTRA},
    ),
    st.fixed_dictionaries(
        {**KEYS, "first_name": st.none(), "last_name": st.none(), "groups": st.none(), "missing": st.just(True)},
        optional={"extra": EXTRA},
    ),
)


@st.composite
def row_lines(draw, rows) -> str:
    """A row from ``rows`` as JSON text, escaped to ASCII or not, sometimes
    with a duplicate key ahead of or after the others, holding a scalar, a
    list or an object (the later value wins in both loaders)."""
    obj = draw(rows)
    text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    if obj and draw(st.booleans()):
        pair = json.dumps(draw(st.sampled_from(sorted(obj)))) + ":" + json.dumps(draw(EXTRA))
        text = "{" + pair + "," + text[1:] if draw(st.booleans()) else text[:-1] + "," + pair + "}"
    return text


VALID = row_lines(VALID_ROWS)
# Pairs of lines, each invalid JSON alone, that joined as "[[first],[second]]"
# parse as two one-element lists holding valid rows: the first leaves a list
# open and the second closes it, then (from the second pair on) overwrites
# the list with a duplicate key.
OPEN_LIST_PAIRS = [
    (line(row())[:-1] + ',"x":[[1', "2]]}],[" + line(row(rank=2, candidate_id="c2"))),
    (line(row())[:-1] + ',"x":[[1', '2]],"x":0}],[' + line(row(rank=2, candidate_id="c2"))),
    (line(row())[:-1] + ',"groups":[[1', '2]],"groups":{"gender":"F"}}],[' + line(row(rank=2, candidate_id="c2"))),
]
ADVERSARIAL = st.sampled_from([
    "1,2", "[", "]", "1],[2", "],[", "[[", "]]", "{", "}", "]},{", '"', '"abc', "", "   ", "\t", "　",
    "﻿" + line(row()), line(row())[:17], line(row())[:-1], line(row()) + ",", line(row()) + " x",
    "null", "[]", "{}", '{"a":[[1', '2]]}],[{"b":1}', "NaN", "1e999", "-", "\x0c",
    *(text for pair in OPEN_LIST_PAIRS for text in pair),
])
LINES = st.one_of(row_lines(ROWS), VALID, VALID, ADVERSARIAL, row_lines(ROWS).map(lambda text: text[: len(text) // 2]),
                  st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))


# ---------------------------------------------------------------------------
# bulk load against the line-by-line reference


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(LINES, max_size=12), chunk=st.integers(1, 5), newline=st.sampled_from(["\n", "\r\n"]),
       last_newline=st.booleans())
def test_bulk_load_matches_line_by_line(data_dir, lines, chunk, newline, last_newline) -> None:
    text = newline.join(lines) + (newline if last_newline else "")
    got, expected = load_both(data_dir / "mixed.jsonl", text, chunk)
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(VALID, min_size=1, max_size=12), chunk=st.integers(1, 13))
def test_valid_rows_load_in_bulk_like_line_by_line(data_dir, lines, chunk) -> None:
    got, expected = load_both(data_dir / "valid.jsonl", "".join(text + "\n" for text in lines), chunk)
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data(), chunk=st.integers(2, 12), chunks=st.integers(1, 3), leaf=st.integers(1, 3))
def test_bad_lines_at_chunk_and_half_edges_load_like_line_by_line(data_dir, data, chunk, chunks, leaf) -> None:
    """A chunk that fails its parse or column check is checked in halves
    down to ``leaf`` lines: bad lines drawn at the first and last line of a
    chunk and on either side of a halving point read as line by line."""
    lines = data.draw(st.lists(VALID, min_size=chunk * chunks, max_size=chunk * chunks))
    edges = sorted({start + offset for start in range(0, chunk * chunks, chunk)
                    for offset in (0, chunk - 1, chunk // 2 - 1, chunk // 2, chunk // 4, chunk - 1 - chunk // 4)})
    for at in data.draw(st.sets(st.sampled_from(edges), min_size=1, max_size=3)):
        lines[at] = data.draw(st.one_of(ADVERSARIAL, row_lines(ROWS)))
    with mock.patch.object(loader, "_LEAF_LINES", leaf):
        got, expected = load_both(data_dir / "edges.jsonl", "".join(text + "\n" for text in lines), chunk)
    assert got == expected


@pytest.mark.parametrize("bad", ['{"query_id":"q1",', line(row(rank="9", candidate_id="c9"))],
                         ids=["bad-json", "bad-field"])
def test_one_bad_line_walks_only_its_leaf(tmp_path, bad) -> None:
    """A bad line, whether its JSON or a field is broken, sends only the
    ``_LEAF_LINES`` lines around it through the row-by-row check."""
    lines = [line(row(rank=r, candidate_id=f"c{r}")) for r in range(1, 2049)]
    lines[1000] = bad
    path = _write(tmp_path, lines)
    with mock.patch.object(loader, "_valid_rows", wraps=loader._valid_rows) as walked:
        got = load_dataset(path)
    assert got == ref_load_dataset(path) and [issue.line for issue in got[1].parse_issues] == [1001]
    assert sum(len(call.args[1]) for call in walked.call_args_list) == loader._LEAF_LINES


@pytest.mark.parametrize("first, second", OPEN_LIST_PAIRS)
def test_open_list_cannot_pass_the_next_line_off_as_a_row(tmp_path, first, second) -> None:
    path = _write(tmp_path, [first, second, line(row(rank=3, candidate_id="c3"))])
    series, report = load_dataset(path)
    assert [issue.line for issue in report.parse_issues] == [1, 2]
    assert all(issue.message.startswith("invalid JSON") for issue in report.parse_issues)
    assert series == [] and report.quarantined == [("q1", 1)]
    assert (series, report) == ref_load_dataset(path)


def test_bracket_in_a_name_loads_like_line_by_line(tmp_path) -> None:
    lines = [line(row(first_name="[Ana]")), line(row(rank=2, candidate_id="c2", last_name="]")),
             line(row(rank=3, candidate_id="c3", groups={"gender": "F", "note": "[x"}))]
    path = _write(tmp_path, lines)
    series, report = load_dataset(path)
    assert report.ok and (series, report) == ref_load_dataset(path)
    assert [r.first_name for r in series[0].snapshots[1].entries] == ["[Ana]", "Ana", "Ana"]


def test_chunk_boundary_on_a_bad_line(tmp_path) -> None:
    lines = [line(row(rank=r, candidate_id=f"c{r}")) for r in range(1, 8)]
    lines[3] = '{"query_id":"q1",'
    lines[5] = line(row(rank="6", candidate_id="c6"))
    path = _write(tmp_path, lines)
    for chunk in range(1, 9):
        with mock.patch.object(loader, "_CHUNK_LINES", chunk):
            got = load_dataset(path)
        assert got == ref_load_dataset(path)
        assert [issue.line for issue in got[1].parse_issues] == [4, 6]


@pytest.mark.parametrize("bad_line", [0, 2])
def test_invalid_utf8_fails_like_line_by_line(tmp_path, bad_line) -> None:
    lines = [line(row(rank=r, candidate_id=f"c{r}")).encode() for r in range(1, 4)]
    lines[bad_line] = lines[bad_line][:-2] + b"\xff" + lines[bad_line][-2:]
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    for chunk in (1, 2, 4):
        with mock.patch.object(loader, "_CHUNK_LINES", chunk):
            got = outcome(load_dataset, path)
        assert got[0] is UnicodeDecodeError and got == outcome(ref_load_dataset, path)


def test_big_ints_nan_and_boolean_day(tmp_path) -> None:
    lines = [
        line(row(rank=10**30)),
        '{"query_id":"q1","day":NaN,"rank":1,"candidate_id":"c1","first_name":null,'
        '"last_name":null,"groups":null,"missing":true}',
        line(row(day=True)),
        line(row(query_id="q2", extra=10**40)),
    ]
    path = _write(tmp_path, lines)
    series, report = load_dataset(path)
    assert (series, report) == ref_load_dataset(path)
    assert [issue.message for issue in report.parse_issues] == ["day must be an integer >= 1"] * 2
    assert report.integrity_issues[0].message.startswith("ranks not contiguous")
    assert [one.query_id for one in series] == ["q2"]


def _late_duplicate_ids() -> list[str]:
    # c49995 repeats before c49990 does, but c49990 comes first in entry
    # order, so it is the one named.
    ids = [f"c{i}" for i in range(50_000)]
    ids[49_997], ids[49_999] = "c49995", "c49990"
    return ids


ONE_ABSENT_RANK = [rank for rank in range(1, 50_002) if rank != 25_000]


@pytest.mark.parametrize("ranks, ids, message", [
    (ONE_ABSENT_RANK, [f"c{rank}" for rank in ONE_ABSENT_RANK], "ranks not contiguous 1..50000: absent [25000]"),
    (range(1, 50_001), _late_duplicate_ids(), "duplicate candidate_id 'c49990'"),
], ids=["absent-rank", "late-duplicate-id"])
def test_integrity_messages_of_a_long_snapshot_take_linear_time(tmp_path, ranks, ids, message) -> None:
    path = _write(tmp_path, [line(row(rank=rank, candidate_id=cid)) for rank, cid in zip(ranks, ids)])
    started = time.perf_counter()
    series, report = load_dataset(path)
    assert time.perf_counter() - started < 5.0
    assert series == [] and [issue.message for issue in report.integrity_issues] == [message]


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(ROWS, SCALARS, st.lists(SCALARS, max_size=2)))
def test_row_problem_matches_the_isinstance_checks(value) -> None:
    raw = json.loads(json.dumps(value))
    assert loader._row_problem(raw) == ref_row_problem(raw)


FIELD_VALUES = [None, True, False, 0, 1, -1, 2, 10**30, 1.0, float("nan"), "", "q1", "Ana", [], ["F"], {},
                {"gender": "F"}, {"gender": 1}, {"gender": None}, {"gender": ["F"]}]


@pytest.mark.parametrize("base", [row(), row(missing=True, first_name=None, last_name=None, groups=None)])
def test_row_problem_matches_the_isinstance_checks_field_by_field(base) -> None:
    for name in dataio.SNAPSHOT_FIELDS:
        absent = {key: value for key, value in base.items() if key != name}
        assert loader._row_problem(absent) == ref_row_problem(absent)
        for value in FIELD_VALUES:
            raw = json.loads(json.dumps({**base, name: value}))
            assert loader._row_problem(raw) == ref_row_problem(raw), (name, value)


ONE_RULE_BROKEN = [
    row(query_id=""), row(query_id=1), row(day=0), row(day=1.0), row(rank=0), row(rank=-1), row(rank=None),
    row(candidate_id=""), row(candidate_id=5), row(first_name=1), row(last_name=False), row(groups=[]),
    row(groups={"gender": None}), row(groups="F"), row(missing=None), row(missing=0),
    row(missing=True, first_name=None, last_name=None, groups={}),
    row(missing=True, first_name=None, last_name="Ng", groups=None),
    row(missing=True, first_name="Ana", last_name=None, groups=None),
    row(extra=[1]), row(extra={"k": 1}), row(extra={}),
]


def test_each_broken_rule_reads_like_line_by_line(tmp_path) -> None:
    lines = []
    for n, obj in enumerate(ONE_RULE_BROKEN):
        lines += [line(row(query_id=f"ok{n}")), line(obj)]
    path = _write(tmp_path, lines)
    for chunk in (1, 2, 3, 4096):
        with mock.patch.object(loader, "_CHUNK_LINES", chunk):
            got = load_dataset(path)
        assert got == ref_load_dataset(path)
    assert len(got[1].parse_issues) == len(ONE_RULE_BROKEN) - 3  # the three extras are valid


# ---------------------------------------------------------------------------
# the column check against the row check


ABSENT = object()


def perturb(obj: dict, name: str, value) -> dict:
    """``obj`` with field ``name`` set to ``value``, or dropped for ``ABSENT``."""
    if value is ABSENT:
        return {key: one for key, one in obj.items() if key != name}
    return {**obj, name: value}


MASKED_ROW = row(missing=True, first_name=None, last_name=None, groups=None)
# A valid row with one field set to a value of FIELD_VALUES or dropped.
PERTURBED_ROWS = st.builds(
    perturb, st.one_of(VALID_ROWS, st.just(row()), st.just(MASKED_ROW)),
    st.sampled_from(dataio.SNAPSHOT_FIELDS), st.sampled_from([*FIELD_VALUES, ABSENT]),
)
CHUNK_VALUES = st.one_of(VALID_ROWS, VALID_ROWS, PERTURBED_ROWS, ROWS, SCALARS, st.lists(SCALARS, max_size=2))


def column_check_agrees(values: list) -> None:
    """The column check accepts ``values`` exactly when every row is valid,
    and then gives its rows' fields as columns."""
    columns = loader._checked_columns(values)
    valid = all(loader._row_problem(value) is None for value in values)
    assert (columns is not None) == valid, [loader._row_problem(value) for value in values]
    if valid:
        assert columns == tuple(zip(*map(loader._snapshot_fields, values)))


@settings(max_examples=500, deadline=None)
@given(values=st.lists(CHUNK_VALUES, min_size=1, max_size=6), unparsed=st.integers(-1, 5))
def test_column_check_accepts_exactly_the_chunks_of_valid_rows(values, unparsed) -> None:
    values = [json.loads(json.dumps(value)) for value in values]
    column_check_agrees(values)
    if 0 <= unparsed < len(values):
        values[unparsed] = loader._UNPARSED
        assert loader._checked_columns(values) is None


@pytest.mark.parametrize("base", [row(), MASKED_ROW])
def test_column_check_refuses_each_broken_field_among_valid_rows(base) -> None:
    valid = [row(rank=2, candidate_id="c2"), MASKED_ROW]
    column_check_agrees([base, *valid])
    for name in dataio.SNAPSHOT_FIELDS:
        for value in [*FIELD_VALUES, ABSENT]:
            raw = json.loads(json.dumps(perturb(base, name, value)))
            for values in ([raw], [*valid, raw], [raw, *valid]):
                column_check_agrees(values)
    for value in [None, True, 1, 1.5, "", "q1", [], [row()]]:
        column_check_agrees([*valid, value])
    for raw in ONE_RULE_BROKEN:
        column_check_agrees([*valid, json.loads(json.dumps(raw))])


# ---------------------------------------------------------------------------
# snapshots spread over runs and chunks


def snapshot_rows(query_id: str, ranks, ids=None) -> list[str]:
    ids = ids or [f"c{rank}" for rank in ranks]
    return [line(row(query_id=query_id, rank=rank, candidate_id=cid)) for rank, cid in zip(ranks, ids)]


def interleave(*parts: list[str]) -> list[str]:
    return [text for group in itertools.zip_longest(*parts) for text in group if text is not None]


SPREAD_FILES = {
    "split": snapshot_rows("q1", range(1, 8)) + snapshot_rows("q2", range(1, 4)),
    "interleaved": interleave(snapshot_rows("q1", range(1, 6)), snapshot_rows("q2", range(1, 5))),
    "out-of-order": snapshot_rows("q1", [3, 1, 2, 6, 5, 4]) + snapshot_rows("q2", [2, 1]),
    "interleaved-out-of-order": interleave(snapshot_rows("q1", [2, 4, 1, 3]), snapshot_rows("q2", [3, 2, 1])),
    "tied-ranks": snapshot_rows("q1", [2, 1, 1, 3], ["c2", "c1", "c9", "c3"]) + snapshot_rows("q2", [1]),
    "gap-in-second-part": snapshot_rows("q1", [1, 2, 3, 5, 6]) + snapshot_rows("q2", [1, 2]),
    "duplicate-id-in-second-part": snapshot_rows("q1", range(1, 7), ["c1", "c2", "c3", "c4", "c2", "c6"]),
    "interleaved-defects": interleave(snapshot_rows("q1", [1, 2, 4, 5]), snapshot_rows("q2", [1, 2, 3], ["a", "b", "a"]),
                                      snapshot_rows("q3", [1, 2, 3])),
    "back-after-other-snapshot": snapshot_rows("q1", [1, 2]) + snapshot_rows("q2", [1, 2]) + snapshot_rows("q1", [3]),
}


@pytest.mark.parametrize("broken", [None, 1, 4], ids=["clean", "bad-line-2", "bad-line-5"])
@pytest.mark.parametrize("name", sorted(SPREAD_FILES))
def test_snapshots_spread_over_runs_and_chunks_load_like_line_by_line(tmp_path, name, broken) -> None:
    lines = list(SPREAD_FILES[name])
    if broken is not None:
        # A line that does not parse sends its chunk to the row-by-row check.
        lines.insert(broken, '{"query_id":"q9",')
    path = _write(tmp_path, lines)
    expected = ref_load_dataset(path)
    for chunk in (1, 2, 3, 4, 5, 7, 4096):
        with mock.patch.object(loader, "_CHUNK_LINES", chunk):
            assert load_dataset(path) == expected, chunk


def test_out_of_order_rows_load_sorted_and_tied_ranks_name_the_first_line(tmp_path) -> None:
    lines = snapshot_rows("q1", [3, 1, 2, 6, 5, 4]) + snapshot_rows("q3", [2, 1, 1, 3], ["c2", "c1", "c9", "c3"])
    path = _write(tmp_path, lines)
    with mock.patch.object(loader, "_CHUNK_LINES", 4):
        series, report = load_dataset(path)
    assert [record.candidate_id for record in series[0].snapshots[1].entries] == [f"c{r}" for r in range(1, 7)]
    # q3's ranks 2, 1, 1, 3 sit on lines 7 to 10: the first rank-1 row,
    # line 8, is the one named.
    assert report.integrity_issues == [
        IntegrityIssue("q3", 1, 8, "ranks not contiguous 1..4: absent [4], duplicated [1]"),
    ]


# ---------------------------------------------------------------------------
# line ends


def cr_lines() -> list[str]:
    """Two valid rows with a CR (JSON whitespace) before ``"missing"``."""
    return [line(row(rank=r, candidate_id=f"c{r}")).replace(',"missing"', ',\r"missing"') for r in (1, 2)]


def test_carriage_return_inside_a_line_is_whitespace(tmp_path) -> None:
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join([*cr_lines(), line(row())[:20]]) + "\n", encoding="utf-8", newline="")
    series, report = load_dataset(path)
    assert report.n_rows == 3
    assert [(issue.line, issue.message[:21]) for issue in report.parse_issues] == [(3, "invalid JSON: Invalid")]
    assert [r.candidate_id for r in series[0].snapshots[1].entries] == ["c1", "c2"]


def test_crlf_lines_still_load(tmp_path) -> None:
    path = tmp_path / "data.jsonl"
    path.write_text("\r\n".join(cr_lines()) + "\r\n", encoding="utf-8", newline="")
    series, report = load_dataset(path)
    assert report.ok and report.n_rows == 2


def test_carriage_return_inside_a_ledger_line_is_whitespace(tmp_path) -> None:
    truth = {"query_id": "q1", "weights": {"F": 0.5}, "composition": {"F": 1}, "labels": {"f1": "F"},
             "scores": {"f1": 0.5}, "departures": []}
    path = tmp_path / "ledger.jsonl"
    path.write_text(json.dumps(truth).replace(', "departures"', ',\r"departures"') + "\r\n",
                    encoding="utf-8", newline="")
    (loaded,) = load_ledger(path)
    assert loaded.query_id == "q1" and loaded.departures == ()


# ---------------------------------------------------------------------------
# nesting


def test_too_deep_a_line_is_a_parse_issue(tmp_path) -> None:
    lines = [line(row()), "[" * 200_000, line(row(rank=2, candidate_id="c2")), ' {"a":' * 100_000]
    series, report = load_dataset(_write(tmp_path, lines))
    assert report.parse_issues == [ParseIssue(2, "invalid JSON: nesting too deep"),
                                   ParseIssue(4, "invalid JSON: nesting too deep")]
    assert [r.candidate_id for r in series[0].snapshots[1].entries] == ["c1", "c2"]


def test_too_deep_a_line_is_a_malformed_ledger_row(tmp_path) -> None:
    path = tmp_path / "ledger.jsonl"
    path.write_text("\n" + '{"query_id":' + "[" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match=r"^line 2: invalid JSON: nesting too deep$"):
        load_ledger(path)


# ---------------------------------------------------------------------------
# integers past the int-string conversion limit


LIMIT_MESSAGE = r"invalid number: Exceeds the limit \(4300 digits\) for integer string conversion"


def test_too_long_an_integer_is_a_parse_issue(tmp_path) -> None:
    lines = [line(row()), line(row(rank=2, candidate_id="c2")).replace('"rank":2', '"rank":' + "2" * 5000),
             line(row(rank=2, candidate_id="c3"))]
    series, report = load_dataset(_write(tmp_path, lines))
    assert [issue.line for issue in report.parse_issues] == [2]
    assert re.match(LIMIT_MESSAGE, report.parse_issues[0].message)
    assert [r.candidate_id for r in series[0].snapshots[1].entries] == ["c1", "c3"]


def test_too_long_an_integer_is_a_malformed_ledger_row(tmp_path) -> None:
    path = tmp_path / "ledger.jsonl"
    path.write_text("\n" + '{"query_id":' + "9" * 5000 + "}\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match="^line 2: " + LIMIT_MESSAGE):
        load_ledger(path)


def test_validate_reports_too_long_an_integer_on_its_line(tmp_path, capsys) -> None:
    path = _write(tmp_path, [line(row()), line(row(rank=2)).replace('"rank":2', '"rank":' + "1" * 5000)])
    assert cli.main(["validate", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [issue["line"] for issue in report["parse_issues"]] == [2]
    assert report["n_series"] == 1


# ---------------------------------------------------------------------------
# round trip


RECORD_NAMES = st.one_of(st.none(), st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6))
LABELED = st.builds(
    lambda first, last, groups: ("labeled", first, last, groups),
    RECORD_NAMES, RECORD_NAMES,
    st.dictionaries(st.sampled_from(["gender", "région", "年齢"]), st.sampled_from(["F", "M", "ü", "unknown"]),
                    max_size=3),
)
ENTRIES = st.lists(st.one_of(LABELED, st.just(("missing",))), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(days=st.lists(ENTRIES, min_size=1, max_size=3), query_id=st.sampled_from(["q1", "Zürich", "東京"]))
def test_write_load_write_is_byte_identical(data_dir, days, query_id) -> None:
    snapshots = {}
    for day, entries in enumerate(days, start=1):
        records = []
        for i, entry in enumerate(entries):
            cid = f"{query_id}-{day}-{i}ß"
            if entry[0] == "missing":
                records.append(CandidateRecord(candidate_id=cid, missing=True))
            else:
                _, first, last, groups = entry
                records.append(CandidateRecord(candidate_id=cid, first_name=first, last_name=last,
                                               group_labels=groups))
        snapshots[day] = RankingSnapshot(query_id=query_id, day=day, entries=tuple(records))
    first = data_dir / "first.jsonl"
    second = data_dir / "second.jsonl"
    write_snapshots([QuerySeries(query_id=query_id, snapshots=snapshots)], first)
    series, report = load_dataset(first)
    assert report.ok
    write_snapshots(series, second)
    assert second.read_bytes() == first.read_bytes()


def _write(directory: Path, lines: list[str]) -> Path:
    path = directory / "data.jsonl"
    path.write_text("".join(text + "\n" for text in lines), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# the report types


def test_report_types_compare_by_value_and_read_like_dataclasses() -> None:
    """The issues are named tuples and the report a namespace: equal when
    every field is, a report unhashable (its lists grow) and shown as the
    dataclass it was."""
    report = ValidationReport(n_rows=2, parse_issues=[ParseIssue(1, "bad")])
    assert report == ValidationReport(2, 0, 0, [ParseIssue(1, "bad")], [], [], {})
    assert report != ValidationReport(n_rows=2)
    assert report != ValidationReport(n_rows=3, parse_issues=[ParseIssue(1, "bad")])
    assert report != report.to_dict()
    assert repr(ValidationReport()) == ("ValidationReport(n_rows=0, n_snapshots=0, n_series=0, parse_issues=[], "
                                        "integrity_issues=[], quarantined=[], missing_rates={})")
    assert repr(ParseIssue(1, "bad")) == "ParseIssue(line=1, message='bad')"
    with pytest.raises(TypeError):
        hash(report)
    issue = IntegrityIssue("q1", 1, 3, "gap")
    assert (issue.query_id, issue.day, issue.line, issue.message) == ("q1", 1, 3, "gap")
    with pytest.raises(AttributeError):
        issue.line = 4
    assert ValidationReport().parse_issues is not ValidationReport().parse_issues
    assert pickle.loads(pickle.dumps(report)) == report
    assert not report.ok and ValidationReport().ok
    assert list(vars(report)) == [key for key in report.to_dict() if key != "ok"]
