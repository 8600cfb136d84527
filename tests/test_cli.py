from __future__ import annotations

import ast
import contextlib
import csv
import gc
import importlib
import io
import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankaudit import MissingBaselineEntry, ZeroTargetProportion, cli, commands, dataio, exposure, model
from rankaudit.cli import main
from rankaudit.commands import _targets_for
from rankaudit.dataio import load_dataset

from conftest import GENDER, child_env, load_ledger, snapshot, write_cli_inputs
from test_loader import LINES
from test_readers import BASELINE_CASES, BINARY, NAME_CASES, POOL_CASES, csv_texts, jsonl_texts


def run(*argv: str) -> int:
    return main(list(argv))


def read_csv(path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    assert run("simulate", "--seed", "11", "--queries", "3", "--pool", "30:30",
               "--days", "2", "--departures", "0.3,0.2", "-o", str(path)) == 0
    return path


class TestSimulateCommand:
    def test_seed_is_mandatory(self, tmp_path, capsys) -> None:
        assert run("simulate", "--queries", "2", "-o", str(tmp_path / "x.jsonl")) == 1
        assert "--seed is required" in capsys.readouterr().err

    def test_non_finite_weight_is_rejected(self, tmp_path, capsys) -> None:
        assert run("simulate", "--seed", "1", "--weights", "1,nan",
                   "-o", str(tmp_path / "x.jsonl")) == 1
        assert capsys.readouterr().err == "error: group weights must be finite\n"

    @pytest.mark.parametrize("option, value, message", [
        ("--score-spreads", "inf,inf", "score spread for 'F' must be positive and finite"),
        ("--weights-concentration", "inf", "weights_concentration must be positive and finite"),
    ])
    def test_non_finite_spread_or_concentration_is_rejected(self, tmp_path, capsys, option, value,
                                                            message) -> None:
        out = tmp_path / "x.jsonl"
        assert run("simulate", "--seed", "1", "--queries", "1", "--pool", "5:5", option, value,
                   "-o", str(out), "--ledger", str(tmp_path / "truth.jsonl")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_writes_dataset_and_ledger(self, tmp_path) -> None:
        data = tmp_path / "data.jsonl"
        truth = tmp_path / "truth.jsonl"
        rc = run("simulate", "--seed", "3", "--queries", "4", "--pool", "25:30",
                 "-o", str(data), "--ledger", str(truth))
        assert rc == 0
        series, report = load_dataset(data)
        assert report.ok and len(series) == 4
        ledger = load_ledger(truth)
        assert [t.query_id for t in ledger] == [s.query_id for s in series]

    def test_reruns_are_byte_identical(self, tmp_path) -> None:
        args = ("simulate", "--seed", "9", "--queries", "3", "--pool", "20:25",
                "--days", "2", "--departures", "0.2,0.2", "--missing-prob", "0.1")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(*args, "-o", str(a), "--ledger", str(tmp_path / "la.jsonl")) == 0
        assert run(*args, "-o", str(b), "--ledger", str(tmp_path / "lb.jsonl")) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "la.jsonl").read_bytes() == (tmp_path / "lb.jsonl").read_bytes()

    def test_injection_reports_its_effect(self, tmp_path, capsys) -> None:
        rc = run("simulate", "--seed", "7", "--queries", "3", "--pool", "60:60",
                 "--inject-label", "F", "--inject-strength", "1.0",
                 "-o", str(tmp_path / "biased.jsonl"))
        assert rc == 0
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["label"] == "F" and record["strength"] == 1.0
        assert record["demotions"] > 0

    def test_injection_page_below_one_is_rejected(self, tmp_path, capsys) -> None:
        out = tmp_path / "biased.jsonl"
        assert run("simulate", "--seed", "1", "--queries", "1", "--pool", "5", "--inject-label", "F",
                   "--page-size", "0", "-o", str(out)) == 1
        assert capsys.readouterr().err == "error: page_size must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("options, message", [
        (["--inject-label", "X"], "label 'X' not in scheme 'gender'"),
        (["--inject-label", "F", "--inject-strength", "1.5"], "strength must be in [0, 1], got 1.5"),
        (["--inject-label", "F", "--page-size", "0"], "page_size must be >= 1, got 0"),
    ])
    def test_injection_options_are_checked_before_generating(self, tmp_path, capsys, monkeypatch, options,
                                                             message) -> None:
        def generate(config):
            raise AssertionError("generated before the injection options were checked")

        monkeypatch.setattr("rankaudit.simulate.generate", generate)
        assert run("simulate", "--seed", "1", *options, "-o", str(tmp_path / "biased.jsonl"),
                   "--ledger", str(tmp_path / "truth.jsonl")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_stdout_by_default(self, capsys) -> None:
        assert run("simulate", "--seed", "2", "--queries", "1", "--pool", "5:5") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["rank"] == 1


class TestValidateCommand:
    def test_clean_dataset_passes(self, dataset, capsys) -> None:
        assert run("validate", str(dataset)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["n_series"] == 3

    def test_broken_dataset_fails_with_listing(self, tmp_path, capsys) -> None:
        bad = tmp_path / "bad.jsonl"
        rows = [
            {"query_id": "q1", "day": 1, "rank": 1, "candidate_id": "a",
             "first_name": None, "last_name": None, "groups": {"gender": "F"}, "missing": False},
            {"query_id": "q1", "day": 1, "rank": 3, "candidate_id": "b",
             "first_name": None, "last_name": None, "groups": {"gender": "M"}, "missing": False},
        ]
        bad.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        assert run("validate", str(bad), "--format", "csv") == 1
        out = capsys.readouterr().out
        kinds = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert kinds == ["integrity", "quarantined"]


class TestAuditCommand:
    def test_default_metrics_cover_the_grid(self, dataset, tmp_path) -> None:
        out = tmp_path / "curves.csv"
        assert run("audit", str(dataset), "--k-grid", "10,20", "-o", str(out)) == 0
        rows = read_csv(out)
        assert {r["metric"] for r in rows} == {"deviation", "skew", "minskew", "corrected_skew"}
        assert {r["k"] for r in rows} == {"10", "20"}
        assert {r["label"] for r in rows if r["metric"] == "minskew"} == {""}
        assert {r["label"] for r in rows if r["metric"] == "skew"} == {"F", "M"}
        assert {r["day"] for r in rows} == {"1", "2"}
        # 3 queries x 2 days x 2 cutoffs x (2+2+1+2 labeled curves)
        assert len(rows) == 3 * 2 * 2 * 7

    def test_range_grid_spec(self, dataset, tmp_path) -> None:
        out = tmp_path / "curves.csv"
        assert run("audit", str(dataset), "--k-grid", "10:30:10", "--metrics", "minskew",
                   "-o", str(out)) == 0
        assert {r["k"] for r in read_csv(out)} == {"10", "20", "30"}

    def test_day_restriction(self, dataset, tmp_path) -> None:
        out = tmp_path / "curves.csv"
        assert run("audit", str(dataset), "--day", "2", "--metrics", "minskew",
                   "--k-grid", "10", "-o", str(out)) == 0
        assert {r["day"] for r in read_csv(out)} == {"2"}

    def test_a_day_no_snapshot_has_is_named_in_a_warning(self, dataset, tmp_path, capsys) -> None:
        out = tmp_path / "curves.csv"
        assert run("audit", str(dataset), "--day", "7", "--k-grid", "10", "-o", str(out)) == 0
        assert capsys.readouterr().err == "warning: no snapshot has day 7 (days in the file: 1, 2)\n"
        assert out.read_text(encoding="utf-8") == ",".join(dataio.CURVE_HEADER) + "\n"

    def test_unknown_metric_rejected(self, dataset, capsys) -> None:
        assert run("audit", str(dataset), "--metrics", "sparkle") == 1
        assert "unrecognized metrics" in capsys.readouterr().err

    def test_external_baseline_changes_targets(self, dataset, tmp_path) -> None:
        lines = ["query_id,attribute,label,share"]
        for qid in ("q00000", "q00001", "q00002"):
            lines += [f"{qid},gender,F,0.2", f"{qid},gender,M,0.8"]
        baseline = tmp_path / "baseline.csv"
        baseline.write_text("\n".join(lines) + "\n", encoding="utf-8")
        observed, external = tmp_path / "observed.csv", tmp_path / "external.csv"
        common = ("audit", str(dataset), "--metrics", "deviation", "--k-grid", "10", "--day", "1")
        assert run(*common, "-o", str(observed)) == 0
        assert run(*common, "--baseline", str(baseline), "-o", str(external)) == 0
        assert observed.read_text() != external.read_text()
        # Against a fixed 0.2 target the two groups' deviations must differ
        # by the observed-vs-target gap, mirrored.
        for row in read_csv(external):
            assert row["value"] not in ("undefined", "")

    def test_missing_baseline_entry_has_its_own_error(self) -> None:
        with pytest.raises(MissingBaselineEntry, match="no proportions for"):
            _targets_for(snapshot("FM"), GENDER, {})
        assert not issubclass(MissingBaselineEntry, ZeroTargetProportion)

    def test_query_without_baseline_entry_is_skipped_with_a_warning(self, dataset, tmp_path, capsys) -> None:
        baseline = tmp_path / "baseline.csv"
        baseline.write_text("query_id,attribute,label,share\nq00000,gender,F,0.5\nq00000,gender,M,0.5\n",
                            encoding="utf-8")
        out = tmp_path / "curves.csv"
        assert run("audit", str(dataset), "--k-grid", "10", "--day", "1", "--baseline", str(baseline),
                   "-o", str(out)) == 0
        err = capsys.readouterr().err
        assert "warning: q00001 day 1: baseline has no proportions for ('q00001', 'gender')" in err
        assert {row["query_id"] for row in read_csv(out)} == {"q00000"}

    def test_one_prefix_table_per_snapshot(self, dataset, tmp_path, monkeypatch) -> None:
        built = []

        def counting(snap, scheme):
            built.append((snap.query_id, snap.day))
            return real(snap, scheme)

        real = model.snapshot_counts
        # ``cli`` reads it through ``model``.
        for module in (exposure, model):
            monkeypatch.setattr(module, "snapshot_counts", counting)
        # Targets plus 2 deviation, 2 skew, 1 MinSkew and 2 corrected-skew
        # curves per snapshot, all from one table.
        assert run("audit", str(dataset), "--k-grid", "10,20", "-o", str(tmp_path / "curves.csv")) == 0
        assert built == [(q, day) for q in ("q00000", "q00001", "q00002") for day in (1, 2)]

    def test_curves_are_built_through_the_module_attributes(self, dataset, tmp_path, monkeypatch) -> None:
        # The bench's tracer rebinds the builders on the module, so both
        # curve-building commands must look each one up there per call.
        built = []

        def counting(name, real):
            def build(snap, *args, **kwargs):
                built.append((name, snap.query_id, snap.day))
                return real(snap, *args, **kwargs)
            return build

        for name in ("deviation", "skew", "minskew", "corrected_skew"):
            monkeypatch.setattr(exposure, f"{name}_curve", counting(name, getattr(exposure, f"{name}_curve")))
        assert run("audit", str(dataset), "--k-grid", "10,20", "-o", str(tmp_path / "curves.csv")) == 0
        snaps = [(q, day) for q in ("q00000", "q00001", "q00002") for day in (1, 2)]
        per_snapshot = ["deviation"] * 2 + ["skew"] * 2 + ["minskew"] + ["corrected_skew"] * 2
        assert built == [(name, q, day) for q, day in snaps for name in per_snapshot]
        built.clear()
        assert run("stats", "minskew-protocol", str(dataset), "--min-pool", "1", "--cutoffs", "10",
                   "-o", str(tmp_path / "protocol.csv")) == 0
        assert built == [("minskew", q, day) for q, day in snaps]

    def test_default_grid_is_shared_by_the_run(self, tmp_path) -> None:
        # Lists of 120-140 entries: per-list page grids would end at 100 or
        # at 125 and leave export with differing grids.
        data, table, heat = tmp_path / "d.jsonl", tmp_path / "curves.csv", tmp_path / "heat.csv"
        assert run("simulate", "--seed", "2", "--queries", "30", "--pool", "120:140", "--days", "2",
                   "-o", str(data)) == 0
        assert run("audit", str(data), "-o", str(table)) == 0
        rows = read_csv(table)
        assert sorted({int(r["k"]) for r in rows}) == [25, 50, 75, 100, 125]
        assert any(r["k"] == "125" and r["value"] == "undefined" for r in rows)
        assert run("export", str(table), "--metric", "minskew", "-o", str(heat)) == 0
        lines = heat.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row,25,50,75,100,125"
        assert len(lines) == 1 + 30 * 2

    def test_full_grid_stays_per_snapshot(self, tmp_path) -> None:
        data, out = tmp_path / "d.jsonl", tmp_path / "curves.csv"
        assert run("simulate", "--seed", "11", "--queries", "4", "--pool", "20:30", "-o", str(data)) == 0
        assert run("audit", str(data), "--k-grid", "full", "--metrics", "minskew", "-o", str(out)) == 0
        lengths = {one.query_id: len(one.snapshots[1].entries) for one in load_dataset(str(data))[0]}
        assert len(set(lengths.values())) > 1
        grids: dict[str, list[int]] = {}
        for row in read_csv(out):
            grids.setdefault(row["query_id"], []).append(int(row["k"]))
        assert grids == {qid: list(range(1, n + 1)) for qid, n in lengths.items()}

    def test_full_grid_exports_with_empty_cells_past_short_lists(self, tmp_path) -> None:
        # Lists of 120-140 entries: every 1..n grid is a prefix of the longest.
        data, table, heat = tmp_path / "d.jsonl", tmp_path / "curves.csv", tmp_path / "heat.csv"
        assert run("simulate", "--seed", "2", "--queries", "30", "--pool", "120:140", "--days", "2",
                   "-o", str(data)) == 0
        assert run("audit", str(data), "--k-grid", "full", "--metrics", "minskew", "-o", str(table)) == 0
        assert run("export", str(table), "--metric", "minskew", "-o", str(heat)) == 0
        values = {(r["query_id"], r["day"], int(r["k"])): r["value"] for r in read_csv(table)}
        longest = max(k for _, _, k in values)
        lines = heat.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row," + ",".join(str(k) for k in range(1, longest + 1))
        assert len(lines) == 1 + 30 * 2
        short_rows = 0
        for line in lines[1:]:
            label, *cells = line.split(",")
            qid, day = label.split(":")
            n = max(k for q, d, k in values if (q, d) == (qid, day))
            assert len(cells) == longest
            assert [c or "undefined" for c in cells[:n]] == [values[(qid, day, k)] for k in range(1, n + 1)]
            assert cells[n:] == [""] * (longest - n)
            short_rows += n < longest
        assert short_rows > 0

    def test_closed_stdout_ends_quietly(self, tmp_path) -> None:
        # ~5,600 rows, far more than a pipe buffer holds, so the child is
        # still writing when the reader goes away.
        path = tmp_path / "long.jsonl"
        assert run("simulate", "--seed", "11", "--queries", "4", "--pool", "200:200", "-o", str(path)) == 0
        child = subprocess.Popen(
            [sys.executable, "-m", "rankaudit.cli", "audit", str(path), "--k-grid", "full"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        assert child.stdout.readline().startswith(b"query_id,")
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert err == b""


@pytest.mark.parametrize("command", ["audit", "churn"])
@pytest.mark.parametrize("spec, reason", [
    ("10:5", "empty range '10:5'"),
    ("0", "cutoffs must be at least 1, got '0'"),
    ("-5,10", "cutoffs must be at least 1, got '-5,10'"),
    ("0:10:5", "cutoffs must be at least 1, got '0:10:5'"),
    ("5:10:0", "step must be at least 1 in '5:10:0'"),
    ("1:10:2:3", "expected N, A,B,C, LO:HI[:STEP] or full, got '1:10:2:3'"),
    ("a", "invalid k grid value: 'a'"),
    ("5:x", "invalid k grid value: '5:x'"),
    ("2.5", "invalid k grid value: '2.5'"),
])
def test_bad_k_grid_is_a_usage_error(dataset, tmp_path, capsys, command, spec, reason) -> None:
    out = tmp_path / "table.csv"
    assert run(command, str(dataset), f"--k-grid={spec}", "-o", str(out)) == 1
    assert capsys.readouterr().err == f"error: argument --k-grid: {reason}\n"
    assert not out.exists()


class TestChurnCommand:
    def test_consecutive_pairs(self, dataset, tmp_path) -> None:
        out = tmp_path / "churn.csv"
        assert run("churn", str(dataset), "--pairs", "consecutive", "--k-grid", "10",
                   "-o", str(out)) == 0
        rows = read_csv(out)
        assert {(r["start_day"], r["end_day"]) for r in rows} == {("1", "2")}
        assert {r["label"] for r in rows} == {"F", "M"}

    def test_explicit_pairs(self, dataset, tmp_path) -> None:
        out = tmp_path / "churn.csv"
        assert run("churn", str(dataset), "--pairs", "1-2", "--k-grid", "5,10",
                   "-o", str(out)) == 0
        rows = read_csv(out)
        assert {(r["start_day"], r["end_day"]) for r in rows} == {("1", "2")}
        assert {r["k"] for r in rows} == {"5", "10"}

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_a_pair_day_no_snapshot_has_is_named_in_a_warning(self, dataset, tmp_path, capsys, form) -> None:
        """Each day of the explicit pairs that no snapshot has gets one
        warning, in the order first named, as ``audit --day`` does; the
        pairs naming it still give their undefined cells, and the status
        is unchanged."""
        pairs = "1-9,1-2,2-8,8-9"
        if form == "flag":
            options = ["--pairs", pairs]
        else:
            (tmp_path / "run.cfg").write_text(f"pairs = {pairs}\n", encoding="utf-8")
            options = ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "churn.csv"
        assert run("churn", str(dataset), *options, "--k-grid", "10", "-o", str(out)) == 0
        assert capsys.readouterr().err == (
            "warning: no snapshot has day 9 (days in the file: 1, 2)\n"
            "warning: no snapshot has day 8 (days in the file: 1, 2)\n"
        )
        rows = read_csv(out)
        undefined = {(r["start_day"], r["end_day"]) for r in rows if r["value"] == "undefined"}
        assert undefined == {("1", "9"), ("2", "8"), ("8", "9")}
        assert len(rows) == 3 * 2 * 4  # 3 queries x 2 labels x 4 pairs
        assert run("churn", str(dataset), "--pairs", "1-2", "--k-grid", "10") == 0
        assert capsys.readouterr().err == ""

    def test_k_grid_cutoffs_are_written_once_in_increasing_order(self, dataset, tmp_path) -> None:
        ordered, given = tmp_path / "ordered.csv", tmp_path / "given.csv"
        assert run("churn", str(dataset), "--k-grid", "5,10", "-o", str(ordered)) == 0
        assert run("churn", str(dataset), "--k-grid", "10,5,10,5", "-o", str(given)) == 0
        assert given.read_bytes() == ordered.read_bytes()
        assert [r["k"] for r in read_csv(ordered)] == ["5", "10"] * 6  # 3 queries x 2 labels


class TestRerankCommand:
    def write_pool(self, tmp_path, rows):
        path = tmp_path / "pool.csv"
        path.write_text(
            "candidate_id,label,score\n" + "\n".join(f"{c},{l},{s}" for c, l, s in rows) + "\n",
            encoding="utf-8",
        )
        return path

    def test_csv_output_interleaves(self, tmp_path) -> None:
        pool = self.write_pool(
            tmp_path, [("f1", "F", 0.9), ("f2", "F", 0.7), ("m1", "M", 0.8), ("m2", "M", 0.6)]
        )
        out = tmp_path / "ranked.csv"
        assert run("rerank", str(pool), "--proportions", "F=0.5,M=0.5", "-o", str(out)) == 0
        rows = read_csv(out)
        assert [r["candidate_id"] for r in rows] == ["f1", "m1", "f2", "m2"]
        assert [r["rank"] for r in rows] == ["1", "2", "3", "4"]

    def test_json_output_reports_violations(self, tmp_path, capsys) -> None:
        pool = self.write_pool(tmp_path, [("f1", "F", 0.9), ("f2", "F", 0.8)])
        assert run("rerank", str(pool), "--proportions", "F=0.5,M=0.5", "--format", "json") == 0
        captured = capsys.readouterr()
        result = json.loads(captured.out)
        assert result["order"] == ["f1", "f2"]
        assert result["feasible"] is False
        assert result["violations"]
        assert "violations" in captured.err

    def test_pool_shares_are_the_default_targets(self, tmp_path) -> None:
        pool = self.write_pool(
            tmp_path, [("f1", "F", 0.9), ("f2", "F", 0.8), ("f3", "F", 0.7), ("m1", "M", 0.95)]
        )
        out = tmp_path / "ranked.csv"
        assert run("rerank", str(pool), "-o", str(out)) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert {r["candidate_id"] for r in rows} == {"f1", "f2", "f3", "m1"}

    def test_pool_label_outside_the_scheme_is_named(self, tmp_path, capsys) -> None:
        pool = self.write_pool(tmp_path, [("f1", "F", 0.9), ("x1", "X", 0.8), ("y1", "Y", 0.7)])
        assert run("rerank", str(pool)) == 1
        assert capsys.readouterr().err == "error: pool label 'X' not in scheme\n"

    @pytest.mark.parametrize("options", [[], ["--proportions", "F=0.5,M=0.5"]])
    def test_empty_pool_is_named_with_or_without_proportions(self, tmp_path, capsys, options) -> None:
        pool = tmp_path / "pool.csv"
        pool.write_text("candidate_id,label,score\n", encoding="utf-8")
        assert run("rerank", str(pool), *options) == 1
        assert capsys.readouterr() == ("", "error: cannot re-rank an empty pool\n")

    def test_header_is_checked(self, tmp_path, capsys) -> None:
        bad = tmp_path / "pool.csv"
        bad.write_text("id,group,points\nf1,F,0.9\n", encoding="utf-8")
        assert run("rerank", str(bad)) == 1
        assert "candidate_id,label,score" in capsys.readouterr().err

    def test_short_row_is_a_clean_error(self, tmp_path, capsys) -> None:
        pool = self.write_pool(tmp_path, [("a", "F", 0.9)])
        pool.write_text(pool.read_text(encoding="utf-8") + "b,M\n", encoding="utf-8")
        assert run("rerank", str(pool)) == 1
        assert capsys.readouterr().err == "error: line 3: expected 3 fields, got 2\n"

    def test_non_numeric_score_is_a_clean_error(self, tmp_path, capsys) -> None:
        pool = self.write_pool(tmp_path, [("a", "F", 0.9), ("b", "M", "high")])
        assert run("rerank", str(pool)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and "'high'" in err and err.count("\n") == 1


@pytest.fixture()
def wide_dataset(tmp_path):
    path = tmp_path / "wide.jsonl"
    assert run("simulate", "--seed", "21", "--queries", "10", "--pool", "110:130",
               "--days", "3", "--departures", "0.4,0.1", "-o", str(path)) == 0
    return path


class TestStatsCommand:
    def test_minskew_protocol_layout(self, wide_dataset, tmp_path) -> None:
        out = tmp_path / "protocol.csv"
        assert run("stats", "minskew-protocol", str(wide_dataset), "--cutoffs", "25",
                   "-o", str(out)) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["k"] == "25" and rows[0]["coef"] == "intercept"
        assert float(rows[0]["se"]) > 0

    def test_null_shifts_the_test(self, wide_dataset, tmp_path) -> None:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("stats", "minskew-protocol", str(wide_dataset), "--cutoffs", "25",
                   "--null", "0", "-o", str(a)) == 0
        assert run("stats", "minskew-protocol", str(wide_dataset), "--cutoffs", "25",
                   "--null", "-0.25", "-o", str(b)) == 0
        za, zb = float(read_csv(a)[0]["z"]), float(read_csv(b)[0]["z"])
        assert za != zb
        assert float(read_csv(a)[0]["estimate"]) == float(read_csv(b)[0]["estimate"])

    @pytest.mark.parametrize("null", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_a_non_finite_null_is_refused(self, wide_dataset, tmp_path, capsys, null, via_config) -> None:
        out = tmp_path / "protocol.csv"
        if via_config:
            (tmp_path / "stats.cfg").write_text(f"null = {null}\n", encoding="utf-8")
            given = ("--config", str(tmp_path / "stats.cfg"))
        else:
            given = (f"--null={null}",)
        assert run("stats", "minskew-protocol", str(wide_dataset), "--cutoffs", "25", *given, "-o", str(out)) == 1
        assert capsys.readouterr().err == f"error: null must be finite, got {float(null)!r}\n"
        assert not out.exists()

    def test_churn_protocol_reports_both_coefficients(self, wide_dataset, tmp_path) -> None:
        out = tmp_path / "protocol.csv"
        assert run("stats", "churn-protocol", str(wide_dataset), "--cutoffs", "25",
                   "-o", str(out)) == 0
        rows = read_csv(out)
        assert [r["coef"] for r in rows] == ["is_M", "day"]
        # Group F departs four times as often, so the M indicator is negative.
        assert float(rows[0]["estimate"]) < 0

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_churn_protocol_warns_that_it_ignores_a_baseline(self, wide_dataset, tmp_path, capsys,
                                                               via_config) -> None:
        plain, ignored = tmp_path / "plain.csv", tmp_path / "ignored.csv"
        common = ("stats", "churn-protocol", str(wide_dataset), "--cutoffs", "25")
        assert run(*common, "-o", str(plain)) == 0
        assert "warning" not in capsys.readouterr().err
        # The file is never opened, so one that does not exist is no error.
        absent = str(tmp_path / "absent.csv")
        if via_config:
            (tmp_path / "stats.cfg").write_text(f"baseline = {absent}\n", encoding="utf-8")
            given = ("--config", str(tmp_path / "stats.cfg"))
        else:
            given = ("--baseline", absent)
        assert run(*common, *given, "-o", str(ignored)) == 0
        assert capsys.readouterr().err == "warning: --baseline is not used by churn-protocol\n"
        assert ignored.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("protocol, coefs", [("minskew-protocol", 1), ("churn-protocol", 2)])
    def test_cutoffs_are_written_once_in_increasing_order(self, wide_dataset, tmp_path, protocol, coefs) -> None:
        ordered, given = tmp_path / "ordered.csv", tmp_path / "given.csv"
        common = ("stats", protocol, str(wide_dataset))
        assert run(*common, "--cutoffs", "10,25", "-o", str(ordered)) == 0
        assert run(*common, "--cutoffs", "25,10,25", "-o", str(given)) == 0
        assert given.read_bytes() == ordered.read_bytes()
        assert [r["k"] for r in read_csv(ordered)] == ["10"] * coefs + ["25"] * coefs

    def test_failed_cutoff_keeps_the_other_rows(self, tmp_path, capsys) -> None:
        data, one, two = tmp_path / "d.jsonl", tmp_path / "one.csv", tmp_path / "two.csv"
        assert run("simulate", "--seed", "3", "--queries", "4", "--pool", "30:40", "-o", str(data)) == 0
        common = ("stats", "minskew-protocol", str(data), "--min-pool", "1")
        assert run(*common, "--cutoffs", "10", "-o", str(one)) == 0
        capsys.readouterr()
        # Only two lists reach k=35: too few cells to fit.
        assert run(*common, "--cutoffs", "10,35", "-o", str(two)) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert warnings == [
            "warning: one observation per query: variance ratio unidentifiable, reporting boundary fit",
            "warning: k=35: need at least 3 observations for 1 coefficients, got 2",
        ]
        lines = two.read_text(encoding="utf-8").splitlines()
        assert lines[:2] == one.read_text(encoding="utf-8").splitlines()
        assert lines[2] == "35,intercept," + ",".join(["undefined"] * 6)

    def test_churn_cutoffs_that_cannot_fit_give_undefined_rows(self, tmp_path, capsys) -> None:
        # With two days every cell ends on day 2, so the day column duplicates
        # the intercept at every cutoff.
        data, out = tmp_path / "d.jsonl", tmp_path / "protocol.jsonl"
        assert run("simulate", "--seed", "6", "--queries", "12", "--pool", "40:60", "--days", "2",
                   "-o", str(data)) == 0
        # The table is written, but a run that tested nothing still fails.
        assert run("stats", "churn-protocol", str(data), "--min-pool", "1", "--cutoffs", "10,20",
                   "--format", "json", "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert "warning: k=10: fixed-effect design is rank deficient" in err
        assert "warning: k=20: fixed-effect design is rank deficient" in err
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [(r["k"], r["coef"]) for r in rows] == [(10, "is_M"), (10, "day"), (20, "is_M"), (20, "day")]
        for r in rows:
            assert [r[f] for f in ("estimate", "se", "z", "p", "ci_lo", "ci_hi")] == [None] * 6
            assert r["n_obs"] == 24 and r["n_groups"] == 12 and r["n_excluded"] == 0

    def test_churn_failed_cutoff_keeps_the_other_rows(self, wide_dataset, tmp_path, capsys) -> None:
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        common = ("stats", "churn-protocol", str(wide_dataset))
        assert run(*common, "--cutoffs", "25", "-o", str(one)) == 0
        capsys.readouterr()
        # No list reaches k=200, so every query is dropped at that cutoff.
        assert run(*common, "--cutoffs", "25,200", "-o", str(two)) == 0
        assert "warning: k=200: need at least 5 observations for 3 coefficients, got 0" in capsys.readouterr().err
        lines = two.read_text(encoding="utf-8").splitlines()
        assert lines[:3] == one.read_text(encoding="utf-8").splitlines()
        assert lines[3:] == [f"200,{coef}," + ",".join(["undefined"] * 6) for coef in ("is_M", "day")]

    def test_library_warnings_reach_stderr_with_the_prefix(self, tmp_path) -> None:
        # One list per query: the fit logs that the variance ratio is
        # unidentifiable.  A fresh child, so no test logging setup interferes.
        data = tmp_path / "d.jsonl"
        assert run("simulate", "--seed", "3", "--queries", "4", "--pool", "30:40", "-o", str(data)) == 0
        child = subprocess.run(
            [sys.executable, "-m", "rankaudit.cli", "stats", "minskew-protocol", str(data),
             "--min-pool", "1", "--cutoffs", "10"],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert child.returncode == 0
        assert child.stderr.splitlines() == [
            "warning: one observation per query: variance ratio unidentifiable, reporting boundary fit"
        ]

    def test_log_handler_is_removed_after_the_run(self, wide_dataset, tmp_path) -> None:
        before = list(logging.getLogger("rankaudit").handlers)
        assert run("stats", "minskew-protocol", str(wide_dataset), "--cutoffs", "25",
                   "-o", str(tmp_path / "p.csv")) == 0
        assert logging.getLogger("rankaudit").handlers == before

    def test_only_the_fits_log_and_only_stats_attaches_the_handler(self) -> None:
        """``mixedlm`` is the one layer module that imports ``logging`` or
        creates a logger, and the CLI imports it only in the helper that
        attaches the ``warning:`` handler (``commands``), which wraps
        ``stats`` alone.  A layer that starts logging fails here until its
        subcommands are wrapped too, and the list below is updated."""
        package = Path(cli.__file__).parent
        users = {}
        for path in sorted(package.rglob("*.py")):
            name = ".".join(path.relative_to(package).with_suffix("").parts).removesuffix(".__init__")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                imports = isinstance(node, ast.Import) and any(a.name == "logging" for a in node.names)
                imports |= isinstance(node, ast.ImportFrom) and node.module == "logging"
                if imports or isinstance(node, ast.Attribute) and node.attr == "getLogger":
                    users.setdefault(name, []).append(node)
        assert sorted(users) == ["commands", "mixedlm"]
        helper = next(node for node in ast.walk(ast.parse(Path(commands.__file__).read_text(encoding="utf-8")))
                      if isinstance(node, ast.FunctionDef) and node.name == "_with_library_warnings")
        inside = {(node.lineno, node.col_offset) for node in ast.walk(helper) if hasattr(node, "lineno")}
        assert {(node.lineno, node.col_offset) for node in users["commands"]} <= inside
        parsers = cli._build_parser().commands
        wrapped = sorted(name for name, parser in parsers.items()
                         if parser.get_default("handler").__qualname__.startswith("_with_library_warnings."))
        assert wrapped == ["stats"]

    def test_small_pools_are_filtered_out(self, dataset, capsys) -> None:
        assert run("stats", "minskew-protocol", str(dataset), "--cutoffs", "10") == 1
        err = capsys.readouterr().err
        assert "filtered out 3/3 queries" in err

    def test_filters_can_be_loosened(self, dataset, tmp_path) -> None:
        out = tmp_path / "protocol.csv"
        assert run("stats", "minskew-protocol", str(dataset), "--cutoffs", "10",
                   "--min-pool", "0", "--max-missing", "1.0", "-o", str(out)) == 0
        assert read_csv(out)[0]["k"] == "10"


class TestExportCommand:
    def test_minskew_matrix(self, dataset, tmp_path) -> None:
        table = tmp_path / "curves.csv"
        assert run("audit", str(dataset), "--metrics", "minskew", "--k-grid", "10,20",
                   "-o", str(table)) == 0
        heat = tmp_path / "heat.csv"
        assert run("export", str(table), "--metric", "minskew", "-o", str(heat)) == 0
        lines = heat.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "row,10,20"
        assert len(lines) == 1 + 3 * 2  # queries x days
        assert lines[1].startswith("q00000:1,")

    def test_labeled_metric_needs_a_label(self, dataset, tmp_path, capsys) -> None:
        table = tmp_path / "curves.csv"
        assert run("audit", str(dataset), "--metrics", "skew", "--k-grid", "10",
                   "-o", str(table)) == 0
        assert run("export", str(table), "--metric", "skew") == 1
        assert "span labels" in capsys.readouterr().err
        heat = tmp_path / "heat.csv"
        assert run("export", str(table), "--metric", "skew", "--label", "F", "-o", str(heat)) == 0
        assert heat.read_text().splitlines()[0] == "row,10"

    def test_jsonl_tables_are_accepted(self, dataset, tmp_path) -> None:
        table = tmp_path / "curves.jsonl"
        assert run("audit", str(dataset), "--metrics", "minskew", "--k-grid", "10",
                   "--format", "json", "-o", str(table)) == 0
        heat = tmp_path / "heat.csv"
        assert run("export", str(table), "--metric", "minskew", "-o", str(heat)) == 0
        assert heat.read_text().splitlines()[0] == "row,10"

    def test_churn_tables_pivot_by_day_pair(self, dataset, tmp_path) -> None:
        table = tmp_path / "churn.csv"
        assert run("churn", str(dataset), "--pairs", "consecutive", "--k-grid", "10",
                   "-o", str(table)) == 0
        heat = tmp_path / "heat.csv"
        assert run("export", str(table), "--metric", "churn", "--label", "F", "-o", str(heat)) == 0
        lines = heat.read_text().splitlines()
        assert lines[0] == "row,10"
        assert lines[1].startswith("1->2,")

    def test_absent_metric_is_an_error(self, dataset, tmp_path, capsys) -> None:
        table = tmp_path / "curves.csv"
        assert run("audit", str(dataset), "--metrics", "minskew", "--k-grid", "10",
                   "-o", str(table)) == 0
        assert run("export", str(table), "--metric", "sparkle") == 1
        assert "no rows for metric" in capsys.readouterr().err

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_jsonl_cells_may_hold_line_separators(self, tmp_path, separator) -> None:
        table = tmp_path / "curves.jsonl"
        query_id = f"q{separator}1"
        dataio.write_long_table([(query_id, 1, "gender", "", 10, "minskew", -0.25)], dataio.CURVE_HEADER,
                                table, "json")
        heat = tmp_path / "heat.csv"
        assert run("export", str(table), "--metric", "minskew", "-o", str(heat)) == 0
        assert heat.read_bytes().decode("utf-8") == f"row,10\n{query_id}:1,-0.25\n"

    def test_row_label_holding_a_carriage_return_reads_back(self, tmp_path) -> None:
        table, heat = tmp_path / "curves.csv", tmp_path / "heat.csv"
        dataio.write_long_table([("q\r1", 1, "gender", "", 5, "minskew", 0.5)], dataio.CURVE_HEADER, table)
        assert run("export", str(table), "--metric", "minskew", "-o", str(heat)) == 0
        assert heat.read_bytes() == b'row,5\n"q\r1:1",0.5\n'
        with heat.open(encoding="utf-8", newline="") as handle:
            assert list(csv.reader(handle)) == [["row", "5"], ["q\r1:1", "0.5"]]

    @pytest.mark.parametrize("label, message", [
        ("1", "error: line 2: label 1 does not parse\n"),
        ('["F"]', "error: line 2: label ['F'] does not parse\n"),
        ("null", "error: rows span labels ['', 'F']; pass --label to pick one\n"),
    ])
    def test_label_that_is_not_a_string_is_a_clean_error(self, tmp_path, capsys, label, message) -> None:
        table = tmp_path / "curves.jsonl"
        row = '{"query_id":"q1","day":1,"attribute":"gender","label":%s,"k":10,"metric":"minskew","value":0.5}\n'
        table.write_text(row % '"F"' + row % label, encoding="utf-8")
        assert run("export", str(table), "--metric", "minskew") == 1
        assert capsys.readouterr().err == message

    def test_jsonl_line_numbers_count_line_feeds_only(self, tmp_path, capsys) -> None:
        table = tmp_path / "curves.jsonl"
        good = '{"query_id":"q\u2028\u20291","day":1,"attribute":"gender","label":"","k":10,' \
               '"metric":"minskew","value":0.5}\n'
        table.write_text(good + good.replace('"k":10', '"k":"ten"'), encoding="utf-8")
        assert run("export", str(table), "--metric", "minskew") == 1
        assert capsys.readouterr().err == "error: line 2: k 'ten' does not parse\n"

    def test_table_without_day_column_is_a_clean_error(self, tmp_path, capsys) -> None:
        table = tmp_path / "curves.csv"
        table.write_text("query_id,attribute,label,k,metric,value\nq1,gender,,25,minskew,-0.1\n",
                         encoding="utf-8")
        assert run("export", str(table), "--metric", "minskew") == 1
        assert capsys.readouterr().err == "error: line 2: no 'day' value\n"


    @pytest.mark.parametrize("k", ["Infinity", "1e400"])
    def test_cutoff_too_large_for_an_int_is_a_clean_error(self, tmp_path, capsys, k) -> None:
        table = tmp_path / "curves.jsonl"
        table.write_text('{"query_id":"q1","day":1,"attribute":"gender","label":"","k":' + k
                         + ',"metric":"minskew","value":0.5}\n', encoding="utf-8")
        assert run("export", str(table), "--metric", "minskew") == 1
        assert capsys.readouterr().err == "error: line 1: k inf does not parse\n"

    @pytest.mark.parametrize("cells, message", [
        ('"day":1,"k":10.7', "k 10.7"),
        ('"day":1,"k":true', "k True"),
        ('"day":true,"k":10', "day True"),
        ('"day":1,"k":"1e1"', "k '1e1'"),
    ])
    def test_jsonl_cutoff_or_day_that_is_not_an_integer_is_an_error(self, tmp_path, capsys, cells,
                                                                    message) -> None:
        # int() used to truncate 10.7 and read true as 1, moving the cell
        # into another column with exit status 0.
        table = tmp_path / "curves.jsonl"
        row = '{"query_id":"q1",%s,"attribute":"gender","label":"","metric":"minskew","value":0.5}\n'
        table.write_text(row % '"day":1,"k":10' + row % cells, encoding="utf-8")
        assert run("export", str(table), "--metric", "minskew") == 1
        assert capsys.readouterr().err == f"error: line 2: {message} does not parse\n"

    @pytest.mark.parametrize("k", ["10.0", "+10", " 10", "1_0", "١٠", "-", "0x10"])
    def test_csv_cutoff_that_is_not_minus_and_ascii_digits_is_an_error(self, tmp_path, capsys, k) -> None:
        table = tmp_path / "curves.csv"
        table.write_text("query_id,day,attribute,label,k,metric,value\n"
                         f"q1,1,gender,,5,minskew,0.5\nq1,1,gender,,{k},minskew,0.25\n", encoding="utf-8")
        assert run("export", str(table), "--metric", "minskew") == 1
        assert capsys.readouterr().err == f"error: line 3: k {k!r} does not parse\n"

    def test_churn_day_pair_that_is_a_bool_is_an_error(self, tmp_path, capsys) -> None:
        table = tmp_path / "churn.jsonl"
        row = '{"query_id":"q1","start_day":1,"end_day":%s,"attribute":"gender","label":"F","k":5,' \
              '"metric":"churn","value":0.5}\n'
        table.write_text(row % "2" + row % "true", encoding="utf-8")
        assert run("export", str(table), "--metric", "churn") == 1
        assert capsys.readouterr().err == "error: line 2: end_day True does not parse\n"

    def test_negative_and_zero_padded_integers_still_read(self, tmp_path) -> None:
        table, heat = tmp_path / "curves.csv", tmp_path / "heat.csv"
        table.write_text("query_id,day,attribute,label,k,metric,value\n"
                         "q1,-1,gender,,05,minskew,0.5\n", encoding="utf-8")
        assert run("export", str(table), "--metric", "minskew", "-o", str(heat)) == 0
        assert heat.read_text(encoding="utf-8") == "row,5\nq1:-1,0.5\n"


class TestLabelCommand:
    def test_labels_from_name_tables(self, tmp_path, capsys) -> None:
        names = tmp_path / "names.csv"
        names.write_text(
            "name,label,count\nada,F,900\nada,M,100\nomar,M,400\n", encoding="utf-8"
        )
        rows = [
            {"query_id": "q1", "day": 1, "rank": 1, "candidate_id": "a",
             "first_name": "Ada", "last_name": None, "groups": None, "missing": False},
            {"query_id": "q1", "day": 1, "rank": 2, "candidate_id": "b",
             "first_name": "Omar", "last_name": None, "groups": None, "missing": False},
            {"query_id": "q1", "day": 1, "rank": 3, "candidate_id": "c",
             "first_name": "Zz", "last_name": None, "groups": None, "missing": False},
        ]
        data = tmp_path / "unlabeled.jsonl"
        data.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        out = tmp_path / "labeled.jsonl"
        assert run("label", str(data), "--names", str(names), "-o", str(out)) == 0
        assert "labeled 2/3 candidates" in capsys.readouterr().err
        labeled, _ = load_dataset(out)
        entries = labeled[0].snapshots[1].entries
        assert entries[0].group_labels == {"gender": "F"}
        assert entries[1].group_labels == {"gender": "M"}
        # Unresolved candidates are tagged with the explicit unknown label,
        # which the metrics treat as unlabeled.
        assert entries[2].group_labels == {"gender": "unknown"}
        assert not entries[2].is_labeled(GENDER)

    def test_requires_a_table(self, dataset, capsys) -> None:
        assert run("label", str(dataset)) == 1
        assert "--names" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path) -> None:
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "# simulation defaults\nqueries = 3\npool = \"20:20\"\nmissing-prob = 0.1\n",
            encoding="utf-8",
        )
        out = tmp_path / "data.jsonl"
        assert run("simulate", "--config", str(cfg), "--seed", "5", "-o", str(out)) == 0
        series, _ = load_dataset(out)
        assert len(series) == 3
        assert all(len(s.snapshots[1].entries) == 20 for s in series)

    def test_explicit_flags_beat_the_config(self, tmp_path) -> None:
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("queries = 3\n", encoding="utf-8")
        out = tmp_path / "data.jsonl"
        assert run("simulate", "--config", str(cfg), "--seed", "5", "--queries", "5",
                   "-o", str(out)) == 0
        series, _ = load_dataset(out)
        assert len(series) == 5

    def test_quoted_value_may_hold_a_hash(self, tmp_path, monkeypatch) -> None:
        write_cli_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(
            'output = "out#1.csv"  # the report\nformat = \'csv\' # table\nattribute = gender#x\n',
            encoding="utf-8",
        )
        assert cli._load_config("run.cfg") == {"output": "out#1.csv", "format": "csv", "attribute": "gender"}
        assert run("validate", "raw.jsonl", "--config", "run.cfg") == 0
        assert (tmp_path / "out#1.csv").read_text(encoding="utf-8") == "kind,query_id,day,line,message\n"
        assert not (tmp_path / '"out').exists()

    def test_only_lf_crlf_and_cr_end_a_line(self, tmp_path, monkeypatch) -> None:
        """A value may hold U+2028, U+0085 or a form feed, as on the command line."""
        write_cli_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        name = "out\u2028x\u0085y\x0cz.csv"
        (tmp_path / "run.cfg").write_bytes(f"format = csv\r\noutput = {name}\rattribute = gender\n".encode("utf-8"))
        assert cli._load_config("run.cfg") == {"format": "csv", "output": name, "attribute": "gender"}
        assert run("validate", "raw.jsonl", "--config", "run.cfg") == 0
        assert run("validate", "raw.jsonl", "--format", "csv", "-o", "flag.csv") == 0
        assert (tmp_path / name).read_bytes() == (tmp_path / "flag.csv").read_bytes()

    @pytest.mark.parametrize("space", ["\u2028", "\u0085", "\x0c", "\u00a0", "\u3000"],
                             ids=["U+2028", "U+0085", "form-feed", "U+00A0", "U+3000"])
    def test_a_value_keeps_whitespace_other_than_spaces_and_tabs(self, tmp_path, monkeypatch, space) -> None:
        write_cli_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        name = f"{space}out{space}.csv{space}"
        (tmp_path / "run.cfg").write_text(f"format = csv\n \toutput =\t {name} \t\n{space}\n", encoding="utf-8")
        assert cli._load_config("run.cfg") == {"format": "csv", "output": name}
        assert run("validate", "raw.jsonl", "--config", "run.cfg") == 0
        assert run("validate", "raw.jsonl", "--format", "csv", "-o", "flag.csv") == 0
        assert (tmp_path / name).read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_a_byte_order_mark_is_no_part_of_the_first_key(self, tmp_path, monkeypatch) -> None:
        """A BOM before the first key is dropped; a U+FEFF inside a value is kept."""
        write_cli_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        name = "out\ufeff.csv"
        (tmp_path / "run.cfg").write_text(f"\ufeffformat = csv\noutput = {name}\n", encoding="utf-8")
        assert cli._load_config("run.cfg") == {"format": "csv", "output": name}
        assert run("validate", "raw.jsonl", "--config", "run.cfg") == 0
        assert run("validate", "raw.jsonl", "--format", "csv", "-o", "flag.csv") == 0
        assert (tmp_path / name).read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_malformed_config_is_a_clean_error(self, tmp_path, capsys) -> None:
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("queries 3\n", encoding="utf-8")
        assert run("simulate", "--config", str(cfg), "--seed", "5") == 1
        assert "expected key = value" in capsys.readouterr().err

    def test_missing_config_is_a_clean_error(self, tmp_path, capsys) -> None:
        assert run("simulate", "--config", str(tmp_path / "nope.cfg"), "--seed", "5") == 1
        assert "error:" in capsys.readouterr().err

    def test_list_option_from_the_config(self, tmp_path, capsys, monkeypatch) -> None:
        write_cli_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "label.cfg").write_text("names = names.csv\n", encoding="utf-8")
        assert run("label", "raw.jsonl", "--config", "label.cfg", "-o", "from_config.jsonl") == 0
        assert run("label", "raw.jsonl", "--names", "names.csv", "-o", "from_flag.jsonl") == 0
        assert "error" not in capsys.readouterr().err
        assert (tmp_path / "from_config.jsonl").read_bytes() == (tmp_path / "from_flag.jsonl").read_bytes()

    def test_number_for_a_table_option_names_a_file(self, tmp_path, capsys, monkeypatch) -> None:
        write_cli_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "label.cfg").write_text("names = 7\n", encoding="utf-8")
        assert run("label", "raw.jsonl", "--config", "label.cfg", "-o", "out.jsonl") == 1
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: '7'\n"
        (tmp_path / "7").write_text((tmp_path / "names.csv").read_text(encoding="utf-8"), encoding="utf-8")
        assert run("label", "raw.jsonl", "--config", "label.cfg", "-o", "out.jsonl") == 0
        assert run("label", "raw.jsonl", "--names", "names.csv", "-o", "flag.jsonl") == 0
        assert (tmp_path / "out.jsonl").read_bytes() == (tmp_path / "flag.jsonl").read_bytes()

    def test_number_for_the_output_option_names_a_file(self, tmp_path, monkeypatch) -> None:
        write_cli_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("output = 3\nformat = csv\n", encoding="utf-8")
        assert run("validate", "raw.jsonl", "--config", "run.cfg") == 0
        assert (tmp_path / "3").read_text(encoding="utf-8") == "kind,query_id,day,line,message\n"

    @pytest.mark.parametrize("value, expected", [("TRUE", True), ("true", True), ("false", False)])
    def test_flag_from_the_config(self, tmp_path, monkeypatch, capsys, value, expected) -> None:
        # The full name "Ada King" resolves to M, the first name alone to F.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "names.csv").write_text("name,label,count\nada,F,9\nada king,M,5\n", encoding="utf-8")
        (tmp_path / "raw.jsonl").write_text(json.dumps(
            {"query_id": "q1", "day": 1, "rank": 1, "candidate_id": "a", "first_name": "Ada",
             "last_name": "King", "groups": None, "missing": False}) + "\n", encoding="utf-8")
        # ``queries`` is not an option of ``label``, so it is ignored.
        (tmp_path / "label.cfg").write_text(f"full_name = {value}\nqueries = 3\n", encoding="utf-8")
        assert run("label", "raw.jsonl", "--names", "names.csv", "--config", "label.cfg", "-o", "cfg.jsonl") == 0
        flag = ["--full-name"] if expected else []
        assert run("label", "raw.jsonl", "--names", "names.csv", *flag, "-o", "flag.jsonl") == 0
        assert "error" not in capsys.readouterr().err
        assert (tmp_path / "cfg.jsonl").read_bytes() == (tmp_path / "flag.jsonl").read_bytes()
        labeled, _ = load_dataset(tmp_path / "cfg.jsonl")
        assert labeled[0].snapshots[1].entries[0].group_labels == {"gender": "M" if expected else "F"}

    def test_key_of_an_option_the_command_lacks_is_ignored(self, tmp_path, capsys) -> None:
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("format = csv\nunknown-label = u\nmetric = skew\n", encoding="utf-8")
        argv = ("simulate", "--seed", "2", "--queries", "1", "--pool", "5:5")
        assert run(*argv, "--config", str(cfg)) == 0
        from_config = capsys.readouterr()
        assert run(*argv) == 0
        assert from_config == capsys.readouterr()
        assert from_config.err == ""

    @pytest.mark.parametrize("setting, argv", [
        ("format = parquet", ["rerank", "pool.csv"]),
        ("format = parquet", ["validate", "raw.jsonl"]),
        ("format = parquet", ["audit", "raw.jsonl", "--labels", "F,M"]),
        ("postprocess = shuffle", ["simulate", "--seed", "1", "--queries", "1"]),
        ("full_name = 1", ["label", "raw.jsonl", "--names", "names.csv"]),
    ])
    def test_config_value_outside_the_choices_is_an_error(self, tmp_path, capsys, monkeypatch,
                                                          setting, argv) -> None:
        write_cli_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(setting + "\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        out.write_text("earlier output\n", encoding="utf-8")
        assert run(*argv, "--config", "run.cfg", "-o", str(out)) == 1
        key, _, value = setting.partition(" = ")
        assert capsys.readouterr().err.startswith(f"error: config {key} = {value!r}")
        assert out.read_text(encoding="utf-8") == "earlier output\n"


class TestOverlongCsvField:
    """A field past the csv module's size limit is a line-numbered error in
    every CSV reader, not a traceback."""

    LONG = "x" * (csv.field_size_limit() + 1)
    ERROR = f"error: line 3: field larger than field limit ({csv.field_size_limit()})\n"

    def test_rerank_pool(self, tmp_path, capsys) -> None:
        pool = tmp_path / "pool.csv"
        pool.write_text(f"candidate_id,label,score\nc1,F,0.5\n{self.LONG},M,0.4\n", encoding="utf-8")
        assert run("rerank", str(pool)) == 1
        assert capsys.readouterr().err == self.ERROR

    def test_name_table(self, tmp_path, capsys) -> None:
        write_cli_inputs(tmp_path)
        names = tmp_path / "long.csv"
        names.write_text(f"name,label,count\nada,F,3\n{self.LONG},M,1\n", encoding="utf-8")
        assert run("label", str(tmp_path / "raw.jsonl"), "--names", str(names)) == 1
        assert capsys.readouterr().err == self.ERROR

    def test_baseline(self, dataset, tmp_path, capsys) -> None:
        baseline = tmp_path / "baseline.csv"
        baseline.write_text(f"query_id,attribute,label,share\nq00000,gender,F,0.5\n{self.LONG},gender,M,0.5\n",
                            encoding="utf-8")
        assert run("audit", str(dataset), "--baseline", str(baseline)) == 1
        assert capsys.readouterr().err == self.ERROR

    def test_export_long_table(self, tmp_path, capsys) -> None:
        table = tmp_path / "curves.csv"
        table.write_text("query_id,day,attribute,label,k,metric,value\n"
                         f"q1,1,gender,,25,minskew,-0.1\n{self.LONG},1,gender,,25,minskew,-0.1\n",
                         encoding="utf-8")
        assert run("export", str(table), "--metric", "minskew") == 1
        assert capsys.readouterr().err == self.ERROR


# A sample command-line value per option type, and a second, different one.
OPTION_SAMPLES = {
    None: ("a.csv", "b.csv"),
    commands._int: ("7", "9"),
    commands._float: ("0.5", "0.25"),
    commands._seed: ("0", "12"),
    commands._texts: ("A,B", "C,D"),
    commands._cutoffs: ("5,10", "20:30:5"),
    commands._floats: ("0.5,0.5", "0.2,0.8"),
    commands._day: ("2", "3"),
    commands._metrics: ("skew", "minskew,deviation"),
    commands._day_pairs: ("1-2", "consecutive"),
    commands._pool_range: ("5:9", "3"),
    commands._shares: ("F=0.5,M=0.5", "F=1,M=0"),
    commands._k_grid: ("5:15:5", "full"),
}


def option_cases():
    """(command, base argv, option) for every option of every subcommand
    that a config file may set: all but ``--help``, ``--config`` and the
    required ones, which the base argv supplies."""
    for command, parser in cli._build_parser().commands.items():
        options = [action for action in parser._actions if action.option_strings and action.dest != "help"]
        base = [command, *(action.choices[0] if action.choices else "data.jsonl"
                           for action in parser._actions if not action.option_strings)]
        for action in options:
            if action.required:
                base += [action.option_strings[0], "x"]
        for action in options:
            if not action.required and action.dest != "config":
                yield pytest.param(base, action, id=f"{command}-{action.dest}")


@pytest.mark.parametrize("base, action", option_cases())
def test_config_value_parses_like_the_flag(tmp_path, base, action) -> None:
    """``key = value`` in a config file gives the namespace ``--key value``
    gives, and an explicit flag beats the config."""
    option = next(name for name in action.option_strings if name.startswith("--"))
    if action.nargs == 0:
        flag, value, other = [option], "true", "false"
    elif action.choices:
        value = next(choice for choice in action.choices if choice != action.default)
        flag, other = [option, value], action.default
    else:
        value, other = OPTION_SAMPLES[action.type]
        flag = [option, value]
    cfg = tmp_path / "run.cfg"

    def parse(*argv: str, setting: str | None = None) -> dict:
        if setting is not None:
            cfg.write_text(f"{option[2:]} = {setting}\n", encoding="utf-8")
            argv += ("--config", str(cfg))
        args = vars(cli._parse_args(cli._build_parser(), [*base, *argv]))
        del args["config"]
        return args

    from_flag = parse(*flag)
    assert from_flag != parse()
    assert parse(setting=value) == from_flag
    assert parse(*flag, setting=other) == from_flag


# A command-line value per option type that the type refuses.
BAD_SAMPLES = {
    commands._int: "x",
    commands._float: "1_0",
    commands._seed: "-1",
    commands._texts: ",",
    commands._cutoffs: "0",
    commands._floats: "a,b",
    commands._day: "0",
    commands._metrics: "sparkle",
    commands._day_pairs: "1-x",
    commands._pool_range: "a:b",
    commands._shares: "F",
    commands._k_grid: "1:2:3:4",
}


def parse_outcome(parser: cli._Parser, argv: list[str]) -> tuple:
    """The namespace ``cli._parse_args`` gives for ``argv``, or the message
    of the usage error it raises, or the help it prints."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "args", vars(cli._parse_args(parser, argv))
    except ValueError as exc:
        return "error", str(exc)
    except SystemExit as stop:
        return "exit", stop.code, out.getvalue()


@pytest.mark.parametrize("base, action", option_cases())
def test_the_one_subcommand_parser_parses_like_the_full_one(tmp_path, base, action) -> None:
    """The parser built for ``argv[0]`` alone gives the full parser's
    namespace, usage error or help for each option: as a flag with a good
    and a bad value, from the config file, and with the subcommand's
    required arguments left out."""
    option = next(name for name in action.option_strings if name.startswith("--"))
    if action.nargs == 0:
        values = ["true", "maybe"]
    elif action.choices:
        values = [next(choice for choice in action.choices if choice != action.default), "no-such-choice"]
    else:
        values = [OPTION_SAMPLES[action.type][0], *([BAD_SAMPLES[action.type]] if action.type else [])]
    argvs = [base, base[:1], [*base, "--help"], [*base, "--no-such-option"]]
    for index, value in enumerate(values):
        argvs.append([*base, option] if action.nargs == 0 else [*base, option, value])
        cfg = tmp_path / f"run{index}.cfg"
        cfg.write_text(f"{option[2:]} = {value}\n", encoding="utf-8")
        argvs.append([*base, "--config", str(cfg)])
    for argv in argvs:
        one = cli._build_parser(argv)
        assert list(one.commands) == [base[0]]
        assert parse_outcome(one, argv) == parse_outcome(cli._build_parser(), argv), argv


# A value per numeric option type that holds a ``_`` digit grouping.
UNDERSCORED = {
    commands._int: "1_0",
    commands._float: "0_5",
    commands._seed: "1_0",
    commands._cutoffs: "5:1_0",
    commands._floats: "0.5,0_5",
    commands._day: "1_0",
    commands._day_pairs: "1-1_0",
    commands._pool_range: "5:1_0",
    commands._shares: "F=0_5,M=0.5",
    commands._k_grid: "1_0",
}


@pytest.mark.parametrize("base, action", [case for case in option_cases() if case.values[1].type in UNDERSCORED])
def test_every_numeric_option_refuses_an_underscore_numeral(tmp_path, capsys, base, action) -> None:
    """``int`` and ``float`` read ``1_0`` as 10; a number option, from a
    flag or from the config file, refuses it with one usage error."""
    option = next(name for name in action.option_strings if name.startswith("--"))
    value = UNDERSCORED[action.type]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option[2:]} = {value}\n", encoding="utf-8")
    for argv in ([*base, option, value], [*base, "--config", str(cfg)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: argument {option}: invalid {action.type.__name__} value: {value!r}\n")


@pytest.mark.parametrize("text", ["7", " -3 ", "+4", "0", "007", "1e3", "0.25", "-inf", "nan", "\u0661\u0662", "", "x"])
def test_number_options_read_what_int_and_float_read(text) -> None:
    for kind, parse in ((int, commands._int), (float, commands._float)):
        try:
            want = kind(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse(text)
        else:
            assert repr(parse(text)) == repr(want)


@pytest.mark.parametrize("argv", [[], ["--help"], ["no-such-command"], ["--config", "x", "audit"], ["-o"]])
def test_an_argv_without_a_subcommand_first_gets_the_full_parser(argv) -> None:
    parser = cli._build_parser(argv)
    assert tuple(parser.commands) == tuple(cli._COMMANDS)
    assert parse_outcome(parser, argv) == parse_outcome(cli._build_parser(), argv)


def test_the_full_parser_has_every_subcommand() -> None:
    assert tuple(cli._build_parser().commands) == tuple(cli._COMMANDS)


def test_the_name_table_and_the_command_modules_list_the_same_subcommands() -> None:
    """``cli``'s table of names and help lines and the modules under
    ``rankaudit/commands/`` name the same eight subcommands, and each
    module has both entry points the parser calls."""
    package = Path(commands.__file__).parent
    assert {path.stem for path in package.glob("*.py")} - {"__init__"} == set(cli._COMMANDS)
    assert len(cli._COMMANDS) == 8
    for name in cli._COMMANDS:
        module = importlib.import_module(f"rankaudit.commands.{name}")
        assert callable(module.add_arguments) and callable(module.run), name


def test_parser_literals_equal_the_layer_constants() -> None:
    """The parser writes the layer constants it needs as literals, so that
    building it executes no layer module; each must still equal its constant."""
    from rankaudit import mixedlm, simulate

    assert commands._METRICS == (exposure.DEVIATION, exposure.SKEW, exposure.MINSKEW, exposure.CORRECTED_SKEW)
    assert commands._CUTOFFS == ",".join(map(str, mixedlm.DEFAULT_CUTOFFS))
    parsers = cli._build_parser().commands
    option = {(command, action.dest): action for command, parser in parsers.items() for action in parser._actions}
    assert option["stats", "null"].default == mixedlm.DEFAULT_MINSKEW_NULL
    assert option["stats", "cutoffs"].default == option["churn", "k_grid"].default == commands._CUTOFFS
    assert option["audit", "metrics"].default == ",".join(commands._METRICS)
    postprocess = option["simulate", "postprocess"]
    assert postprocess.choices == (simulate.POSTPROCESS_NONE, simulate.POSTPROCESS_DETGREEDY)
    assert postprocess.default == simulate.POSTPROCESS_NONE
    assert option["simulate", "page_size"].default == exposure.DEFAULT_PAGE_SIZE
    assert option["label", "unknown_label"].default == model.GroupScheme("g", ("F", "M")).unknown_label
    formats = {command: action for (command, dest), action in option.items() if dest == "format"}
    assert sorted(formats) == ["audit", "churn", "rerank", "stats", "validate"]
    for command, action in formats.items():
        assert action.choices == (dataio.FORMAT_CSV, dataio.FORMAT_JSON), command
        assert action.default == (dataio.FORMAT_JSON if command == "validate" else dataio.FORMAT_CSV), command


class TestCollectorPause:
    """``main`` runs with the cyclic garbage collector paused and gives the
    caller back the collector's state, however the run ends."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collecting(self, request):
        before = gc.isenabled()
        gc.enable() if request.param else gc.disable()
        yield request.param
        gc.enable() if before else gc.disable()

    @pytest.mark.parametrize("outcome", ["success", "error", "exception", "usage"])
    def test_paused_in_the_handler_and_restored_after(self, monkeypatch, collecting, outcome) -> None:
        seen = []

        def handler(args) -> int:
            seen.append(gc.isenabled())
            if outcome == "error":
                raise ValueError("bad input")
            if outcome == "exception":
                raise RuntimeError("not caught by main")
            return 0

        monkeypatch.setattr("rankaudit.commands.export.run", handler)
        argv = ["export"] if outcome == "usage" else ["export", "table.csv", "--metric", "skew"]
        if outcome == "exception":
            with pytest.raises(RuntimeError):
                run(*argv)
        else:
            assert run(*argv) == (0 if outcome == "success" else 1)
        assert seen == ([] if outcome == "usage" else [False])
        assert gc.isenabled() is collecting

    def test_import_leaves_the_collector_alone(self) -> None:
        code = ("import gc, json; before = [gc.isenabled(), gc.get_threshold()]; import rankaudit, rankaudit.cli; "
                "print(json.dumps([before, [gc.isenabled(), gc.get_threshold()]]))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(),
                              check=True)
        before, after = json.loads(done.stdout)
        assert before[0] is True and after == before


class TestUsageErrors:
    """A usage error is one ``error:`` line on stderr and exit status 1."""

    @pytest.mark.parametrize("argv, setting, message", [
        (["audit", "data.jsonl", "--queries", "3"], None, "unrecognized arguments: --queries 3"),
        (["simulate", "--seed", "1", "--format", "json"], None, "unrecognized arguments: --format json"),
        (["export", "t.csv", "--metric", "skew", "--format", "json"], None,
         "unrecognized arguments: --format json"),
        (["churn", "data.jsonl", "--unknown-label", "u"], None, "unrecognized arguments: --unknown-label u"),
        (["stats", "minskew", "data.jsonl"], None, "argument protocol: invalid choice: 'minskew'"),
        (["simulate", "--seed", "1", "--queries", "abc"], None, "argument --queries: invalid int value: 'abc'"),
        (["simulate", "--seed", "1"], "queries = abc", "argument --queries: invalid int value: 'abc'"),
        (["simulate", "--seed", "1", "--queries", ""], None, "argument --queries: invalid int value: ''"),
        (["audit", "data.jsonl"], "labels =", "argument --labels: invalid list value: ''"),
        (["churn", "data.jsonl", "--pairs", "1-x"], None, "argument --pairs: invalid day pairs value: '1-x'"),
        (["audit", "data.jsonl", "--day", "0"], None, "argument --day: day must be at least 1, got '0'"),
        (["audit", "data.jsonl", "--day=-1"], None, "argument --day: day must be at least 1, got '-1'"),
        (["audit", "data.jsonl"], "day = 0", "argument --day: day must be at least 1, got '0'"),
        (["audit", "data.jsonl", "--day", "x"], None, "argument --day: invalid int value: 'x'"),
        (["audit", "data.jsonl", "--metrics", "skew,sparkle"], None,
         "argument --metrics: unrecognized metrics: ['sparkle']"),
        (["audit", "data.jsonl"], "metrics = sparkle", "argument --metrics: unrecognized metrics: ['sparkle']"),
        (["audit"], None, "the following arguments are required: dataset"),
        ([], None, "the following arguments are required: command"),
        (["stats", "minskew-protocol", "data.jsonl", "--cutoffs", "0"], None,
         "argument --cutoffs: cutoffs must be at least 1, got '0'"),
        (["stats", "churn-protocol", "data.jsonl"], "cutoffs = 25,-5",
         "argument --cutoffs: cutoffs must be at least 1, got '25,-5'"),
        (["stats", "minskew-protocol", "data.jsonl", "--cutoffs", "full"], None,
         "argument --cutoffs: invalid int list value: 'full'"),
        (["stats", "minskew-protocol", "data.jsonl", "--cutoffs", "1:10:2:3"], None,
         "argument --cutoffs: expected N, A,B,C or LO:HI[:STEP], got '1:10:2:3'"),
        (["stats", "minskew-protocol", "data.jsonl", "--cutoffs", "1_0"], None,
         "argument --cutoffs: invalid int list value: '1_0'"),
        (["simulate", "--seed", "1_0"], None, "argument --seed: invalid int value: '1_0'"),
        (["simulate"], "seed = 1_0", "argument --seed: invalid int value: '1_0'"),
        (["simulate", "--seed", "-1"], None, "argument --seed: seed must be at least 0, got '-1'"),
        (["simulate"], "seed = -1", "argument --seed: seed must be at least 0, got '-1'"),
        (["simulate", "--seed", "1", "--inject-label", "F", "--inject-seed", "-2"], None,
         "argument --inject-seed: seed must be at least 0, got '-2'"),
    ])
    def test_one_error_line_and_exit_status_1(self, tmp_path, capsys, argv, setting, message) -> None:
        if setting is not None:
            (tmp_path / "run.cfg").write_text(setting + "\n", encoding="utf-8")
            argv = [*argv, "--config", str(tmp_path / "run.cfg")]
        assert run(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command", ["validate", "label", "audit", "churn", "rerank", "stats", "simulate",
                                         "export"])
    def test_help_renders(self, capsys, command) -> None:
        with pytest.raises(SystemExit) as done:
            run(command, "--help")
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: rankaudit {command} ")

    def test_help_states_the_protocol_defaults(self, capsys) -> None:
        with pytest.raises(SystemExit):
            run("stats", "--help")
        text = " ".join(capsys.readouterr().out.split())
        for default in ("(default -0.011)", "(default 25,50,75,100)", "(default 0.15)", "(default 101)",
                        "(default csv)", "(default F,M)"):
            assert default in text


# ---------------------------------------------------------------------------
# no input reaches a traceback

# Option values: numbers, ``_`` numerals, lists, ranges, pairs and shares,
# well and badly formed.  Every number is small, so that no drawn size makes
# ``simulate`` slow; free text holds no digit for the same reason.
OPTION_VALUES = st.one_of(
    st.sampled_from([
        "0", "1", "2", "3", "-1", "1_0", "0_5", " 2 ", "0.5", "0.25", "1.5", "-0.5", "nan", "inf", "-inf", "1e400",
        "", ",", "x", "F", "M", "F,M", "F,F", "M,F,X", "gender", "unknown", "0.5,0.5", "1,0", "0,0", "1_0,0.5",
        "2:3", "3:2", "0:2", "1:2:0", "1:3:1_0", "1:2:3:4", "full", "anchored", "consecutive", "1-2", "2-1",
        "1-1_0", "1-x", "F=0.5,M=0.5", "F=1,M=0", "F=0_5,M=0.5", "F=nan,M=1", "skew", "minskew,deviation",
        "sparkle", "csv", "json", "none", "detgreedy",
    ]),
    st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=5),
)
CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(["seed", "queries", "k-grid", "cutoffs", "day", "pairs", "labels",
                                                 "min_pool", "max-missing", "null", "weights", "proportions",
                                                 "page-size", "inject-seed", "full-name", "format", "metrics"]),
              OPTION_VALUES),
    st.sampled_from(["seed = 1_0", "# comment", "", "x", "= 1", "seed = '1_0' # c", 'labels = "F,M', "day=1"]),
    st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=8),
)
LONG_TABLES = st.one_of(csv_texts(dataio.CURVE_HEADER), csv_texts(dataio.CHURN_HEADER),
                        jsonl_texts(dataio.CURVE_HEADER), jsonl_texts(dataio.CHURN_HEADER))
# Each subcommand's positional arguments (a file's name names its content)
# and the options a draw may add; ``--output`` and ``--ledger`` are fixed.
COMMANDS = {
    "validate": (["data.jsonl"], ["--format"]),
    "label": (["data.jsonl", "--names", "names.csv"], ["--attribute", "--labels", "--unknown-label", "--full-name"]),
    "audit": (["data.jsonl"], ["--labels", "--baseline", "--k-grid", "--metrics", "--day", "--format"]),
    "churn": (["data.jsonl"], ["--labels", "--k-grid", "--pairs", "--format"]),
    "rerank": (["pool.csv"], ["--labels", "--proportions", "--format"]),
    "stats": (["data.jsonl"], ["--labels", "--null", "--cutoffs", "--max-missing", "--min-pool", "--baseline",
                               "--format"]),
    "simulate": (["--seed", "1", "--queries", "2", "--pool", "2:4"],
                 ["--seed", "--queries", "--pool", "--labels", "--weights", "--score-means", "--score-spreads",
                  "--days", "--departures", "--missing-prob", "--postprocess", "--weights-concentration",
                  "--inject-label", "--inject-strength", "--inject-seed", "--page-size"]),
    "export": (["table", "--metric", "minskew"], ["--metric", "--label"]),
}
# Options that name an input file: a draw gives them the file, not a value.
FILE_OPTIONS = {"--baseline": "baseline.csv"}


def file_bytes(texts: st.SearchStrategy[str]) -> st.SearchStrategy[bytes]:
    """A file of ``texts`` as UTF-8, with or without a byte order mark, or
    arbitrary bytes (invalid UTF-8 and NUL included)."""
    return st.one_of(st.builds("{}{}".format, st.sampled_from(["", "\ufeff"]), texts).map(str.encode), BINARY)


@st.composite
def cli_runs(draw) -> tuple[list[str], dict[str, bytes]]:
    """(argv but ``--output``, {file name: content}) of one hostile run."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positional, options = COMMANDS[command]
    argv = [command, *([draw(st.sampled_from(["minskew-protocol", "churn-protocol"]))] if command == "stats" else []),
            *positional]
    for option in draw(st.lists(st.sampled_from(options), max_size=4)):
        if option == "--full-name":
            argv.append(option)
        else:
            argv += [option, FILE_OPTIONS.get(option) or draw(OPTION_VALUES)]
    files = {
        "data.jsonl": draw(file_bytes(st.lists(LINES, max_size=10).map("\n".join))),
        "names.csv": draw(file_bytes(NAME_CASES)),
        "baseline.csv": draw(file_bytes(BASELINE_CASES)),
        "pool.csv": draw(file_bytes(POOL_CASES)),
        "table": draw(file_bytes(LONG_TABLES)),
    }
    if draw(st.booleans()):
        files["run.cfg"] = draw(file_bytes(st.lists(CONFIG_LINES, max_size=4).map("\n".join)))
        argv += ["--config", "run.cfg"]
    return argv, files


# stderr lines of the CLI's own: errors, warnings and the two counts.
STDERR_STARTS = ("error: ", "warning: ", "labeled ", "filtered out ")


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_runs())
def test_no_input_reaches_a_traceback(tmp_path, monkeypatch, case) -> None:
    """Hostile snapshot lines, CSV rows, long tables, config lines and
    option values end in status 0 or 1, never in an exception, and write to
    stderr only the CLI's own lines and the effect record of
    ``simulate --inject-label``."""
    argv, files = case
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    collecting = gc.isenabled()
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = main([*argv, "--output", "out"])
    finally:
        gc.enable() if collecting else gc.disable()
    assert status in (0, 1)
    for line in err.getvalue().splitlines():
        if not line.startswith(STDERR_STARTS):
            assert argv[0] == "simulate" and "--inject-label" in argv, line
            assert isinstance(json.loads(line), dict), line
