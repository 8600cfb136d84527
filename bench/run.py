"""rankaudit benchmark: three CLI workloads timed from outside.

Usage (from the repository root):

    python3 bench/run.py --workload daily-audit --seed 1 --seconds 35 --trace 0

Each stage runs as a fresh child process, ``python -m rankaudit.cli ...``
with ``src/`` on PYTHONPATH and RANKAUDIT_THREADS removed, and is timed with
``perf_counter`` around spawn and ``os.wait4``, which also gives the child's
peak RSS.  A host-speed probe, a fresh ``python -c "import numpy"`` that does
not involve rankaudit, runs right after every set-up call and every untraced
stage; the end-to-end times are medians of each run's wall time over its
probe's, times ``REFERENCE_PROBE_S``.  The workload's stage chain repeats
until ``--seconds`` is used up; every output is checked against values
recomputed from the generated inputs (``checks.py``) and, for the default
seed at scale 1, against committed sha256 references.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced chains with traced ones (stages run under ``tracer.py``) and prints
the per-layer metrics, the untraced stage times and the tracing overhead per
stage.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
environment included, goes to ``bench/results/``.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference_sha256.json"

DEFAULT_SEED = 1
SETUP_RUNS = 5
# The shared host's speed for starting a Python process that loads many
# modules drifts by up to ~1.6x within seconds to minutes, and both commits of
# a comparison rarely see the same drift.  Dividing each timed run by a probe
# of that same kind of work started right after it cancels most of it:
# end-to-end times read as seconds on a host where the probe takes
# REFERENCE_PROBE_S.
PROBE = (sys.executable, "-c", "import numpy")
REFERENCE_PROBE_S = 0.2
STAGE_TIMEOUT_S = 150.0
THREADS_ENV = "RANKAUDIT_THREADS"

STAGES = ("label", "validate", "audit", "churn", "stats_minskew", "stats_churn", "export", "simulate", "rerank")

# Spans each workload must fire (checked by selftest.py).
EXPECTED_SPANS = {
    "daily-audit": (
        "dataio.load_dataset", "dataio.write_long_table", "dataio.curve_rows", "dataio.churn_rows",
        "dataio.write_snapshots", "dataio.write_protocol_table", "dataio.filter_queries", "dataio.export_heatmap",
        "names.load_name_table", "names.label_dataset", "model.observed_proportions",
        "exposure.deviation_curve", "exposure.skew_curve", "exposure.minskew_curve", "exposure.corrected_skew_curve",
        "churn.churn_grid", "mixedlm.minskew_protocol", "mixedlm.churn_protocol", "mixedlm.fit_random_intercept",
        "parallel.ordered_map",
    ),
    "full-sweep": (
        "dataio.load_dataset", "dataio.write_long_table", "dataio.curve_rows", "dataio.churn_rows",
        "model.observed_proportions", "exposure.deviation_curve", "exposure.skew_curve", "exposure.minskew_curve",
        "exposure.corrected_skew_curve", "churn.churn_grid", "parallel.ordered_map",
    ),
    "generate-rerank": (
        "simulate.generate", "detgreedy.detgreedy_rerank", "dataio.write_snapshots", "dataio.write_ledger",
        "parallel.ordered_map",
    ),
}


@dataclass
class Stage:
    name: str
    argv: list[str]
    outputs: list[str]
    check: Callable[[], list[str]]
    expected_rc: int = 0


@dataclass
class StageRun:
    wall: float
    rss_kb: int
    rc: int
    probe: float = 0.0  # wall time of the host-speed probe started right after


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, stage: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f for f in (f"{stage}: {p}" for p in problems[:3]) if f not in self.failures)


# ---------------------------------------------------------------------------
# workloads


def daily_audit(work: Path, seed: int, scale: float) -> list[Stage]:
    truth = inputs.build_daily(work, seed, max(12, round(40 * scale)))
    data = checks.daily_lists(truth)
    grid, churn_grid = [25, 50, 75, 100], [25, 50]
    labeled = str(work / "labeled.jsonl")
    out = lambda name: str(work / name)  # noqa: E731
    return [
        Stage("label", ["label", out("raw.jsonl"), "--names", out("names.csv"), "-o", labeled],
              ["labeled.jsonl"], lambda: checks.check_label(work / "labeled.jsonl", truth, data), expected_rc=1),
        Stage("validate", ["validate", out("raw.jsonl"), "-o", out("validate.json")],
              ["validate.json"], lambda: checks.check_validate(work / "validate.json", truth), expected_rc=1),
        Stage("audit", ["audit", labeled, "--k-grid", "25,50,75,100", "-o", out("curves.csv")],
              ["curves.csv"], lambda: checks.check_curves(work / "curves.csv", data, grid)),
        Stage("churn", ["churn", labeled, "--pairs", "consecutive", "--k-grid", "25,50", "-o", out("churn.csv")],
              ["churn.csv"], lambda: checks.check_churn(work / "churn.csv", data, "consecutive", churn_grid, "csv")),
        Stage("stats_minskew", ["stats", "minskew-protocol", labeled, "--cutoffs", "25,50,75,100",
                                "-o", out("minskew_protocol.csv")],
              ["minskew_protocol.csv"],
              lambda: checks.check_minskew_protocol(work / "minskew_protocol.csv", data, grid)),
        Stage("stats_churn", ["stats", "churn-protocol", labeled, "--cutoffs", "25,50",
                              "-o", out("churn_protocol.csv")],
              ["churn_protocol.csv"],
              lambda: checks.check_churn_protocol(work / "churn_protocol.csv", data, churn_grid)),
        Stage("export", ["export", out("curves.csv"), "--metric", "minskew", "-o", out("heatmap.csv")],
              ["heatmap.csv"], lambda: checks.check_heatmap(work / "heatmap.csv", data, grid)),
    ]


def full_sweep(work: Path, seed: int, scale: float) -> list[Stage]:
    truth = inputs.build_sweep(work, seed, max(3, round(12 * scale)))
    data = checks.sweep_lists(truth)
    dataset, labels = str(work / "sweep.jsonl"), ",".join(inputs.SWEEP_LABELS)
    return [
        Stage("audit", ["audit", dataset, "--labels", labels, "--k-grid", "full", "-o", str(work / "curves.csv")],
              ["curves.csv"], lambda: checks.check_curves(work / "curves.csv", data, None)),
        Stage("churn", ["churn", dataset, "--labels", labels, "--pairs", "anchored", "--k-grid", "full",
                        "--format", "json", "-o", str(work / "churn.jsonl")],
              ["churn.jsonl"], lambda: checks.check_churn(work / "churn.jsonl", data, "anchored", None, "json")),
    ]


def generate_rerank(work: Path, seed: int, scale: float) -> list[Stage]:
    queries, days = max(10, round(100 * scale)), 5
    truth = inputs.build_rerank(work, seed, 10 * max(30, round(2000 * scale)))
    labels = inputs.SWEEP_LABELS
    proportions = ",".join(f"{k}={v}" for k, v in inputs.RERANK_PROPORTIONS.items())
    sim = ["simulate", "--seed", str(seed), "--queries", str(queries), "--pool", "120:140", "--days", str(days),
           "--labels", ",".join(labels), "--weights", "0.5,0.3,0.2", "--score-means", "0.6,0.5,0.45",
           "--departures", "0.2,0.15,0.1", "--missing-prob", "0.05", "--postprocess", "detgreedy",
           "-o", str(work / "sim.jsonl"), "--ledger", str(work / "ledger.jsonl")]
    return [
        Stage("simulate", sim, ["sim.jsonl", "ledger.jsonl"],
              lambda: checks.check_simulate(work / "sim.jsonl", work / "ledger.jsonl", queries, days, labels, seed)),
        Stage("rerank", ["rerank", str(work / "pool.csv"), "--labels", ",".join(labels),
                         "--proportions", proportions, "-o", str(work / "reranked.csv")],
              ["reranked.csv"], lambda: checks.check_rerank(work / "reranked.csv", truth)),
    ]


WORKLOADS = {"daily-audit": daily_audit, "full-sweep": full_sweep, "generate-rerank": generate_rerank}


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(SRC)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def probe_env() -> dict[str, str]:
    """The child environment without rankaudit on the path."""
    env = child_env()
    del env["PYTHONPATH"]
    return env


def spawn(cmd: list[str], cwd: Path, stderr_path: Path, kill: bool = False,
          env: dict[str, str] | None = None) -> StageRun:
    """Run one child to completion; wall time, peak RSS and exit status."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env or child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(0.0 if kill else STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(wall, usage.ru_maxrss, proc.returncode)


def cli_cmd(stage: Stage, spans: Path | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "rankaudit.cli", *stage.argv]
    return [sys.executable, str(BENCH / "tracer.py"), str(spans), stage.name, *stage.argv]


def preflight() -> None:
    """Fail before any result when the program's source is not here."""
    if not (SRC / "rankaudit" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'rankaudit' / 'cli.py'} not found; run from a rankaudit checkout")
    where = subprocess.run([sys.executable, "-c", "import rankaudit; print(rankaudit.__file__)"],
                           env=child_env(), capture_output=True, text=True, timeout=120)
    if where.returncode != 0 or not Path(where.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: rankaudit does not import from {SRC}: {where.stderr.strip()[-300:]}")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def corrupt(path: Path) -> None:
    """Change one digit in the middle data line of an output (self-test)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = max(1, len(lines) // 2)
    line = lines[i]
    j = max(pos for pos, ch in enumerate(line) if ch.isdigit())
    lines[i] = line[:j] + ("1" if line[j] == "0" else "0") + line[j + 1:]
    path.write_text("".join(lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# the measured loop


class Runner:
    def __init__(self, workload: str, seed: int, scale: float, work: Path, faults: dict[str, str],
                 use_reference: bool):
        self.work = work
        self.stages = WORKLOADS[workload](work, seed, scale)
        self.faults = faults
        self.tally = Tally()
        self.verdicts: dict[tuple, list[str]] = {}
        self.first_hashes: dict[str, tuple] = {}
        self.reference = {}
        if use_reference and seed == DEFAULT_SEED and scale == 1.0 and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})

    def setup_runs(self) -> list[StageRun]:
        empty = inputs.write_empty(self.work)
        cmd = [sys.executable, "-m", "rankaudit.cli", "validate", str(empty), "-o", str(self.work / "setup.json")]
        runs = []
        for _ in range(SETUP_RUNS):
            run = spawn(cmd, self.work, self.work / "setup.err")
            self.tally.record("setup", [] if run.rc == 0 else [f"exit status {run.rc}"])
            run.probe = self.probe()
            runs.append(run)
        return runs

    def probe(self) -> float:
        run = spawn(list(PROBE), self.work, self.work / "probe.err", env=probe_env())
        if run.rc != 0:
            sys.exit(f"error: host-speed probe {' '.join(PROBE[1:])!r} exited with status {run.rc}")
        return run.wall

    def chain(self, traced: bool) -> tuple[dict[str, StageRun], list[dict]]:
        runs, traces = {}, []
        for stage in self.stages:
            spans = self.work / f"{stage.name}.spans.json" if traced else None
            fault = self.faults.get(stage.name)
            run = spawn(cli_cmd(stage, spans), self.work, self.work / f"{stage.name}.err", kill=fault == "kill")
            runs[stage.name] = run
            if not traced:
                run.probe = self.probe()
            problems = [] if run.rc == stage.expected_rc else [f"exit status {run.rc}, expected {stage.expected_rc}"]
            if not problems:
                if fault == "corrupt":
                    corrupt(self.work / stage.outputs[0])
                problems = self.verify(stage, traced)
            if traced and spans.is_file():
                traces.append(json.loads(spans.read_text(encoding="utf-8")))
            elif traced:
                problems.append("tracer wrote no spans")
            self.tally.record(stage.name, problems)
        return runs, traces

    def verify(self, stage: Stage, traced: bool) -> list[str]:
        hashes = tuple(sha256(self.work / name) for name in stage.outputs)
        first = self.first_hashes.setdefault(stage.name, hashes)
        problems = []
        if hashes != first:
            what = "traced output differs from untraced" if traced else "output bytes changed between runs"
            problems.append(f"{what}: {', '.join(stage.outputs)}")
        if hashes not in self.verdicts:
            found = stage.check()
            for name, digest in zip(stage.outputs, hashes):
                want = self.reference.get(name)
                if want is not None and want != digest:
                    found.append(f"{name} sha256 {digest[:12]} differs from reference {want[:12]}")
            self.verdicts[hashes] = found
        return problems + self.verdicts[hashes]

    def hashes(self) -> dict[str, str]:
        return {name: digest for stage in self.stages
                for name, digest in zip(stage.outputs, self.first_hashes.get(stage.name, ()))}


def loop(runner: Runner, seconds: float, traced: bool):
    """Repeat the chain (untraced, or untraced then traced) while the next
    round is expected to fit in ``seconds``; always at least one round."""
    plain: list[dict[str, StageRun]] = []
    traced_runs: list[dict[str, StageRun]] = []
    traces: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        runs, _ = runner.chain(traced=False)
        plain.append(runs)
        cost = sum(r.wall for r in runs.values())
        if traced:
            truns, trace = runner.chain(traced=True)
            traced_runs.append(truns)
            traces.append(trace)
            cost += sum(r.wall for r in truns.values())
        if time.perf_counter() - start + cost > seconds:
            return plain, traced_runs, traces


# ---------------------------------------------------------------------------
# metrics


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def stage_medians(rounds: list[dict[str, StageRun]]) -> dict[str, tuple[float, int]]:
    return {name: (median([r[name].wall for r in rounds]), len(rounds)) for name in rounds[0]}


def scaled(runs: list[StageRun]) -> float:
    """Median of wall time over probe time, in seconds at the reference probe time."""
    return REFERENCE_PROBE_S * median([r.wall / r.probe for r in runs])


def raw_times(setup: list[StageRun], rounds: list[dict[str, StageRun]]) -> dict[str, tuple[float, str, int]]:
    """Unscaled wall and set-up times and the median probe time."""
    probes = [r.probe for r in setup] + [r.probe for runs in rounds for r in runs.values()]
    return {
        "raw_wall_s": (sum(v for v, _ in stage_medians(rounds).values()), "s", len(rounds)),
        "raw_setup_s": (median([r.wall for r in setup]), "s", len(setup)),
        "probe_s": (median(probes), "s", len(probes)),
    }


def end_to_end(setup: list[StageRun], rounds: list[dict[str, StageRun]]) -> dict[str, tuple[float, str, int]]:
    return {
        "wall_s": (sum(scaled([r[name] for r in rounds]) for name in rounds[0]), "s", len(rounds)),
        "setup_s": (scaled(setup), "s", len(setup)),
        "peak_rss_mb": (max(r.rss_kb for runs in rounds for r in runs.values()) / 1024.0, "MB",
                        sum(len(runs) for runs in rounds)),
    }


class Spans:
    """Busy time, self time, calls and counts per span name, for one traced
    chain (one trace file per stage)."""

    def __init__(self, traces: list[dict]):
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.imports = [t["import_s"] for t in traces]
        self.absent = sorted({name for t in traces for name in t["absent"]})
        for trace in traces:
            transparent = set(trace["transparent"])
            children = defaultdict(list)
            for span in trace["spans"]:
                if span[4] is not None:
                    children[span[4]].append(span)

            def covered(sid: int) -> float:
                """Time of the nearest non-transparent descendants."""
                total = 0.0
                for child in children[sid]:
                    total += covered(child[0]) if child[1] in transparent else child[3] - child[2]
                return total

            for sid, name, start, end, _, counts in trace["spans"]:
                self.busy[name] += end - start
                self.calls[name] += 1
                self.counts[name].update(counts)
                if name in transparent:
                    self.self_s[name] += end - start - sum(c[3] - c[2] for c in children[sid])
                else:
                    self.self_s[name] += end - start - covered(sid)

    def count(self, name: str, key: str) -> int:
        return self.counts[name][key]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(sp: Spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced chain, by metric name."""
    v: dict[str, tuple[float, str]] = {}

    def busy(name: str, *extra: str) -> None:
        v[f"{name}.s"] = (sp.busy[name], "s")
        for key in extra:
            v[f"{name}.{key}"] = (sp.calls[name] if key == "calls" else sp.count(name, key), "count")

    load = "dataio.load_dataset"
    busy(load, "calls", "rows")
    v[f"{load}.us_per_row"] = (_ratio(sp.busy[load] * 1e6, sp.count(load, "rows")), "us/row")
    v[f"{load}.kept_ratio"] = (_ratio(sp.count(load, "kept_rows"), sp.count(load, "rows")), "ratio")
    busy("dataio.write_long_table", "rows")
    v["dataio.write_long_table.bytes"] = (sp.count("dataio.write_long_table", "bytes"), "B")
    busy("dataio.curve_rows")
    busy("dataio.churn_rows")
    for writer in ("dataio.write_snapshots", "dataio.write_ledger"):
        busy(writer)
        v[f"{writer}.bytes"] = (sp.count(writer, "bytes"), "B")
    busy("dataio.write_protocol_table")
    busy("dataio.filter_queries")
    v["dataio.filter_queries.kept_ratio"] = (
        _ratio(sp.count("dataio.filter_queries", "kept"), sp.count("dataio.filter_queries", "seen")), "ratio")
    busy("dataio.export_heatmap")
    busy("names.load_name_table")
    busy("names.label_dataset", "records")
    v["names.label_dataset.resolved_ratio"] = (
        _ratio(sp.count("names.label_dataset", "resolved"), sp.count("names.label_dataset", "records")), "ratio")
    busy("model.observed_proportions", "calls")
    curves = ("exposure.deviation_curve", "exposure.skew_curve", "exposure.minskew_curve",
              "exposure.corrected_skew_curve")
    for name in curves:
        busy(name)
    cells = sum(sp.count(name, "cells") for name in curves)
    v["exposure.curves.calls"] = (sum(sp.calls[name] for name in curves), "count")
    v["exposure.curves.cells"] = (cells, "count")
    v["exposure.curves.defined_ratio"] = (_ratio(sum(sp.count(n, "defined") for n in curves), cells), "ratio")
    busy("churn.churn_grid", "calls", "cells")
    v["churn.churn_grid.defined_ratio"] = (
        _ratio(sp.count("churn.churn_grid", "defined"), sp.count("churn.churn_grid", "cells")), "ratio")
    busy("detgreedy.detgreedy_rerank", "calls", "candidates")
    v["detgreedy.detgreedy_rerank.infeasible_calls"] = (sp.count("detgreedy.detgreedy_rerank", "infeasible"),
                                                        "count")
    busy("simulate.generate", "queries")
    v["simulate.generate.self_s"] = (sp.self_s["simulate.generate"], "s")
    busy("mixedlm.minskew_protocol")
    busy("mixedlm.churn_protocol")
    busy("mixedlm.fit_random_intercept", "calls")
    v["mixedlm.fit_random_intercept.converged_ratio"] = (
        _ratio(sp.count("mixedlm.fit_random_intercept", "converged"), sp.calls["mixedlm.fit_random_intercept"]),
        "ratio")
    v["parallel.ordered_map.calls"] = (sp.calls["parallel.ordered_map"], "count")
    v["parallel.ordered_map.self_s"] = (sp.self_s["parallel.ordered_map"], "s")
    v["cli.import_s"] = (median(sp.imports), "s")
    for stage in STAGES:
        v[f"cli.{stage}.self_s"] = (sp.self_s[f"cli.{stage}"], "s")
    return v


def per_layer(plain, traced_runs, traces) -> tuple[dict[str, tuple[float, str, int]], list[Spans]]:
    spans = [Spans(t) for t in traces]
    per_chain = [layer_values(sp) for sp in spans]
    metrics = {name: (median([c[name][0] for c in per_chain]), unit, len(per_chain))
               for name, (_, unit) in per_chain[0].items()}
    untraced, traced = stage_medians(plain), stage_medians(traced_runs)
    for stage in STAGES:
        if stage in untraced:
            metrics[f"stage.{stage}_s"] = (untraced[stage][0], "s", untraced[stage][1])
            metrics[f"overhead.{stage}_s"] = (traced[stage][0] - untraced[stage][0], "s", traced[stage][1])
        else:
            metrics[f"stage.{stage}_s"] = (0.0, "s", 0)
            metrics[f"overhead.{stage}_s"] = (0.0, "s", 0)
    return metrics, spans


# ---------------------------------------------------------------------------
# main


def environment(seed: int, scale: float) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": nproc,
        "platform": platform.platform(),
        "note": f"shared {nproc}-CPU machine; other tenants add noise, so compare medians of repeated runs",
        "seed": seed,
        "scale": scale,
        f"{THREADS_ENV}_in_parent": os.environ.get(THREADS_ENV),
        f"{THREADS_ENV}_in_children": THREADS_ENV in child_env(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        faults: dict[str, str] | None = None, use_reference: bool = True) -> dict:
    """Run one workload; return the full result record."""
    work = BENCH / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, scale, work, faults or {}, use_reference)
        setup = [] if trace else runner.setup_runs()
        plain, traced_runs, traces = loop(runner, seconds, trace)
        record = {"workload": workload, "trace": int(trace), "environment": environment(seed, scale)}
        if trace:
            metrics, spans = per_layer(plain, traced_runs, traces)
            fired = {name for sp in spans for name in sp.calls}
            record["absent"] = spans[0].absent
            record["silent"] = [n for n in EXPECTED_SPANS[workload] if n not in fired and n not in spans[0].absent]
        else:
            metrics = end_to_end(setup, plain)
            record["stages"] = {f"{name}_s": {"value": value, "unit": "s", "n": n}
                                for name, (value, n) in stage_medians(plain).items()}
            record["stages"].update({name: {"value": value, "unit": unit, "n": n} for name, (value, unit, n)
                                     in raw_times(setup, plain).items()})
        record["samples"] = {"setup": [r.wall for r in setup], "setup.probe": [r.probe for r in setup],
                             **{name: [r[name].wall for r in plain] for name in plain[0]},
                             **{f"{name}.probe": [r[name].probe for r in plain] for name in plain[0]}}
        record.update({
            "correct": runner.tally.failed == 0,
            "attempted": runner.tally.attempted,
            "failed": runner.tally.failed,
            "fail_ratio": runner.tally.failed / runner.tally.attempted,
            "failures": runner.tally.failures,
            "metrics": {name: {"value": value, "unit": unit, "n": n} for name, (value, unit, n) in metrics.items()},
            "sha256": runner.hashes(),
        })
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's output hashes as the reference (default seed only)")
    args = parser.parse_args(argv)
    preflight()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), use_reference=not args.write_reference)

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.write_reference:
        if args.seed != DEFAULT_SEED or not record["correct"]:
            sys.exit("error: references come only from a correct run at the default seed")
        refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
        refs[args.workload] = record["sha256"]
        REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for name, m in {**record["metrics"], **record.get("stages", {})}.items():
        print(f"{name:48s} {m['value']:14.6f} {m['unit']:7s} n={m['n']}")
    print(f"{'fail_ratio':48s} {record['fail_ratio']:14.6f} ratio   n={record['attempted']}")
    for name in record.get("absent", []):
        print(f"{name:48s} absent")
    for name in record.get("silent", []):
        print(f"warning: expected span {name} did not fire", file=sys.stderr)
    for failure in record["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
