"""Start-up cost: no subcommand loads scipy, only the simulator and the
model fits load numpy, and only writing a table or dataset, an ``export``
matrix included, loads the line encoders.  Also what the start must load:
every function the bench's tracer wraps.

Importing numpy costs about 0.15 s per process, and the daily audit chain
starts the CLI once per stage; the model fits of `stats` run their ratio
search and the simulator its normal CDF and inverse in the package itself,
and the counting stages need neither library.  Each check runs in a fresh
interpreter, because this test process has imported both already.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from rankaudit.cli import main

from conftest import child_env, write_cli_inputs

# Runs cli.main once per argv list given as JSON in argv[1], then prints the
# loaded scipy and numpy modules and the rankaudit modules that did not load.
PROBE = """
import json, pkgutil, sys
import rankaudit, rankaudit.cli
for argv in json.loads(sys.argv[1]):
    assert rankaudit.cli.main(argv) == 0, argv
package = [f"rankaudit.{m.name}" for m in pkgutil.iter_modules(rankaudit.__path__)]
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy": sorted(m for m in sys.modules if m.split(".")[0] == "numpy"),
    "unloaded": [m for m in package if m not in sys.modules],
}))
"""


def probe(argvs: list[list[str]], cwd) -> dict:
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)], cwd=cwd,
                          env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture()
def workdir(tmp_path):
    write_cli_inputs(tmp_path)
    assert main(["simulate", "--seed", "5", "--queries", "3", "--pool", "30:30", "--days", "3",
                 "--departures", "0.3,0.2", "-o", str(tmp_path / "data.jsonl")]) == 0
    return tmp_path


# Every subcommand except `stats` and `simulate`.
COUNTING_STAGES = [
    ["validate", "data.jsonl", "-o", "report.json"],
    ["label", "raw.jsonl", "--names", "names.csv", "-o", "labeled.jsonl"],
    ["audit", "data.jsonl", "--k-grid", "5,10", "-o", "curves.csv"],
    ["churn", "data.jsonl", "--k-grid", "5,10", "-o", "churn.csv"],
    ["rerank", "pool.csv", "-o", "reranked.csv"],
    ["export", "curves.csv", "--metric", "minskew", "-o", "heatmap.csv"],
]


def test_stages_without_a_fit_or_simulation_never_load_scipy(workdir) -> None:
    seen = probe(COUNTING_STAGES, workdir)
    assert seen["scipy"] == []
    assert seen["unloaded"] == []


def test_import_and_stages_without_a_fit_or_simulation_never_load_numpy(workdir) -> None:
    assert probe([], workdir)["numpy"] == []
    assert probe(COUNTING_STAGES, workdir)["numpy"] == []


STATS_STAGES = [
    ["stats", "minskew-protocol", "data.jsonl", "--min-pool", "1", "--cutoffs", "10",
     "--format", "json", "-o", "minskew.jsonl"],
    ["stats", "churn-protocol", "data.jsonl", "--min-pool", "1", "--cutoffs", "10",
     "--format", "json", "-o", "churn_test.jsonl"],
]


def test_stats_protocols_never_load_scipy(workdir) -> None:
    seen = probe(STATS_STAGES, workdir)
    assert seen["scipy"] == []
    # Shows that the numpy check above would notice numpy being loaded.
    assert seen["numpy"] != []
    # Both protocols ran the ratio search: every row is tested, and each
    # query contributed more than one observation.
    for name in ("minskew.jsonl", "churn_test.jsonl"):
        rows = [json.loads(line) for line in (workdir / name).read_text().splitlines()]
        assert rows, name
        for row in rows:
            assert row["estimate"] is not None, (name, row)
            assert int(row["n_obs"]) > int(row["n_groups"]) >= 2, (name, row)


def test_no_subcommand_loads_scipy(workdir) -> None:
    simulating = ["simulate", "--seed", "1", "--queries", "2", "--pool", "10:10", "--days", "2",
                  "--departures", "0.5,0.5", "--postprocess", "detgreedy", "--ledger", "ledger.jsonl",
                  "-o", "sim.jsonl"]
    seen = probe(COUNTING_STAGES + STATS_STAGES + [simulating], workdir)
    assert seen["scipy"] == []
    # Shows that the probe would notice a library being loaded.
    assert seen["numpy"] != []
    assert (workdir / "ledger.jsonl").read_text()


def test_import_leaves_the_line_encoders_unloaded() -> None:
    """The table writers load their encoders when they first write: a fresh
    import neither compiles that module nor generates an encoder, and
    writing one table generates one."""
    code = (
        "import io, sys, rankaudit.cli\n"
        "from rankaudit import dataio\n"
        "before = 'rankaudit.encoders' in sys.modules\n"
        "dataio.write_long_table([('q', 1, 'g', 'F', 5, 'skew', 0.5)], dataio.CURVE_HEADER, io.StringIO())\n"
        "from rankaudit import encoders\n"
        "print(before, encoders.line_encoder.cache_info().currsize)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "1"]


def test_export_loads_the_line_encoders(workdir) -> None:
    """An ``export`` matrix, whose header (``row``, ``5``, ...) is not made
    of identifiers, is written by the same generated encoders as every
    other table; the audit table it reads is written in this process."""
    assert main(["audit", str(workdir / "data.jsonl"), "--k-grid", "5,10", "-o", str(workdir / "curves.csv")]) == 0
    seen = probe([["export", "curves.csv", "--metric", "minskew", "-o", "heatmap.csv"]], workdir)
    assert "rankaudit.encoders" not in seen["unloaded"]
    assert (workdir / "heatmap.csv").read_text().startswith("row,5,10\n")


# Loads bench/tracer.py (without running it) and prints the (module,
# function) pairs of its TRACED list that do not resolve after the CLI's import.
TRACED_PROBE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import rankaudit.cli
print(json.dumps([[m, f] for m, f in tracer.TRACED
                  if not callable(getattr(sys.modules.get(f"rankaudit.{m}"), f, None))]))
"""


def test_every_traced_name_resolves_after_the_cli_import() -> None:
    """The bench's tracer wraps each function it lists by rebinding the
    attribute of an already-imported module; a name that is renamed, moved
    or left unloaded silently loses its span.  ``parallel.ordered_map`` is
    a known dead entry: its module was deleted and the list still names it."""
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    done = subprocess.run([sys.executable, "-c", TRACED_PROBE, str(tracer)], env=child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [["parallel", "ordered_map"]]
