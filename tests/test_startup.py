"""Start-up cost: no subcommand loads scipy or ``dataclasses``, only the
simulator and the model fits load numpy, only the CSV readers load ``csv``
and only the ``stats`` protocols ``logging``, and each subcommand executes
only the package modules it uses; a bare ``import rankaudit`` executes
none, and a no-work start only ``cli``, ``dataio``, ``loader`` and
``errors``.  Also what the
lazily executed package must still give: every function the bench's tracer
wraps, every exported name, pickling, and one execution of ``cli`` under
``python -m``.

Importing numpy costs about 0.15 s per process, compiling all of the
package's modules about 50 ms, and the daily audit chain starts the CLI
once per stage; the model fits of `stats` run their ratio search and the
simulator its normal CDF and inverse in the package itself, and the
counting stages need neither library.  Each check runs in a fresh
interpreter, because this test process has executed all of them already.
"""
from __future__ import annotations

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rankaudit
from rankaudit.cli import main

from conftest import child_env, write_cli_inputs

# The rankaudit submodules a process has executed, by name.  A module not
# yet executed is a LazyLoader stand-in, whose type() does not execute it.
EXECUTED = """
def executed():
    import sys, types
    return sorted(n[10:] for n, m in sys.modules.items() if n.startswith("rankaudit.") and type(m) is types.ModuleType)
"""

# The standard-library modules that the CLI loads only where it uses them,
# and ``dataclasses``, which it never loads: every record type derives from
# ``model.Record``.
WATCHED_STDLIB = ("csv", "logging", "dataclasses")

# Runs cli.main once per argv list given as JSON in argv[1], then prints the
# loaded scipy and numpy modules, the executed rankaudit modules and those
# of WATCHED_STDLIB that were absent before ``import rankaudit`` and are
# loaded after the runs.
PROBE = EXECUTED + """
import json, sys
before = set(sys.modules)
import rankaudit, rankaudit.cli
for argv in json.loads(sys.argv[1]):
    assert rankaudit.cli.main(argv) == 0, argv
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy": sorted(m for m in sys.modules if m.split(".")[0] == "numpy"),
    "executed": executed(),
    "stdlib": [m for m in %r if m not in before and m in sys.modules],
}))
""" % (WATCHED_STDLIB,)


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
    assert main(["audit", str(tmp_path / "data.jsonl"), "--k-grid", "5,10", "-o", str(tmp_path / "curves.csv")]) == 0
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
    assert probe(COUNTING_STAGES, workdir)["scipy"] == []


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


# What every start executes: the CLI, the writers' ``dataio`` and the
# errors it reports.  A stage that reads a snapshot file adds ``loader``, one
# that reads a CSV or long table ``readers``; ``model`` executes with the
# first record, snapshot, scheme or proportions.
START = {"cli", "dataio", "errors"}
LOADING = START | {"loader", "model"}
SIMULATING = ["simulate", "--seed", "1", "--queries", "2", "--pool", "10:10", "-o", "sim.jsonl"]


@pytest.mark.parametrize("argv, executes", [
    pytest.param(COUNTING_STAGES[0], LOADING, id="validate"),
    pytest.param(COUNTING_STAGES[1], LOADING | {"names", "readers", "encoders"}, id="label"),
    pytest.param(COUNTING_STAGES[2], LOADING | {"exposure", "encoders"}, id="audit"),
    pytest.param(COUNTING_STAGES[3], LOADING | {"churn", "encoders"}, id="churn"),
    pytest.param(STATS_STAGES[0], LOADING | {"exposure", "mixedlm", "encoders"}, id=STATS_STAGES[0][1]),
    pytest.param(STATS_STAGES[1], LOADING | {"churn", "mixedlm", "encoders"}, id=STATS_STAGES[1][1]),
    pytest.param(COUNTING_STAGES[4], START | {"readers", "model", "detgreedy", "encoders"}, id="rerank"),
    pytest.param(SIMULATING, START | {"model", "detgreedy", "simulate", "encoders"}, id="simulate"),
    # A long table becomes a matrix with no record built and no snapshot loaded.
    pytest.param(COUNTING_STAGES[5], START | {"readers", "encoders"}, id="export"),
])
def test_each_subcommand_executes_only_the_modules_it_uses(workdir, argv, executes) -> None:
    assert probe([argv], workdir)["executed"] == sorted(executes)


def test_a_no_work_start_executes_only_the_cli_its_loader_and_errors(tmp_path) -> None:
    """The start the bench times: ``validate`` on an empty file builds no
    record, so ``model`` never executes, and loads none of the watched
    standard-library modules; the table readers are not executed."""
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    seen = probe([["validate", "empty.jsonl", "-o", "report.json"]], tmp_path)
    assert seen["executed"] == sorted(START | {"loader"})
    assert seen["stdlib"] == []
    assert json.loads((tmp_path / "report.json").read_text())["ok"] is True


def test_no_subcommand_loads_dataclasses(workdir) -> None:
    """All eight subcommands, run in one process, leave ``dataclasses``
    unloaded; ``test_stdlib_loads_only_where_used`` checks each alone."""
    seen = probe(COUNTING_STAGES + STATS_STAGES + [SIMULATING], workdir)
    # Shows that the probe would notice a load: the same test that finds no
    # ``dataclasses`` finds ``csv`` (``label``) and ``logging`` (``stats``).
    assert seen["stdlib"] == ["csv", "logging"]


def baseline_argv(workdir: Path, argv: list[str]) -> list[str]:
    """``argv`` with ``--baseline`` equal shares for every query of the
    workdir's ``data.jsonl``."""
    queries = sorted({json.loads(line)["query_id"] for line in (workdir / "data.jsonl").read_text().splitlines()})
    (workdir / "baseline.csv").write_text(
        "query_id,attribute,label,share\n" + "".join(f"{q},gender,{g},0.5\n" for q in queries for g in "FM"),
        encoding="utf-8",
    )
    return [*argv, "--baseline", "baseline.csv"]


# (subcommand, whether it gets ``--baseline``, whether it loads csv,
# whether it loads logging), one case or more for each of the eight
# subcommands: ``csv`` is loaded by the CSV readers alone, ``logging`` by
# the subcommands whose layers log, ``dataclasses`` by none.
STDLIB_CASES = [
    pytest.param(COUNTING_STAGES[0], False, False, False, id="validate"),
    pytest.param(COUNTING_STAGES[1], False, True, False, id="label"),
    pytest.param(COUNTING_STAGES[2], False, False, False, id="audit"),
    pytest.param(COUNTING_STAGES[2], True, True, False, id="audit-baseline"),
    pytest.param(COUNTING_STAGES[3], False, False, False, id="churn"),
    pytest.param(STATS_STAGES[0], False, False, True, id=STATS_STAGES[0][1]),
    pytest.param(STATS_STAGES[0], True, True, True, id=f"{STATS_STAGES[0][1]}-baseline"),
    pytest.param(STATS_STAGES[1], False, False, True, id=STATS_STAGES[1][1]),
    pytest.param(COUNTING_STAGES[4], False, True, False, id="rerank"),
    pytest.param(SIMULATING, False, False, False, id="simulate"),
    pytest.param(COUNTING_STAGES[5], False, True, False, id="export"),
]


@pytest.mark.parametrize("argv, baseline, loads_csv, loads_logging", STDLIB_CASES)
def test_stdlib_loads_only_where_used(workdir, argv, baseline, loads_csv, loads_logging) -> None:
    seen = probe([baseline_argv(workdir, argv) if baseline else argv], workdir)
    loads = (loads_csv, loads_logging, False)
    assert seen["stdlib"] == [name for name, loaded in zip(WATCHED_STDLIB, loads) if loaded]


# Builds the parser and runs cli.main on argv[1] (JSON), through the
# SystemExit of ``--help``; prints the exit status and the executed modules.
PARSER_PROBE = EXECUTED + """
import json, sys
import rankaudit.cli
try:
    status = rankaudit.cli.main(json.loads(sys.argv[1]))
except SystemExit as stop:
    status = stop.code
print(json.dumps([status, executed()]))
"""


@pytest.mark.parametrize("argv, status", [
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["audit", "--help"], 0, id="audit-help"),
    pytest.param(["audit"], 1, id="missing-argument"),
    pytest.param(["validate", "x.jsonl", "--format", "xml"], 1, id="bad-choice"),
    pytest.param(["no-such-command"], 1, id="unknown-command"),
])
def test_help_and_usage_errors_execute_only_the_cli_and_errors(argv, status) -> None:
    """Building and running the parser executes no layer module: its
    defaults and choices from the layers are literals."""
    done = subprocess.run([sys.executable, "-c", PARSER_PROBE, json.dumps(argv)], env=child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [status, ["cli", "errors"]]


def test_import_executes_no_submodule() -> None:
    """``import rankaudit`` registers every submodule but ``cli`` and
    executes none of them."""
    code = EXECUTED + (
        "import json, sys, rankaudit\n"
        "print(json.dumps([sorted(n for n in sys.modules if n.startswith('rankaudit.')), executed()]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    package = Path(rankaudit.__file__).parent
    registered = sorted(f"rankaudit.{path.stem}" for path in package.glob("*.py")
                        if path.stem not in ("__init__", "cli"))
    assert json.loads(done.stdout) == [registered, []]


def test_import_leaves_the_line_encoders_unloaded() -> None:
    """The table writers execute their encoders when they first write: a
    fresh import neither executes that module nor generates an encoder, and
    writing one table generates one."""
    code = EXECUTED + (
        "import io, rankaudit.cli\n"
        "from rankaudit import dataio, encoders\n"
        "before = 'encoders' in executed()\n"
        "dataio.write_long_table([('q', 1, 'g', 'F', 5, 'skew', 0.5)], dataio.CURVE_HEADER, io.StringIO())\n"
        "print(before, encoders.line_encoder.cache_info().currsize)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "1"]


def test_export_loads_the_line_encoders(workdir) -> None:
    """An ``export`` matrix, whose header (``row``, ``5``, ...) is not made
    of identifiers, is written by the same generated encoders as every
    other table; the audit table it reads is written in this process."""
    seen = probe([["export", "curves.csv", "--metric", "minskew", "-o", "heatmap.csv"]], workdir)
    assert "encoders" in seen["executed"]
    assert (workdir / "heatmap.csv").read_text().startswith("row,5,10\n")


def test_module_run_executes_the_cli_once(tmp_path) -> None:
    """``python -m rankaudit.cli`` runs with no warning from runpy, which
    would find a ``cli`` registered by the package before running it."""
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    argv = ["-W", "error::RuntimeWarning", "-m", "rankaudit.cli", "validate", "empty.jsonl", "-o", "r.json"]
    done = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "r.json").read_text())["ok"] is True


def test_every_exported_name_is_its_modules_object() -> None:
    for name in rankaudit.__all__:
        value = getattr(rankaudit, name)
        module = sys.modules[f"rankaudit.{rankaudit._OWNER[name]}"]
        assert getattr(module, name) is value, name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert set(dir(rankaudit)) >= set(rankaudit.__all__)
    with pytest.raises(AttributeError):
        rankaudit.no_such_name


def test_a_record_unpickles_in_a_process_that_only_imported_the_package() -> None:
    record = rankaudit.CandidateRecord("c1", "Ada", None, {"gender": "F"})
    code = "import pickle, sys, rankaudit\nsys.stdout.buffer.write(pickle.dumps(pickle.load(sys.stdin.buffer)))\n"
    done = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(record), env=child_env(),
                          capture_output=True)
    assert done.returncode == 0, done.stderr
    assert pickle.loads(done.stdout) == record


# Loads bench/tracer.py (without running it), imports the CLI as the tracer
# does and installs its wrappers; prints the absent names and the bindings
# in rankaudit modules that are still an unwrapped traced function.
TRACED_PROBE = """
import importlib.util, json, sys, types
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import rankaudit.cli
absent = tracer.Tracer().install()
traced = {(f"rankaudit.{m}", f) for m, f in tracer.TRACED}
unwrapped = sorted(f"{name}.{attr}" for name, module in list(sys.modules.items()) if name.startswith("rankaudit")
                   for attr, value in vars(module).items()
                   if isinstance(value, types.FunctionType) and (value.__module__, value.__name__) in traced)
wrapped = sum(getattr(sys.modules[f"rankaudit.{m}"], f).__module__ == "tracer"
              for m, f in tracer.TRACED if m != "parallel")
print(json.dumps([absent, unwrapped, wrapped, len(tracer.TRACED)]))
"""


def test_every_traced_name_resolves_after_the_cli_import() -> None:
    """The bench's tracer wraps each function it lists by rebinding every
    attribute that holds it in the rankaudit modules; its ``install`` reads
    each module, which executes the ones the CLI's import did not.  A name
    that is renamed, moved or never executed silently loses its span.
    ``parallel.ordered_map`` is a known dead entry: its module was deleted
    and the list still names it."""
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    done = subprocess.run([sys.executable, "-c", TRACED_PROBE, str(tracer)], env=child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    absent, unwrapped, wrapped, listed = json.loads(done.stdout)
    assert absent == ["parallel.ordered_map"]
    assert unwrapped == []
    assert wrapped == listed - 1


# As TRACED_PROBE, but finds the unwrapped bindings by identity with the
# functions the tracer resolved, wherever they are defined: ``dataio``'s
# loader and readers names are defined in ``loader`` and ``readers``.
TRACED_BY_IDENTITY_PROBE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import rankaudit.cli
originals = {}
for m, f in tracer.TRACED:
    module = sys.modules.get(f"rankaudit.{m}")
    if module is not None and hasattr(module, f):
        originals[id(getattr(module, f))] = f"{m}.{f}"
tracer.Tracer().install()
unwrapped = sorted(f"{name}.{attr} ({originals[id(value)]})"
                   for name, module in list(sys.modules.items()) if name.startswith("rankaudit")
                   for attr, value in vars(module).items() if id(value) in originals)
print(json.dumps([len(originals), unwrapped]))
"""


def test_no_binding_of_a_traced_function_escapes_the_tracer() -> None:
    """Every binding of every function the tracer lists, in the module that
    defines it and in each that imported it by name, is the wrapper after
    ``install``: the readers' ``write_long_table`` included, which
    ``export_heatmap`` calls."""
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    done = subprocess.run([sys.executable, "-c", TRACED_BY_IDENTITY_PROBE, str(tracer)], env=child_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    resolved, unwrapped = json.loads(done.stdout)
    assert resolved == 22
    assert unwrapped == []
