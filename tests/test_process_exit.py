"""The CLI process ends without interpreter teardown and loses nothing.

``python -m rankaudit.cli`` and the ``rankaudit`` script call
``cli.run``, which flushes stdout and stderr and ends the process with
``os._exit``, unless a profiler or tracer is installed.  These checks run
fresh children and compare them with ``cli.main`` run in this process:
same bytes, same stderr lines, same exit status.  The last check is what
makes skipping teardown safe: every file the package opens is closed by a
``with`` block, so no buffered handle outlives ``main``.
"""
from __future__ import annotations

import ast
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

from rankaudit import cli

from conftest import child_env, write_cli_inputs

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rankaudit"


def child(*argv: str, cwd: Path, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "rankaudit.cli", *argv], cwd=cwd, env=env or child_env(),
                          capture_output=True, timeout=120)


def test_stdout_beyond_a_pipe_buffer_arrives_whole(tmp_path, capsys) -> None:
    data = tmp_path / "long.jsonl"
    assert cli.main(["simulate", "--seed", "11", "--queries", "4", "--pool", "200:200", "-o", str(data)]) == 0
    capsys.readouterr()
    assert cli.main(["audit", str(data), "--k-grid", "full"]) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    done = child("audit", str(data), "--k-grid", "full", cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, b"")
    assert len(done.stdout) > 1 << 16
    assert done.stdout == expected


def test_a_failing_run_keeps_its_status_and_stderr(tmp_path, capsys, monkeypatch) -> None:
    """``label`` on a scrape with a line that does not parse and a snapshot
    with a rank gap: both warnings, the coverage line, the labeled file and
    exit status 1, as in process."""
    write_cli_inputs(tmp_path)
    raw = tmp_path / "raw.jsonl"
    gap = ('{"query_id":"q3","day":1,"rank":2,"candidate_id":"x","first_name":"Ada",'
           '"last_name":null,"groups":null,"missing":false}\n')
    raw.write_text(raw.read_text(encoding="utf-8") + "{not json\n" + gap, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["label", "raw.jsonl", "--names", "names.csv", "-o", "here.jsonl"]) == 1
    expected = capsys.readouterr().err
    done = child("label", "raw.jsonl", "--names", "names.csv", "-o", "there.jsonl", cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr.decode("utf-8") == expected
    assert len(expected.splitlines()) == 3 and expected.startswith("warning: line ")
    assert (tmp_path / "there.jsonl").read_bytes() == (tmp_path / "here.jsonl").read_bytes()


def test_a_usage_error_is_one_line_and_status_1(tmp_path) -> None:
    done = child("audit", cwd=tmp_path)
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == b"error: the following arguments are required: dataset\n"


@pytest.mark.parametrize("argv", [["--help"], ["stats", "--help"]])
def test_help_is_written_whole_with_status_0(tmp_path, capsys, monkeypatch, argv) -> None:
    # argparse wraps help to the terminal's width; fix it on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        cli.main(argv)
    assert done.value.code == 0
    expected = capsys.readouterr().out
    got = child(*argv, cwd=tmp_path, env=dict(child_env(), COLUMNS="80"))
    assert (got.returncode, got.stderr) == (0, b"")
    assert got.stdout.decode("utf-8") == expected
    assert expected.startswith("usage: rankaudit ")


def test_a_profiled_run_writes_its_profile(tmp_path) -> None:
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "cProfile", "-o", "out.prof", "-m", "rankaudit.cli",
                           "validate", "empty.jsonl", "-o", "r.json"], cwd=tmp_path, env=child_env(),
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "r.json").read_text(encoding="utf-8").startswith("{")
    stats = pstats.Stats(str(tmp_path / "out.prof"))
    assert any(name == "main" and file.endswith("cli.py") for file, _, name in stats.stats)


# Registers an atexit handler, optionally installs a tracer, then ends
# through cli.run: the handler runs only when teardown does.
ATEXIT_PROBE = """
import atexit, sys
import rankaudit.cli
atexit.register(print, "teardown")
if sys.argv[1] == "traced":
    sys.settrace(lambda *args: None)
sys.argv[1:] = ["validate", sys.argv[2], "-o", sys.argv[3]]
rankaudit.cli.run()
"""


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_teardown_runs_only_under_a_tracer(tmp_path, traced) -> None:
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", ATEXIT_PROBE, "traced" if traced else "plain", "empty.jsonl",
                           "r.json"], cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ("teardown\n" if traced else "")
    assert (tmp_path / "r.json").stat().st_size > 0


def test_the_script_and_the_main_block_call_the_same_entry_point() -> None:
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    [block] = [node for node in tree.body
               if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    [statement] = block.body
    assert isinstance(statement.value, ast.Call) and not statement.value.args
    name = statement.value.func.id
    assert scripts["rankaudit"] == f"rankaudit.cli:{name}"
    assert getattr(cli, name) is cli.run


def _is_opener(node: ast.AST) -> bool:
    """A call of the builtin ``open`` or of ``dataio.text_stream``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id in ("open", "text_stream")
            or isinstance(func, ast.Attribute) and func.attr == "text_stream")


def test_every_file_is_opened_by_a_with_block() -> None:
    """No buffered handle outlives ``main``, so ``os._exit`` loses no byte."""
    found, loose = 0, []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        managed = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With)
                   for item in node.items}
        for node in ast.walk(tree):
            if _is_opener(node):
                found += 1
                if id(node) not in managed:
                    loose.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert loose == []
    # cli's config reader, dataio's text_stream and two JSONL readers, and
    # every text_stream call, those of the command modules included.
    assert found >= 8
