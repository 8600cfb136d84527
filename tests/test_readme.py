"""The README's examples run as written.

Every ``rankaudit ...`` line of the ``sh`` block under "Command line" runs
as a fresh ``python -m rankaudit.cli`` child, in order, in one directory,
and the ``python`` block under "Library quick tour" runs as a fresh
``python`` child, so the README cannot drift from the CLI or the library.
"""
from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

from conftest import child_env, write_cli_inputs

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the ``## heading`` line."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def readme_commands() -> list[list[str]]:
    """The argv (without ``rankaudit``) of each example command."""
    joined = readme_block("Command line", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("rankaudit ")]


def test_readme_lists_every_subcommand() -> None:
    used = {argv[0] for argv in readme_commands()}
    assert used == {"simulate", "validate", "label", "audit", "churn", "rerank", "stats", "export"}


def test_readme_cli_examples_run(tmp_path) -> None:
    write_cli_inputs(tmp_path)
    env = child_env()
    for argv in readme_commands():
        done = subprocess.run([sys.executable, "-m", "rankaudit.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, (argv, done.stderr)
        if "-o" in argv:
            assert (tmp_path / argv[argv.index("-o") + 1]).stat().st_size > 0, argv
        else:
            assert done.stdout, argv


def test_readme_library_tour_runs(tmp_path) -> None:
    done = subprocess.run([sys.executable, "-c", readme_block("Library quick tour", "python")],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout
