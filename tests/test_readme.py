"""The README's command-line examples run as written.

Every ``rankaudit ...`` line of the ``sh`` block under "Command line" runs
as a fresh ``python -m rankaudit.cli`` child, in order, in one directory, so
the README and the CLI cannot drift apart.
"""
from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

from conftest import child_env, write_cli_inputs

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv (without ``rankaudit``) of each example command."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    joined = block.replace("\\\n", " ")
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
