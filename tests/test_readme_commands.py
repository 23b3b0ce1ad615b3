"""Every `entropia` command in README's fenced blocks exits 0 with rows.

Each line runs through `cli.run` in a temporary directory that holds the
unit disk as `body.json`, the file README's `bodies --body body.json`
reads.  Rows are the emitted lines after the CSV header, on stdout or in
the `--out` file.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from entropia import cli
from entropia.convex_body import StarBody

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    blocks = README.read_text().split("```")[1::2]
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("entropia ")]


COMMANDS = _readme_commands()


def test_readme_runs_every_subcommand():
    assert set(cli.COMMANDS) <= {word for argv in COMMANDS for word in argv}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0_with_rows(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "body.json").write_text(StarBody.ball(2).to_json())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    assert rc == 0
    out = buf.getvalue()
    if "--out" in argv:
        assert out == ""
        out = (tmp_path / argv[argv.index("--out") + 1]).read_text()
    _header, *rows = out.splitlines()
    assert rows
