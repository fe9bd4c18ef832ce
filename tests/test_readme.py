"""The README's Python quick start and CLI examples run against the current API."""

import pathlib
import re
import shlex

from usdkit import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_runs():
    text = README.read_text()
    section = text[text.index("## Python quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


def test_cli_block_commands_exit_cleanly(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    section = text[text.index("\n## CLI\n") :]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()  # join backslash continuations
    commands = [shlex.split(line) for line in lines if line.startswith("usdkit ")]
    assert commands, "the README's CLI block holds no usdkit command"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    for argv in commands:
        code = cli.main(argv[1:])
        assert (code, capsys.readouterr().err) == (0, ""), argv
