"""The README's Python quick start runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_runs():
    text = README.read_text()
    section = text[text.index("## Python quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
