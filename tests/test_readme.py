"""The README's library snippet runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs(capsys):
    text = README.read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert printed[0].startswith("0.996361465839")
