"""The README's examples against the code.

Every `$ spdcqkd ...` line of a console block that shows output is run, and
its shown lines must be the first lines it prints, up to a `...` line, or
all of them.  A shown `$ cat FILE` writes FILE where the commands run.
The Python example is run and must print the values its comments show.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from spdcqkd.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def console_commands():
    """(command, shown output lines) of every `$ ` line of the console blocks."""
    out = []
    for block in re.findall(r"^```console\n(.*?)^```", README, re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            out.append((command, shown))
    return out


FILES = {shlex.split(command)[1]: "\n".join(shown) + "\n"
         for command, shown in console_commands() if command.startswith("cat ")}
EXAMPLES = [(command, shown) for command, shown in console_commands()
            if command.startswith("spdcqkd ") and shown]


def test_readme_shows_the_examples():
    assert FILES == {"session.json": FILES.get("session.json")}
    assert [command.split()[1] for command, _ in EXAMPLES] == [
        "attack-report", "pair-stats", "sweep", "simulate"]


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_console_example(tmp_path, monkeypatch, command, shown):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    result = CliRunner().invoke(main, shlex.split(command)[1:])
    assert result.exit_code == 0, result.output
    printed = result.stdout.splitlines()
    if "..." in shown:
        shown = shown[:shown.index("...")]
        printed = printed[:len(shown)]
    assert printed == shown


def test_python_example():
    code = re.search(r"^```python\n(.*?)^```", README, re.M | re.S)[1]
    comments = re.findall(r"^print\(.*#\s*(\S+)$", code, re.M)
    assert len(comments) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().split() == comments
