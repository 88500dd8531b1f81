"""The README's examples, run as written.

Each ``$ qtab ...`` line of a ``console`` block runs through ``qtab.cli.main``
and must exit 0.  The lines printed under it in the README are compared with
its output: a ``...`` line stands for any run of lines, and a command shown
with no output lines is checked for its exit code only.  The library example
runs as Python and must print the ``text`` block that follows it.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from qtab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCK_RE = re.compile(r"^```(\w+)\n(.*?)^```$", re.M | re.S)


def _console_examples() -> list[tuple[str, list[str]]]:
    """(command, expected output lines) for every ``$ qtab`` line."""
    examples: list[tuple[str, list[str]]] = []
    for kind, body in BLOCK_RE.findall(README):
        if kind != "console":
            continue
        for line in body.splitlines():
            if line.startswith("$ "):
                examples.append((line[2:], []))
            elif line.strip():
                examples[-1][1].append(line)
    return examples


def _matches(lines: list[str], shown: list[str]) -> bool:
    """Whether ``lines`` are the ``shown`` lines with each ``...`` standing
    for any run of lines (a run of none included)."""
    pattern = "".join(
        r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n" for line in shown
    )
    return re.fullmatch(pattern, "".join(line + "\n" for line in lines)) is not None


CONSOLE = _console_examples()


def test_readme_has_console_examples():
    assert len(CONSOLE) >= 9
    assert all(command.startswith("qtab ") for command, _ in CONSOLE)


@pytest.mark.parametrize("command,shown", CONSOLE, ids=[command for command, _ in CONSOLE])
def test_console_example(capsys, command, shown):
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    if shown:
        assert _matches(out.splitlines(), shown), out


def test_matches_elided_output():
    assert _matches(["a", "b", "c", "d"], ["a", "...", "d"])
    assert _matches(["a", "d"], ["a", "...", "d"])
    assert not _matches(["a", "b", "c"], ["a", "...", "d"])
    assert not _matches(["a", "b"], ["a"])


def test_library_example(capsys):
    section = README[README.index("## Library example"):]
    (code_kind, code), (out_kind, printed) = BLOCK_RE.findall(section)[:2]
    assert (code_kind, out_kind) == ("python", "text")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == printed
