"""The README's examples, run as written.

Every CLI pipeline of the README's CLI block runs through
`leafspan.cli.main`, and every line of the Library block runs in one
namespace.  Each output line the README shows as a `# ...` comment must
hold, so the documented examples cannot drift from the code unseen.
"""

from __future__ import annotations

import ast
import io
import re
import shlex
import sys
from pathlib import Path

from leafspan.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(lang: str, marker: str) -> list[str]:
    """The lines of the first `lang` code block of the README containing `marker`."""
    blocks = re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)
    return next(b for b in blocks if marker in b).splitlines()


def shown_pipelines() -> list[tuple[str, list[str]]]:
    """Each piped command of the CLI block with the output lines shown under it."""
    pipelines: list[tuple[str, list[str]]] = []
    shown = None
    for line in code_block("sh", "leafspan gen"):
        if line.startswith("leafspan ") and " | " in line:
            shown = []
            pipelines.append((line, shown))
        elif line.startswith("# ") and shown is not None:
            shown.append(line[2:])
        else:
            shown = None
    return pipelines


def run_pipeline(line: str, monkeypatch, capsys) -> list[str]:
    out = ""
    for command in line.split(" | "):
        argv = shlex.split(command)
        assert argv[0] == "leafspan"
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        assert main(argv[1:]) == 0, command
        out = capsys.readouterr().out
    return out.splitlines()


def test_readme_cli_examples_print_what_they_show(monkeypatch, capsys):
    pipelines = shown_pipelines()
    assert [line for line, _ in pipelines] == [
        "leafspan gen --family c2 --n 6 | leafspan build -",
        "leafspan gen --family h --n 2 | leafspan build - --log-steps",
        "leafspan gen --family g8 | leafspan oracle -",
    ]
    for line, shown in pipelines:
        assert shown, line
        got = run_pipeline(line, monkeypatch, capsys)
        if shown[-1] == "...":  # the output goes on past the lines shown
            assert got[: len(shown) - 1] == shown[:-1], line
            assert len(got) >= len(shown), line
        else:
            assert got == shown, line


def test_readme_library_example_gives_what_it_shows():
    namespace: dict = {}
    checked = 0
    for line in code_block("python", "from leafspan import"):
        code, _, comment = line.partition("  #")
        if not comment:
            exec(line, namespace)
            continue
        value = eval(code, namespace)
        # a comment that opens with a literal shows the value; any other
        # comment only describes it
        try:
            expected = ast.literal_eval(comment.split()[0])
        except (ValueError, SyntaxError):
            continue
        assert value == expected, line
        checked += 1
    assert checked == 4
