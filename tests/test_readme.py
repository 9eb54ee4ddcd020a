"""The examples in README.md run and print what the README shows.

The Quick start block is executed statement by statement: each
`evaluate(...)` line must give the `EvaluationResult(...)` written in its
comment, or be identically zero where the comment says so.  Each
`$ deltachar ...` example runs in process through `cli.main`, the left side
of a pipe feeding the right side's stdin, and must print exactly the lines
below it.
"""

import ast
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from deltachar.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _quick_start():
    section = README.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _cli_examples():
    """(command, expected output) for every `$ deltachar` line."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ deltachar "):
                continue
            out = []
            for text in lines[i + 1:]:
                if not text or text.startswith("$ "):
                    break
                out.append(text)
            examples.append((line[2:], "".join(t + "\n" for t in out)))
    return examples


def test_quick_start_evaluations_match_their_comments():
    source = _quick_start()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], []), "README.md", "exec")
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "evaluate"):
            exec(code, namespace)
            continue
        result = eval(compile(ast.Expression(call), "README.md", "eval"),
                      namespace)
        comment = lines[stmt.lineno - 1].partition("#")[2].strip()
        if comment.startswith("EvaluationResult("):
            assert repr(result) == comment
        else:
            assert "identically zero" in comment and result.is_zero(), comment
        checked += 1
    assert checked == 3


EXAMPLES = _cli_examples()


@pytest.mark.parametrize("command, expected", EXAMPLES,
                         ids=["%d-%s" % (i, command.split()[1])
                              for i, (command, _) in enumerate(EXAMPLES)])
def test_cli_example_prints_what_the_readme_shows(command, expected,
                                                  capsys, monkeypatch):
    stdin = ""
    for part in command.split(" | "):
        argv = shlex.split(part)
        assert argv[0] == "deltachar"
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(argv[1:]) == 0
        stdin = capsys.readouterr().out
    assert stdin == expected


def test_every_cli_example_is_collected():
    commands = [command.split()[1] for command, _ in EXAMPLES]
    assert commands == ["char", "eval", "eval", "verify", "char"]
