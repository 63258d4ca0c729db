"""The README library tour runs, and each expression equals its commented value;
every line of its command-line block exits 0."""

import ast
import re
import shlex
from pathlib import Path

from tournkit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_source() -> str:
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_values():
    source = tour_source()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        # "# <value>" or "# <value>: prose" after every expression line
        comment = lines[stmt.end_lineno - 1].split("#", 1)[1]
        expected = ast.literal_eval(comment.split(": ", 1)[0].strip())
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert got == expected, f"README line {stmt.lineno}: {got!r} != {expected!r}"
        checked += 1
    assert checked == 7


def command_lines() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("tournkit ")]


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # in order, as a reader would type them: later lines read the files that
    # earlier ones write
    monkeypatch.chdir(tmp_path)
    lines = command_lines()
    for line in lines:
        code = cli.main(shlex.split(line, comments=True)[1:])
        err = capsys.readouterr().err
        assert code == 0, f"README: {line!r} exited {code}: {err}"
    assert len(lines) == 11
