"""The README library tour runs, and each expression equals its commented value."""

import ast
import re
from pathlib import Path

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
