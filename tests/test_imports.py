"""Every module-level import and private helper in the package modules is
used, every function the bench tracer wraps exists, only ``core`` reads
a tournament's private column helpers or builds from an edge list, and
only ``core._count`` refuses a count as OUT_OF_RANGE."""

import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tournkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no name in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_finds_an_unused_import():
    source = "import json\nimport os.path\nfrom math import comb, gcd as g\n\nprint(json, g)\n"
    assert unused_imports(source) == ["os", "comb"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list[str]:
    """Top-level names with one leading underscore that the module defines."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set[str]:
    """Names the module reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)}


def test_finds_an_unread_private():
    source = "_A = 1\n_B, C = 2, 3\n__all__ = []\n\n\ndef _f():\n    return _A\n\n\nclass _K:\n    pass\n"
    read = names_read(source + "print(m._f)\n")
    assert [name for name in private_definitions(source) if name not in read] == ["_B", "_K"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_is_read(path):
    """A private helper that nothing under src/ reads is dead code."""
    read = set().union(*(names_read(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert [name for name in private_definitions(path.read_text()) if name not in read] == []


def traced_names() -> list[tuple[str, str]]:
    """(module, function) pairs of the bench tracer's SPANNED and COUNTED
    tables, read from its source so that the bench is not imported."""
    tree = ast.parse((PACKAGE.parent.parent / "perfbench" / "spans.py").read_text())
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")}
    assert sorted(tables) == ["COUNTED", "SPANNED"]
    return [(mod, fn) for table in tables.values() for mod, fns in table.items() for fn in fns]


@pytest.mark.parametrize("mod, fn", traced_names(), ids=lambda x: x)
def test_traced_function_exists(mod, fn):
    """A traced bench run looks each name up with getattr."""
    assert callable(getattr(importlib.import_module(f"tournkit.{mod}"), fn, None))


COLUMN_PRIVATES = {"_transpose", "_cols"}


def column_private_reads(source: str) -> list[str]:
    """Attributes in COLUMN_PRIVATES that the module reads."""
    return [node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in COLUMN_PRIVATES]


def test_finds_a_column_private_read():
    source = "def f(t):\n    return t._transpose()[0] | t._cols[1] | t.in_mask(2)\n"
    assert sorted(column_private_reads(source)) == ["_cols", "_transpose"]


OUTSIDE_CORE = sorted(p for p in PACKAGE.glob("*.py") if p.name != "core.py")


@pytest.mark.parametrize("path", OUTSIDE_CORE, ids=[p.name for p in OUTSIDE_CORE])
def test_columns_have_one_definition(path):
    """Every module outside core asks a tournament for in-masks through in_mask."""
    assert column_private_reads(path.read_text()) == []


def make_tournament_calls(source: str) -> int:
    """Calls to make_tournament, by name or as an attribute, in the module."""
    return sum(1 for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "make_tournament")


def test_finds_a_make_tournament_call():
    source = ("from .core import make_tournament\nfrom . import core\n\n"
              "def f():\n    return make_tournament(1, []), core.make_tournament(0, []), make_tournament\n")
    assert make_tournament_calls(source) == 2


@pytest.mark.parametrize("path", OUTSIDE_CORE, ids=[p.name for p in OUTSIDE_CORE])
def test_constructions_are_built_as_rows(path):
    """Outside core, tournaments are built as rows and checked by Tournament."""
    assert make_tournament_calls(path.read_text()) == 0


# the three endings of a refused count; an f-string's placeholders read "…"
COUNT_ENDING = re.compile(r"must be (non-negative|an int, got .+|at least .+)$")


def message_texts(node) -> list[str]:
    """Every text a message expression can give: a literal, an f-string, or
    either branch of a conditional."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return ["".join(part.value if isinstance(part, ast.Constant) else "…" for part in node.values)]
    if isinstance(node, ast.IfExp):
        return message_texts(node.body) + message_texts(node.orelse)
    return []


def hand_count_checks(source: str) -> list[str]:
    """Messages of the module's TournamentError("OUT_OF_RANGE", ...) literals
    that refuse a count, outside a top-level function named _count."""
    tree = ast.parse(source)
    helper = {id(node) for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "_count"
              for node in ast.walk(top)}
    return [text for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in helper and len(node.args) >= 2
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "TournamentError"
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == "OUT_OF_RANGE"
            for text in message_texts(node.args[1]) if COUNT_ENDING.search(text)]


def test_finds_a_hand_written_count_check():
    source = (
        "def _count(value, name, least=0):\n"
        "    raise TournamentError('OUT_OF_RANGE', f'{name} must be non-negative' if least == 0\n"
        "                          else f'{name} must be at least {least}')\n\n\n"
        "def f(n, k, m):\n"
        "    if n < 0:\n"
        "        raise TournamentError('OUT_OF_RANGE', 'n must be non-negative')\n"
        "    if not isinstance(k, int):\n"
        "        raise core.TournamentError('OUT_OF_RANGE', f'k must be an int, got {k!r}')\n"
        "    if m < 2:\n"
        "        raise TournamentError('OUT_OF_RANGE', 'm must be at least 2' if m else f'{m} must be at least 2')\n"
        "    raise TournamentError('OUT_OF_RANGE', 'caps must be non-negative or UNBOUNDED')\n"
        "    raise TournamentError('BAD_FILE', 'line 1: vertex count must be non-negative')\n"
    )
    assert hand_count_checks(source) == ["n must be non-negative", "k must be an int, got …",
                                         "m must be at least 2", "… must be at least 2"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_counts_are_checked_by_one_helper(path):
    """Every size, length and bound is refused by core._count, so each
    refusal has one wording, bools and floats included."""
    assert hand_count_checks(path.read_text()) == []
