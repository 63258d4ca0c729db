"""Plain text exchange format: a vertex count line, then one 0/1 row per vertex."""

from __future__ import annotations

from .core import Tournament, TournamentError


def dumps(t: Tournament) -> str:
    # character j of row i is bit j of rows[i]: its binary digits reversed
    rows = (format(r, f"0{t.n}b")[::-1] for r in t.rows)
    return "\n".join([str(t.n), *rows]) + "\n"


def loads(text: str) -> Tournament:
    """Parse the text format; '#' lines are comments.  Errors carry line numbers."""
    rows_text: list[tuple[int, str]] = []
    header: tuple[int, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = (lineno, line)
        else:
            rows_text.append((lineno, line))
    if header is None:
        raise TournamentError("BAD_FILE", "empty file: no vertex count line")
    try:
        n = int(header[1])
    except ValueError:
        raise TournamentError("BAD_FILE", f"line {header[0]}: vertex count {header[1]!r} is not an integer") from None
    if n < 0:
        raise TournamentError("BAD_FILE", f"line {header[0]}: vertex count must be non-negative")
    if len(rows_text) != n:
        raise TournamentError("BAD_FILE", f"expected {n} matrix rows, found {len(rows_text)}")
    for i, (lineno, line) in enumerate(rows_text):
        if len(line) != n:
            raise TournamentError("BAD_FILE", f"line {lineno}: row has {len(line)} entries, expected {n}")
        if set(line) - {"0", "1"}:
            raise TournamentError("BAD_FILE", f"line {lineno}: rows may contain only 0 and 1")
        if line[i] == "1":
            raise TournamentError("BAD_FILE", f"line {lineno}: diagonal entry must be 0")
    try:
        return Tournament(n, [int(line[::-1], 2) for _, line in rows_text])
    except TournamentError as exc:
        i, j = exc.details["pair"]
        raise TournamentError("BAD_FILE", f"line {rows_text[j][0]}: pair ({i},{j}) must be oriented exactly once") from None


def load_path(path) -> Tournament:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def dump_path(t: Tournament, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(t))
