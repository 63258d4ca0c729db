"""The six chain-indexed families, their checked quotients, and small witnesses.

Reversal lemma: sending vertex w*x + i of ``family(kind, L)`` to
w*(L-1-x) + i (w = the kind's levels), with ``v``'s apex 2L kept,
maps it onto ``family(kind, descending(L))``.  Proof: each rule orienting a
pair reads only the two levels and the order of the two chain positions,
and reversing the chain reverses that order.  A finite subset of the omega-
or omega*-indexed tournament lies in a finite segment, so the twelve
infinite tournaments have six ages, one per kind.
"""

from __future__ import annotations

from .core import (
    DESCENDING,
    ChainSpec,
    Tournament,
    TournamentError,
    _count,
    _pattern,
    _resolve_generator,
    chain,
    cycle3,
    lex_sum,
)
from .decomp import acyclic_components

KINDS = ("c3", "v", "t", "u", "h", "k")

_Y = frozenset({"h0", "v0"})
X_SETS = {
    "t": frozenset({"d0^-1", "d1^-1", "h1"}) | _Y,
    "u": frozenset({"d0", "d1", "h1^-1"}) | _Y,
    "h": frozenset({"d0^-1", "d1", "h1"}) | _Y,
    "k": frozenset({"d0^-1", "d1", "h1^-1"}) | _Y,
}


# kind -> (levels, rules) of ``core._pattern``.  c3: a 3-cycle at each position; v: a
# 2-chain (``family`` adds the apex); both beat every later position.  t, u, h, k: X_SETS.
_PATTERNS = {
    "c3": (3, [((0, i), (0, (i + 1) % 3)) for i in range(3)] + [((0, i), (1, j)) for i in range(3) for j in range(3)]),
    **{kind: (2, [_resolve_generator(tok) for tok in sorted(x)])
       for kind, x in {**X_SETS, "v": {"v0", "h0", "h1", "d0", "d1"}}.items()},
}


def family(kind: str, c) -> Tournament:
    """Member of one of the six families over the given finite chain."""
    spec = c if isinstance(c, ChainSpec) else ChainSpec(c)
    if kind not in KINDS:
        raise TournamentError("OUT_OF_RANGE", f"unknown family kind {kind!r}")
    if spec.length < 1:
        raise TournamentError("EMPTY_CHAIN", "family chains need at least one vertex")
    rows = _pattern(spec, *_PATTERNS[kind])
    if kind == "v":
        # the upper (odd) vertices beat the apex 2L, which beats the lower ones
        rows = [r | (v & 1) << len(rows) for v, r in enumerate(rows)] + [int("01" * spec.length, 2)]
    return Tournament(len(rows), rows)


def checked_family(kind: str, c) -> Tournament:
    """Quotient of a family member by its acyclic components."""
    return acyclic_components(family(kind, c)).quotient


def schmerl_trotter(tag: str, h: int) -> Tournament:
    """The classical odd-order tournaments on 0..2h given by three clauses.

    tag "t"/"u": 0..h is a chain for both; h+1..2h is a chain for t and a
    reversed chain for u; for i < h, positions i+1..h beat i+h+1 and i+h+1
    beats 0..i.  tag "v": 0..2h-1 is a chain, odd vertices beat 2h, 2h beats
    even vertices; that is ``family("v", h)`` row for row, which is what it
    returns.  ``test_schmerl_trotter_matches_edge_list`` ties all three tags
    to these clauses.
    """
    if tag not in ("t", "u", "v"):
        raise TournamentError("OUT_OF_RANGE", f"unknown tag {tag!r}")
    if _count(h, "h", None) < 2:
        raise TournamentError("H_TOO_SMALL", "need h >= 2")
    if tag == "v":
        return family("v", h)
    n = 2 * h + 1

    def low(k):  # bits 0..k-1
        return (1 << k) - 1

    # lower vertex i beats i+1..h and h+1..h+i; upper vertex h+1+k beats 0..k
    rows = [low(h + 1) ^ low(i + 1) | low(h + 1 + i) ^ low(h + 1) for i in range(h + 1)]
    for v in range(h + 1, n):
        upper = low(n) ^ low(v + 1) if tag == "t" else low(v) ^ low(h + 1)
        rows.append(upper | low(v - h))
    return Tournament(n, rows)


# name -> (its one family, builder); builders look helpers up when called, as a tracer rebinds them
_WITNESSES = {
    "tau1": ("c3", lambda: lex_sum(chain(2), [cycle3(), cycle3()])),
    # one vertex of a 3-cycle blown up into a 3-cycle (5 vertices)
    "tau2": ("k", lambda: lex_sum(cycle3(), [cycle3(), chain(1), chain(1)])),
    "T5": ("t", lambda: schmerl_trotter("t", 2)),
    "U7": ("u", lambda: schmerl_trotter("u", 3)),
    "V7": ("v", lambda: schmerl_trotter("v", 3)),
    "H3": ("h", lambda: family("h", 3)),
}
WITNESS_NAMES = tuple(_WITNESSES)


def _witness_entry(name: str):
    if not isinstance(name, str) or name not in _WITNESSES:
        raise TournamentError("UNKNOWN_WITNESS", f"no witness named {name!r}")
    return _WITNESSES[name]


def witness(name: str) -> Tournament:
    """Small separators: each lives in exactly one of the six families."""
    return _witness_entry(name)[1]()


def witness_family(name: str) -> str:
    """Which family a witness separates from the other five."""
    return _witness_entry(name)[0]


def family_size(kind: str, length: int) -> int:
    if kind not in KINDS:
        raise TournamentError("OUT_OF_RANGE", f"unknown family kind {kind!r}")
    ChainSpec(length)  # the length check
    return _PATTERNS[kind][0] * length + (kind == "v")


def descending(length: int) -> ChainSpec:
    return ChainSpec(length, DESCENDING)
