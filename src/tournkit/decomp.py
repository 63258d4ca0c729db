"""Acyclic decomposition: separation witnesses, components, monomorphic parts."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    Tournament,
    TournamentError,
    canonical_form,
    is_acyclic,
    lex_sum,
    restrict,
)

THREE_CYCLE = "three_cycle"
DIAMOND = "diamond"
DOUBLE_DIAMOND = "double_diamond"


@dataclass(frozen=True)
class SeparationWitness:
    """A configuration proving two vertices share no acyclic autonomous set."""

    kind: str
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class Decomposition:
    blocks: tuple[tuple[int, ...], ...]
    quotient: Tournament
    spectrum: tuple[int, ...]


def is_autonomous(t: Tournament, subset) -> bool:
    """Every outside vertex relates uniformly to the whole subset."""
    mask = 0
    for v in subset:
        if not 0 <= v < t.n:
            raise TournamentError("OUT_OF_RANGE", f"vertex {v} outside 0..{t.n - 1}")
        mask |= 1 << v
    for y in range(t.n):
        if (mask >> y) & 1:
            continue
        hits = t.rows[y] & mask
        if hits != 0 and hits != mask:
            return False
    return True


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cycle_count(t: Tournament, members) -> int:
    """Number of 3-cycles within members (total triples minus transitive ones)."""
    mask = 0
    for v in members:
        mask |= 1 << v
    k = len(members)
    trans = sum(((t.rows[v] & mask).bit_count() * ((t.rows[v] & mask).bit_count() - 1)) // 2 for v in members)
    return k * (k - 1) * (k - 2) // 6 - trans


def _first_cycle_in(t: Tournament, mask: int) -> tuple[int, int, int] | None:
    for tri in itertools.combinations(_bits(mask), 3):
        if _cycle_count(t, tri) == 1:
            return tri
    return None


def separated(t: Tournament, x: int, y: int) -> SeparationWitness | None:
    """Witness that no acyclic autonomous set contains both x and y.

    Searched in order: a common 3-cycle, then a diamond through both, then a
    double diamond with x and y as its end vertices; ties break by vertex
    order.  Returns None when x and y do share an acyclic autonomous set.
    """
    if not (0 <= x < t.n and 0 <= y < t.n):
        raise TournamentError("OUT_OF_RANGE", f"pair ({x},{y}) outside 0..{t.n - 1}")
    if x == y:
        return None
    if y < x:
        x, y = y, x
    pair_mask = (1 << x) | (1 << y)
    # common 3-cycle: with x -> y we need z beating x and beaten by y
    if t.edge(x, y):
        zs = t.rows[y] & t.in_mask(x)
    else:
        zs = t.rows[x] & t.in_mask(y)
    if zs:
        z = (zs & -zs).bit_length() - 1
        return SeparationWitness(THREE_CYCLE, tuple(sorted((x, y, z))))
    others = [v for v in range(t.n) if not (pair_mask >> v) & 1]
    for u, w in itertools.combinations(others, 2):
        if _cycle_count(t, (x, y, u, w)) == 1:
            return SeparationWitness(DIAMOND, tuple(sorted((x, y, u, w))))
    # double diamond with x, y as end vertices: dominant -> cycle -> dominated
    dom, sub = (x, y) if t.edge(x, y) else (y, x)
    middle = t.rows[dom] & t.in_mask(sub) & ~pair_mask
    tri = _first_cycle_in(t, middle)
    if tri is not None:
        return SeparationWitness(DOUBLE_DIAMOND, tuple(sorted((x, y) + tri)))
    return None


def _closure(t: Tournament, x: int, y: int) -> int:
    """Bitmask of the smallest autonomous set containing x and y.

    Autonomous sets that meet intersect in an autonomous set, so this set is
    unique.  An outside vertex that beats one member and is beaten by another
    lies in every autonomous set holding the members; such splitters are
    added one at a time until none is left, O(n) big-int operations.
    """
    rows = t.rows
    mask = (1 << x) | (1 << y)
    beaten = rows[x] | rows[y]
    beating = t.in_mask(x) | t.in_mask(y)
    splitters = beaten & beating & ~mask
    while splitters:
        low = splitters & -splitters
        v = low.bit_length() - 1
        mask |= low
        beaten |= rows[v]
        beating |= t.in_mask(v)
        splitters = beaten & beating & ~mask
    return mask


def _is_acyclic_mask(t: Tournament, mask: int) -> bool:
    """The restriction to mask is transitive: its out-degrees are distinct."""
    degrees = set()
    for v in _bits(mask):
        d = (t.rows[v] & mask).bit_count()
        if d in degrees:
            return False
        degrees.add(d)
    return True


def _classes(masks) -> tuple[tuple[int, ...], ...]:
    """Classes of a partition given as each vertex's class bitmask, ordered
    by least vertex."""
    return tuple(tuple(_bits(m)) for m in dict.fromkeys(masks))


def acyclic_components(t: Tournament) -> Decomposition:
    """Partition into maximal acyclic autonomous blocks with the quotient.

    x and y share a block iff their closure, the smallest autonomous set holding
    both, is acyclic; such a closure joins all its members at once.  Blocks are
    ordered by least vertex; the quotient takes one vertex per block.  The
    result is checked (relation transitive, blocks acyclic and autonomous,
    quotient free of non-trivial acyclic autonomous sets) and
    INTERNAL_INCONSISTENCY signals a bug, never an expected outcome.
    """
    n = t.n
    together = [1 << v for v in range(n)]
    for x in range(n):
        for y in range(n - 1, x, -1):  # far pairs first: one acyclic closure joins a whole block
            closure = 0 if together[x] >> y & 1 else _closure(t, x, y)
            if closure and _is_acyclic_mask(t, closure):
                for v in _bits(closure):
                    together[v] |= closure
    blocks = _classes(together)
    for b in blocks:
        if any(together[v] != together[b[0]] for v in b):
            raise TournamentError("INTERNAL_INCONSISTENCY", "non-separation relation is not transitive")
        if not is_acyclic(restrict(t, b)):
            raise TournamentError("INTERNAL_INCONSISTENCY", f"block {b} is not acyclic")
        if not is_autonomous(t, b):
            raise TournamentError("INTERNAL_INCONSISTENCY", f"block {b} is not autonomous")
    quotient = restrict(t, [b[0] for b in blocks])
    if not is_acyclically_indecomposable(quotient):
        raise TournamentError("INTERNAL_INCONSISTENCY", "quotient has a non-trivial acyclic autonomous set")
    spectrum = tuple(sorted((len(b) for b in blocks), reverse=True))
    return Decomposition(blocks, quotient, spectrum)


def spectrum(t: Tournament) -> tuple[int, ...]:
    """Block sizes of the acyclic decomposition, largest first."""
    return acyclic_components(t).spectrum


def is_acyclically_indecomposable(t: Tournament) -> bool:
    """No acyclic autonomous set has more than one element: no pair is
    autonomous, since two consecutive vertices of such a set form one."""
    rows = t.rows
    return not any((rows[x] ^ rows[y]) & ~(1 << x | 1 << y) == 0 for x, y in itertools.combinations(range(t.n), 2))


def is_indecomposable(t: Tournament) -> bool:
    """No autonomous set strictly between one vertex and all of them: the
    closure of every pair is the whole vertex set."""
    full = (1 << t.n) - 1
    return all(_closure(t, x, y) == full for x, y in itertools.combinations(range(t.n), 2))


def _common_cycle_mask(t: Tournament, a: int, b: int) -> int:
    """Vertices forming a 3-cycle with the ordered pair a, b."""
    if t.edge(a, b):
        return t.rows[b] & t.in_mask(a)
    return t.rows[a] & t.in_mask(b)


def monomorphic_components(t: Tournament) -> tuple[tuple[int, ...], ...]:
    """Classes of the largest-monomorphic-part partition.

    Two vertices share a part iff they lie in a common acyclic component, in
    an autonomous 3-cycle, or form a pair whose common-cycle vertex set C is
    acyclic with the pair plus C autonomous.
    """
    return _monomorphic_classes(t, acyclic_components(t).blocks)


def _monomorphic_classes(t: Tournament, blocks) -> tuple[tuple[int, ...], ...]:
    """``monomorphic_components`` given the blocks of the acyclic decomposition."""
    n = t.n
    part = [1 << v for v in range(n)]

    def join(*vs):
        m = 0
        for v in vs:
            m |= part[v]
        for v in _bits(m):
            part[v] = m

    for b in blocks:
        join(*b)
    for x, y in itertools.combinations(range(n), 2):
        if (part[x] >> y) & 1:
            continue
        zs = _common_cycle_mask(t, x, y)
        z = next((z for z in _bits(zs) if is_autonomous(t, (x, y, z))), None)
        if z is not None:
            join(x, y, z)
        elif _is_acyclic_mask(t, zs) and is_autonomous(t, [x, y, *_bits(zs)]):
            join(x, y)
    return _classes(part)


def is_monomorphic_part_oracle(t: Tournament, subset) -> bool:
    """Definition-level check: swapping equal-size slices of the subset never
    changes the isomorphism type.  Exponential; guarded to n <= 10."""
    if t.n > 10:
        raise TournamentError("TOO_LARGE", f"oracle limited to 10 vertices, got {t.n}")
    bset = sorted(set(subset))
    for v in bset:
        if not 0 <= v < t.n:
            raise TournamentError("OUT_OF_RANGE", f"vertex {v} outside 0..{t.n - 1}")
    outside = [v for v in range(t.n) if v not in bset]
    for k in range(len(outside) + 1):
        for s_out in itertools.combinations(outside, k):
            for m in range(1, len(bset) + 1):
                ref = None
                for inner in itertools.combinations(bset, m):
                    code = canonical_form(restrict(t, s_out + inner))
                    if ref is None:
                        ref = code
                    elif code != ref:
                        return False
    return True


def reconstruct(d: Decomposition, t: Tournament) -> Tournament:
    """Lex sum of the quotient with the block restrictions, in block order."""
    return lex_sum(d.quotient, [restrict(t, b) for b in d.blocks])
