"""Finite tournaments stored as dense bit matrices, plus the basic constructions."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate


class TournamentError(ValueError):
    """Invalid construction or query; ``code`` is a stable machine-readable tag.

    ``details`` is structured data about the failure; budget and size errors
    give ``consumed``, ``limit`` and ``where`` (the entry point whose limit
    was hit)."""

    def __init__(self, code: str, message: str, details: dict | None = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.details = {} if details is None else details


def _count(value, name: str, least: int | None = 0) -> int:
    """value, if it is an int (not a bool) and at least least (None sets no
    bound); every public size, length and bound is checked here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TournamentError("OUT_OF_RANGE", f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise TournamentError("OUT_OF_RANGE", f"{name} must be non-negative" if least == 0
                              else f"{name} must be at least {least}")
    return value


@dataclass(init=False, frozen=True, slots=True)
class Tournament:
    """Tournament on vertices 0..n-1; rows[i] is the out-neighbour bitmask of i.

    ``rows`` is the only stored form.  Every other vertex beats i or is
    beaten by it, so i's in-neighbours are ``full ^ rows[i] ^ 1 << i``.
    ``validate=False`` is the caller's promise that the rows form a
    tournament, since only then does that identity hold."""

    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows, validate: bool = True):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        if validate:
            self._validate()

    def _validate(self):
        n = _count(self.n, "n", None)
        if n < 0:
            raise TournamentError("OUT_OF_RANGE", "negative vertex count")
        if len(self.rows) != n:
            raise TournamentError("ARITY_MISMATCH", f"expected {n} rows, got {len(self.rows)}")
        full = (1 << n) - 1
        outside = ~full
        for i, r in enumerate(self.rows):
            if type(r) is not int:  # a bool, a float or an int subclass
                _count(r, f"row {i}", None)
            if r & outside:
                raise TournamentError("OUT_OF_RANGE", f"row {i} has bits outside 0..{n - 1}")
            if (r >> i) & 1:
                raise TournamentError("SELF_LOOP", f"vertex {i} beats itself")
        cols = self._transpose()
        for i in range(n):
            # bit k of wrong is set iff rows i and i + 1 + k both hold their pair or neither does
            if wrong := (full ^ self.rows[i] ^ cols[i]) >> i + 1:
                j = i + (wrong & -wrong).bit_length()
                raise TournamentError("NOT_A_TOURNAMENT", f"pair ({i},{j}) is missing or doubled", {"pair": (i, j)})

    def _transpose(self):
        # the rows' binary digits, last row first, each from bit n-1 down to
        # bit 0: every n-th digit from n-1-j is column j, most significant first
        n = self.n
        digits = "".join(format(r, f"0{n}b") for r in reversed(self.rows))
        return tuple(int(digits[n - 1 - j::n], 2) for j in range(n))

    def edge(self, i: int, j: int) -> bool:
        """True when i beats j."""
        return bool((self.rows[i] >> j) & 1)

    def in_mask(self, i: int) -> int:
        """Bitmask of the vertices that beat i."""
        return ((1 << self.n) - 1) ^ self.rows[i] ^ 1 << i


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Row-major upper-triangle bits of the lexicographically minimal relabeling."""

    n: int
    bits: int


ASCENDING = "asc"
DESCENDING = "desc"


@dataclass(frozen=True)
class ChainSpec:
    """A finite chain index: length vertices, ascending or descending orientation."""

    length: int
    orientation: str = ASCENDING

    def __post_init__(self):
        _count(self.length, "chain length")
        if self.orientation not in (ASCENDING, DESCENDING):
            raise TournamentError("OUT_OF_RANGE", f"unknown orientation {self.orientation!r}")


def make_tournament(n: int, edges) -> Tournament:
    """Build a tournament from an explicit orientation of every pair."""
    rows = [0] * _count(n, "n")
    for x, y in edges:
        if not (0 <= x < n and 0 <= y < n):
            raise TournamentError("OUT_OF_RANGE", f"edge ({x},{y}) outside 0..{n - 1}")
        if x == y:
            raise TournamentError("SELF_LOOP", f"edge ({x},{x})")
        if (rows[x] >> y | rows[y] >> x) & 1:
            raise TournamentError("DUPLICATE_PAIR", f"pair {{{min(x, y)},{max(x, y)}}} oriented twice")
        rows[x] |= 1 << y
    missing = n * (n - 1) // 2 - sum(r.bit_count() for r in rows)
    if missing:
        raise TournamentError("MISSING_PAIR", f"{missing} pair(s) left unoriented")
    return Tournament(n, rows, validate=False)


def chain(length: int, descending: bool = False) -> Tournament:
    """Transitive tournament: i beats j iff i < j (or i > j when descending)."""
    ChainSpec(length)  # the length check
    if descending:
        rows = [((1 << i) - 1) for i in range(length)]
    else:
        full = (1 << length) - 1
        rows = [full ^ ((1 << (i + 1)) - 1) for i in range(length)]
    return Tournament(length, rows, validate=False)


def cycle3() -> Tournament:
    """0 beats 1, 1 beats 2, 2 beats 0."""
    return Tournament(3, (0b010, 0b100, 0b001), validate=False)


def dual(t: Tournament) -> Tournament:
    """Reverse every edge: the dual's row i is t.in_mask(i)."""
    return Tournament(t.n, map(t.in_mask, range(t.n)), validate=False)


def restrict(t: Tournament, vertices) -> Tournament:
    """Induced subtournament on the given vertices, relabeled 0.. in ascending order.

    Each gap of dropped vertices, below the first kept one, between two
    consecutive kept ones or above the last, goes with one shift of the kept
    rows.  The highest gap goes first, so that the positions below it still
    hold.  There are at most min(k+1, n-k) gaps for k of n vertices kept, so
    O(k*min(k+1, n-k)) big-int steps."""
    vs = sorted(set(vertices))
    # a bool is no vertex; ascending, it can only come first or second, as 0 or 1
    if vs and not (0 <= vs[0] and vs[-1] < t.n) or bool in map(type, vs[:2]):
        raise TournamentError("OUT_OF_RANGE", f"vertices outside 0..{t.n - 1}")
    rows, b = [t.rows[i] for i in vs], t.n
    for a in reversed([-1] + vs):
        if b - a > 1:
            # keep the bits up to a, move those from b on down onto the gap a+1..b-1
            low = (1 << a + 1) - 1
            rows = [r & low | r >> b - a - 1 & ~low for r in rows]
        b = a
    return Tournament(len(vs), rows, validate=False)


def lex_sum(d: Tournament, blocks) -> Tournament:
    """Replace vertex i of the index tournament d by blocks[i].

    Block vertex ranges are contiguous, in index order: block i starts
    after the vertices of blocks 0..i-1.
    """
    blocks = list(blocks)
    if len(blocks) != d.n:
        raise TournamentError("ARITY_MISMATCH", f"index has {d.n} vertices, got {len(blocks)} blocks")
    offs = list(accumulate((b.n for b in blocks), initial=0))
    masks = [((1 << b.n) - 1) << o for b, o in zip(blocks, offs)]
    rows = []
    for b, o, r in zip(blocks, offs, d.rows):
        # a block's vertices beat every vertex of the blocks that its index vertex beats
        out = sum(m for j, m in enumerate(masks) if r >> j & 1)
        rows += [u << o | out for u in b.rows]
    return Tournament(len(rows), rows, validate=False)


# Skew-product generators: pairs over the two-level pattern {0,1} x {0,1}.
# h moves along the chain within a level, v moves between levels of one chain
# vertex, d crosses both.  A trailing "^-1" reverses a generator.
GENERATORS = {
    "h0": ((0, 0), (1, 0)),
    "h1": ((0, 1), (1, 1)),
    "v0": ((0, 0), (0, 1)),
    "v1": ((1, 0), (1, 1)),
    "d0": ((0, 0), (1, 1)),
    "d1": ((0, 1), (1, 0)),
}


def _resolve_generator(token: str):
    base, inv = (token[:-3], True) if token.endswith("^-1") else (token, False)
    if base not in GENERATORS:
        raise TournamentError("OUT_OF_RANGE", f"unknown generator {token!r}")
    p, q = GENERATORS[base]
    return (q, p) if inv else (p, q)


def _pattern(spec: ChainSpec, levels: int, rules) -> list[int]:
    """Rows of a chain of copies of a levels-vertex pattern; (position x, level i) is levels*x + i.

    Rule ((s,i),(t,j)) makes (x,i) beat level j at x itself (s=t=0), at the
    positions x precedes (s=0,t=1) or at those preceding x (s=1,t=0).  A pair
    that two rules orient raises NOT_A_TOURNAMENT, naming it."""
    if spec.orientation == DESCENDING:
        # x precedes y iff x > y: the cross rules of the ascending chain, reversed
        rules = [((t, i), (s, j)) for (s, i), (t, j) in rules]
    rows = [0] * levels * spec.length
    level0 = sum(1 << v for v in range(0, len(rows), levels))
    for x in range(spec.length):
        below, above = (1 << levels * x) - 1, -1 << levels * (x + 1)
        reach = {(0, 0): ~(below | above), (0, 1): above, (1, 0): below}
        for (s, i), (t, j) in rules:
            targets = reach[s, t] & level0 << j
            if twice := rows[levels * x + i] & targets:
                # a repeated rule; the OR below would hide it
                a, b = sorted((levels * x + i, (twice & -twice).bit_length() - 1))
                raise TournamentError("NOT_A_TOURNAMENT", f"pair ({a},{b}) is oriented twice", {"pair": (a, b)})
            rows[levels * x + i] |= targets
    return rows


def skew_product(spec: ChainSpec, x_set) -> Tournament:
    """Two copies of a chain: ``_pattern`` at two levels, x_set's tokens naming rules that orient each pair once."""
    pairs = [_resolve_generator(tok) for tok in sorted(x_set)]
    if any(s and t for (s, _), (t, _) in pairs):
        # both components at position 1 can never match a concrete pair
        raise TournamentError("NOT_A_TOURNAMENT", "generator covers no pair")
    return Tournament(2 * spec.length, _pattern(spec, 2, pairs))


def is_acyclic(t: Tournament) -> bool:
    """Transitive iff the out-degrees are a permutation of 0..n-1."""
    return sorted(r.bit_count() for r in t.rows) == list(range(t.n))


# ---------------------------------------------------------------------------
# canonical form

_CANON_CACHE: dict[tuple[int, ...], int] = {}
_CANON_CACHE_MAX = 1 << 17


def _orbit(mask: int, gens) -> int:
    """Closure of the vertex set mask under the permutations gens."""
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        for g in gens:
            image = 1 << g[low.bit_length() - 1]
            if not image & mask:
                mask |= image
                todo |= image
    return mask


def _group(gens, n: int) -> list[tuple[int, ...]]:
    """Every element of the permutation group on 0..n-1 generated by gens, the
    identity first; each element is the tuple of vertex images."""
    group = [tuple(range(n))]
    for p in group:
        group += [q for q in {tuple(g[v] for v in p) for g in gens} if q not in group]
    return group


def _search(rows: tuple[int, ...], group: bool = False):
    """Lex-min code, the first and the best leaf's labelings, automorphism generators.

    Depth-first placement with an ordered partition of the unplaced vertices
    into bitmask cells, each homogeneous towards every placed vertex; the
    losers of the new vertex go first, which minimises its row.  Only the
    first cell's candidates with the least row are tried.  A row is, in cell
    order, one block of all-ones low bits per cell, as many as the candidate
    beats there, so the least rows are found by keeping, cell by cell, the
    candidates that beat the fewest, until one is left or the cells run out;
    one loop over the cells then builds the first candidate's split, which
    its child uses, and that row too when a test below reads it.  A lone
    candidate is placed in the same frame, which goes on with its split;
    every return truncates the vertices back to the frame's start depth.

    A node's row is read only while the prefix's rows equal the first
    leaf's (``same_first``) or the best leaf's (``vs_best == 0``): to cut
    the node, or, at a leaf, to find an automorphism generator.  Only then
    is it built; both flags start False and -1, so the path to the first
    leaf builds none.  Along a path the flags only fall, except when a child
    stores a new best, whose prefix is the frame's own (the first leaf is
    the first best): so every row that a test reads was built, and a leaf
    reached with a flag still up had every row compared.  Once every cell
    is a single vertex the rest of the labeling is fixed, to k vertices vs.
    A leaf reached with a flag up builds the code of vs's rows to test them;
    a leaf stored as the first or a new best builds the code of its whole
    labeling, all n rows; a generator leaf stores nothing.  A code is its
    rows joined, row d in n-1-d bits above the later rows, so row d of a
    stored code is one shift and mask, and the tail's rows compare at once,
    in the code's low bits.  Each code comes from one gather over strings:
    in vs's in-masks as binary digits, joined in order, the slice of stride
    n + 3 from vs[j]'s digit in vs[j+1]'s string is vs[j]'s row over the
    later vertices, the first one highest, and one ``int`` reads all the
    slices joined.  That reads O(k*n) digits, where a shift per vertex over
    packed bit matrices moves O(k*k*n) bits.  A node above the best code
    and off the first leaf's code is cut.  A leaf equal to the first or best
    leaf gives an automorphism generator and a jump back to the two leaves'
    common ancestor.  A candidate in the orbit of an explored sibling under
    the generators fixing the placed vertices is skipped (McKay & Piperno,
    "Practical graph isomorphism, II", 2014).

    With ``group`` the search is for the automorphism group alone: a node is
    cut as soon as one of its rows differs from the first leaf's, whatever
    the best code.  A node's rows depend only on the tournament's structure
    around the placed vertices, so an automorphism maps the first leaf's path
    to one with the same rows, on which no cut falls.  Below each node of
    the first leaf's path, every child that an automorphism fixing the
    placed vertices makes of the path's own child still leads to a leaf
    equal to the first, unless orbit pruning skips it, and no automorphism
    is lost.  No other leaf is reached, so the returned code and best
    labeling are the first leaf's, not the lex-min ones.
    """
    n = len(rows)
    full, top = (1 << n) - 1, (2 << n) - 1
    first = best = first_order = best_order = None  # first and best are the two leaves' codes
    gens: list[tuple[list[int], int]] = []  # (image of each vertex, moved vertices)
    order: list[int] = []  # vertices placed so far

    def leaf_code(vs):
        # "0b1" and vs[i]'s in-mask, bit n-1 first, is block i of n + 3 digits, so
        # digit i*(n+3) + n+2-u says whether u beats vs[i]
        digits = "".join([bin(top ^ rows[u]) for u in vs])
        starts = zip(range(2 * n + 5, len(digits), n + 3), vs)  # vs[j]'s digit in vs[j+1]'s string
        return int("".join([digits[s - u::n + 3] for s, u in starts]) or "0", 2)

    def rec(cells, d, placed, same_first, vs_best):
        # same_first: prefix equals the first leaf's; vs_best: sign of prefix - best;
        # False and -1 until the first leaf, so that no row is built on its path
        nonlocal first, best, first_order, best_order
        start = d  # lone candidates are placed in this frame; every return truncates back here
        while len(cells) < n - d:
            head, rest = cells[0], cells[1:]
            targets = head  # filtered cell by cell to the least count of out-neighbours
            for c in cells:
                if not targets & (targets - 1):
                    break
                least, m = n, targets
                while m:
                    low = m & -m
                    m ^= low
                    k = (c & rows[low.bit_length() - 1]).bit_count()
                    if k < least:
                        least, targets = k, low
                    elif k == least:
                        targets |= low
            low = targets & -targets
            rv = rows[low.bit_length() - 1]
            if same_first or vs_best == 0:  # a cut or a generator reads this row
                low_row, split = 0, []
                for c in (head ^ low, *rest):  # the least row and the first candidate's split
                    win = c & rv
                    low_row = (low_row << c.bit_count()) | ((1 << win.bit_count()) - 1)
                    if c != win:
                        split.append(c ^ win)
                    if win:
                        split.append(win)
                w = n - 1 - d  # row d's width; the later rows fill the code's low w*(w-1)/2 bits
                shift, mask = w * (w - 1) >> 1, (1 << w) - 1
                same_first = same_first and low_row == first >> shift & mask
                if vs_best == 0:
                    ref = best >> shift & mask
                    vs_best = (low_row > ref) - (low_row < ref)
                if not same_first and (group or vs_best > 0):
                    del order[start:]
                    return n
            else:  # the same split, without the row that no test reads
                split = []
                for c in (head ^ low, *rest):
                    win = c & rv
                    if c != win:
                        split.append(c ^ win)
                    if win:
                        split.append(win)
            if targets != low:
                break
            order.append(low.bit_length() - 1)
            cells, d, placed = split, d + 1, placed | low
        else:  # discrete: the rest of the labeling is fixed
            vs = [c.bit_length() - 1 for c in cells]
            if same_first or vs_best == 0:
                # rows d.. fill a code's low bits, and compare as their rows do one by one
                tail, mask = leaf_code(vs), (1 << (len(vs) * (len(vs) - 1) >> 1)) - 1
                same_first = same_first and tail == first & mask
                if vs_best == 0:
                    ref = best & mask
                    vs_best = (tail > ref) - (tail < ref)
                if not same_first and (group or vs_best > 0):
                    del order[start:]
                    return n
            order.extend(vs)
            jump = n
            if same_first or vs_best == 0:
                ref = first_order if same_first else best_order
                moved = sum(1 << a for a, b in zip(ref, order) if a != b)
                gens.append(([b for _, b in sorted(zip(ref, order))], moved))
                jump = next(i for i in range(n) if ref[i] != order[i])
            else:
                best, best_order = leaf_code(order), order.copy()
                if first is None:
                    first, first_order = best, best_order
            del order[start:]
            return jump
        explored = orbits = 0
        seen, jump = -1, n  # a jump to depth d or deeper resumes the loop here
        while targets and jump >= d:
            low = targets & -targets
            targets ^= low
            if explored:  # the first candidate's split was built with the least row
                if seen != len(gens):
                    seen = len(gens)
                    orbits = _orbit(explored, [g for g, moved in gens if not moved & placed])
                if low & orbits:
                    continue
                rv, split = rows[low.bit_length() - 1], []
                for c in (head ^ low, *rest):  # as the first candidate's split is built
                    win = c & rv
                    if c != win:
                        split.append(c ^ win)
                    if win:
                        split.append(win)
            before = best
            order.append(low.bit_length() - 1)
            jump = rec(split, d + 1, placed | low, same_first, vs_best)
            order.pop()
            if best != before:  # a new best below shares this prefix; if it is the first leaf, so does first
                vs_best, same_first = 0, same_first or before is None
            explored, orbits, seen = explored | low, orbits | low, -1
        del order[start:]
        return jump

    rec([full] if n else [], 0, 0, False, -1)
    return best, first_order, best_order, gens


def _cached_bits(rows: tuple[int, ...]) -> int:
    """Minimal row-major upper-triangle code over all relabelings, through
    ``_CANON_CACHE``, keyed by the rows tuple and cleared in place when full."""
    if rows not in _CANON_CACHE:
        if len(_CANON_CACHE) >= _CANON_CACHE_MAX:
            _CANON_CACHE.clear()
        _CANON_CACHE[rows] = _search(rows)[0]
    return _CANON_CACHE[rows]


def canonical_form(t: Tournament) -> CanonicalCode:
    """Canonical code; equal codes characterise isomorphic tournaments."""
    return CanonicalCode(t.n, _cached_bits(t.rows))


def tournament_from_code(code: CanonicalCode) -> Tournament:
    """Decode a canonical code back into a concrete tournament."""
    n, bits = _count(code.n, "n", None), _count(code.bits, "code bits", None)
    if n < 0:
        raise TournamentError("OUT_OF_RANGE", "negative vertex count")
    rows, pos = [0] * n, n * (n - 1) // 2
    if bits < 0 or bits >> pos:
        raise TournamentError("OUT_OF_RANGE", f"code bits outside 0..2**{pos}-1 for n={n}")
    for i in range(n):
        for j in range(i + 1, n):
            pos -= 1
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return Tournament(n, rows, validate=False)


def is_isomorphic(a: Tournament, b: Tournament) -> bool:
    return a.n == b.n and canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# embeddings

def find_embedding(pattern: Tournament, host: Tournament) -> list[int] | None:
    """Injective map preserving orientations, or None.

    Backtracking over host bitmask domains (Ullmann, J. ACM 23, 1976; the
    bitset domains of McCreesh, Prosser and Trimble's Glasgow Subgraph
    Solver, ICGT 2020).  A pattern vertex of score s may only go to a host
    vertex of score s to s + host.n - pattern.n; mapping u to v narrows each
    unplaced w to v's out- or in-neighbours, as u beats w or not, and a
    domain left empty rejects v.  The next vertex is the unplaced one with
    the fewest candidates, the least index on a tie, and its candidates are
    tried in ascending order, so the witness is the first such map found.
    """
    np_, nh = pattern.n, host.n
    if np_ > nh:
        return None
    prows, hrows = pattern.rows, host.rows
    by_score = [0] * nh
    for v, r in enumerate(hrows):
        by_score[r.bit_count()] |= 1 << v
    doms = [sum(by_score[s:s + nh - np_ + 1]) for s in (r.bit_count() for r in prows)]
    if not all(doms):
        return None
    hin = list(map(host.in_mask, range(nh)))
    image = [-1] * np_

    def rec(doms, todo):
        if not todo:
            return True
        u = min(todo, key=lambda w: doms[w].bit_count())
        rest = [w for w in todo if w != u]
        ru, m = prows[u], doms[u]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            out, inn = hrows[v], hin[v]
            new = doms.copy()
            for w in rest:
                d = new[w] & (out if ru >> w & 1 else inn)
                if not d:
                    break
                new[w] = d
            else:
                image[u] = v
                if rec(new, rest):
                    return True
        return False

    return image if rec(doms, list(range(np_))) else None


def embeds(pattern: Tournament, host: Tournament) -> bool:
    return find_embedding(pattern, host) is not None


def automorphism_count(t: Tournament) -> int:
    """Number of automorphisms by orbit-stabiliser: the product, along the
    search's first leaf, of each placed vertex's orbit size under the
    generators fixing the vertices placed before it.

    The search runs in group mode: it looks for no lex-min code and cuts
    every node whose rows leave the first leaf's.  Each automorphism maps
    the first leaf to a leaf with the same rows, whose path no such cut
    touches, so no automorphism is lost."""
    _, base, _, gens = _search(t.rows, group=True)
    count, placed = 1, 0
    for v in base:
        count *= _orbit(1 << v, [g for g, moved in gens if not moved & placed]).bit_count()
        placed |= 1 << v
    return count


def relabel(t: Tournament, perm) -> Tournament:
    """Image of t under the permutation perm (vertex i goes to perm[i])."""
    perm = list(perm)
    if sorted(perm) != list(range(t.n)) or bool in map(type, perm):
        raise TournamentError("OUT_OF_RANGE", "not a permutation of the vertices")
    rows = [0] * t.n
    for i, r in enumerate(t.rows):
        rows[perm[i]] = sum(1 << perm[j] for j in range(t.n) if (r >> j) & 1)
    return Tournament(t.n, rows, validate=False)
