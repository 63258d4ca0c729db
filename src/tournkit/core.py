"""Finite tournaments stored as dense bit matrices, plus the basic constructions."""

from __future__ import annotations

from dataclasses import dataclass


class TournamentError(ValueError):
    """Invalid construction or query; ``code`` is a stable machine-readable tag.

    ``details`` is structured data about the failure; budget and size errors
    give ``consumed``, ``limit`` and ``where`` (the entry point whose limit
    was hit)."""

    def __init__(self, code: str, message: str, details: dict | None = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.details = {} if details is None else details


class Tournament:
    """Tournament on vertices 0..n-1; rows[i] is the out-neighbour bitmask of i.

    ``rows`` is the only stored form.  Every other vertex beats i or is
    beaten by it, so i's in-neighbours are ``full ^ rows[i] ^ 1 << i``.
    ``validate=False`` is the caller's promise that the rows form a
    tournament, since only then does that identity hold."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows, validate: bool = True):
        self.n = n
        self.rows = tuple(rows)
        if validate:
            self._validate()

    def _validate(self):
        n = self.n
        if n < 0:
            raise TournamentError("OUT_OF_RANGE", "negative vertex count")
        if len(self.rows) != n:
            raise TournamentError("ARITY_MISMATCH", f"expected {n} rows, got {len(self.rows)}")
        full = (1 << n) - 1
        for i, r in enumerate(self.rows):
            if r & ~full:
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

    def __eq__(self, other):
        return isinstance(other, Tournament) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Tournament(n={self.n}, rows={self.rows!r})"


@dataclass(frozen=True, order=True)
class CanonicalCode:
    """Row-major upper-triangle bits of the lexicographically minimal relabeling."""

    n: int
    bits: int

    def bit_string(self) -> str:
        width = self.n * (self.n - 1) // 2
        return format(self.bits, f"0{width}b") if width else ""


ASCENDING = "asc"
DESCENDING = "desc"


@dataclass(frozen=True)
class ChainSpec:
    """A finite chain index: length vertices, ascending or descending orientation."""

    length: int
    orientation: str = ASCENDING

    def __post_init__(self):
        if self.length < 0:
            raise TournamentError("OUT_OF_RANGE", "chain length must be non-negative")
        if self.orientation not in (ASCENDING, DESCENDING):
            raise TournamentError("OUT_OF_RANGE", f"unknown orientation {self.orientation!r}")


def make_tournament(n: int, edges) -> Tournament:
    """Build a tournament from an explicit orientation of every pair."""
    if n < 0:
        raise TournamentError("OUT_OF_RANGE", "n must be non-negative")
    rows = [0] * n
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
    if length < 0:
        raise TournamentError("OUT_OF_RANGE", "chain length must be non-negative")
    if descending:
        rows = [((1 << i) - 1) for i in range(length)]
    else:
        full = (1 << length) - 1
        rows = [full ^ ((1 << (i + 1)) - 1) for i in range(length)]
    return Tournament(length, rows, validate=False)


def chain_tournament(spec: ChainSpec) -> Tournament:
    return chain(spec.length, descending=spec.orientation == DESCENDING)


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
    if vs and not (0 <= vs[0] and vs[-1] < t.n):
        raise TournamentError("OUT_OF_RANGE", f"vertices outside 0..{t.n - 1}")
    rows, b = [t.rows[i] for i in vs], t.n
    for a in reversed([-1] + vs):
        if b - a > 1:
            # keep the bits up to a, move those from b on down onto the gap a+1..b-1
            low = (1 << a + 1) - 1
            rows = [r & low | r >> b - a - 1 & ~low for r in rows]
        b = a
    return Tournament(len(vs), rows, validate=False)


def block_offsets(blocks) -> list[int]:
    """Start index of each block when blocks are laid out contiguously."""
    offs = [0]
    for b in blocks:
        offs.append(offs[-1] + b.n)
    return offs[:-1]


def lex_sum(d: Tournament, blocks) -> Tournament:
    """Replace vertex i of the index tournament d by blocks[i].

    Block vertex ranges are contiguous, in index order: block i occupies
    block_offsets(blocks)[i] .. block_offsets(blocks)[i] + blocks[i].n - 1.
    """
    blocks = list(blocks)
    if len(blocks) != d.n:
        raise TournamentError("ARITY_MISMATCH", f"index has {d.n} vertices, got {len(blocks)} blocks")
    offs = block_offsets(blocks)
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


def skew_product(spec: ChainSpec, x_set) -> Tournament:
    """Two copies of a chain, glued by the orientation rules selected in x_set.

    Vertex (chain position x, level i) gets index 2*x + i.  Each x_set entry
    ((s,i),(t,j)) orients pairs by position: s=t=0 means the within-position
    pair (levels i,j of one x), s=0,t=1 means pairs where the first position
    precedes the second in the chain, s=1,t=0 the reverse.  The selection must
    orient every pair exactly once, or NOT_A_TOURNAMENT is raised naming a
    pair that a repeated token orients twice, or else the first pair that
    ``Tournament`` finds missing or doubled.
    """
    pairs = [_resolve_generator(tok) for tok in sorted(x_set)]
    if any(s and t for (s, _), (t, _) in pairs):
        # both components at position 1 can never match a concrete pair
        raise TournamentError("NOT_A_TOURNAMENT", "generator covers no pair")
    c = chain_tournament(spec)
    rows = [0] * (2 * spec.length)
    for x in range(spec.length):
        # the positions paired with x: x itself, those x precedes, those preceding x
        reach = {(0, 0): 1 << x, (0, 1): c.rows[x], (1, 0): c.in_mask(x)}
        for (s, i), (t, j) in pairs:
            # joining the binary digits with "0" moves bit y to bit 2*y
            targets = int("0".join(format(reach[s, t], "b")), 2) << j
            if twice := rows[2 * x + i] & targets:
                # a repeated token; the OR below would hide it
                a, b = sorted((2 * x + i, (twice & -twice).bit_length() - 1))
                raise TournamentError("NOT_A_TOURNAMENT", f"pair ({a},{b}) is oriented twice", {"pair": (a, b)})
            rows[2 * x + i] |= targets
    return Tournament(2 * spec.length, rows)


def is_acyclic(t: Tournament) -> bool:
    """Transitive iff the out-degrees are a permutation of 0..n-1."""
    return sorted(r.bit_count() for r in t.rows) == list(range(t.n))


# ---------------------------------------------------------------------------
# canonical form

_CANON_CACHE: dict[tuple[int, ...], int] = {}


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


def _search(rows: tuple[int, ...]):
    """Lex-min code, the first and the best leaf's labelings, automorphism generators.

    Depth-first placement with an ordered partition of the unplaced vertices
    into bitmask cells, each homogeneous towards every placed vertex; the
    losers of the new vertex go first, which minimises its row.  Only the
    first cell's candidates with the least row are tried.  A row is, in cell
    order, one block of all-ones low bits per cell, as many as the candidate
    beats there, so the least rows are found by keeping, cell by cell, the
    candidates that beat the fewest, until one is left or the cells run out;
    the row is then built once.  Once every cell is a single vertex the rest
    of the labeling is fixed, and its rows are emitted in one loop.  A node
    above the best code and off the first leaf's code is cut.  A leaf equal
    to the first or best leaf gives an automorphism generator and a jump back
    to the two leaves' common ancestor.  A candidate in the orbit of an
    explored sibling under the generators fixing the placed vertices is skipped
    (McKay & Piperno, "Practical graph isomorphism, II", 2014).
    """
    n = len(rows)
    first = best = first_order = best_order = None
    gens: list[tuple[list[int], int]] = []  # (image of each vertex, moved vertices)
    cur: list[int] = []  # rows emitted so far
    order: list[int] = []  # vertices placed so far

    def rec(cells, d, placed, same_first, vs_best):
        # same_first: prefix equals the first leaf's; vs_best: sign of prefix - best
        nonlocal first, best, first_order, best_order
        if len(cells) == n - d:  # discrete: the rest of the labeling is fixed
            vs = [c.bit_length() - 1 for c in cells]
            for i, v in enumerate(vs):
                rv, row = rows[v], 0
                for u in vs[i + 1:]:
                    row = row << 1 | rv >> u & 1
                if first is not None:
                    same_first = same_first and row == first[d + i]
                    if vs_best == 0:
                        vs_best = (row > best[d + i]) - (row < best[d + i])
                    if vs_best > 0 and not same_first:
                        del cur[d:]
                        return n
                cur.append(row)
            order.extend(vs)
            jump = n
            if first is not None and (same_first or vs_best == 0):
                ref = first_order if same_first else best_order
                moved = sum(1 << a for a, b in zip(ref, order) if a != b)
                gens.append(([b for _, b in sorted(zip(ref, order))], moved))
                jump = next(i for i in range(n) if ref[i] != order[i])
            else:
                best, best_order = cur.copy(), order.copy()
                if first is None:
                    first, first_order = best, best_order
            del cur[d:], order[d:]
            return jump
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
        rv, low_row = rows[(targets & -targets).bit_length() - 1], 0
        for c in cells:
            low_row = (low_row << c.bit_count()) | ((1 << (c & rv).bit_count()) - 1)
        if first is not None:
            same_first = same_first and low_row == first[d]
            if vs_best == 0:
                vs_best = (low_row > best[d]) - (low_row < best[d])
            if vs_best > 0 and not same_first:
                return n
        cur.append(low_row)
        explored = orbits = 0
        seen, jump = -1, n  # a jump to depth d or deeper resumes the loop here
        while targets and jump >= d:
            low = targets & -targets
            targets ^= low
            if explored and seen != len(gens):
                seen = len(gens)
                orbits = _orbit(explored, [g for g, moved in gens if not moved & placed])
            if low & orbits:
                continue
            v = low.bit_length() - 1
            rv = rows[v]
            newcells = [x for c in (head ^ low, *rest) for x in (c & ~rv, c & rv) if x]
            before = best
            order.append(v)
            jump = rec(newcells, d + 1, placed | low, same_first, vs_best)
            order.pop()
            if best is not before:  # a new best below shares this prefix
                vs_best = 0
            explored, orbits, seen = explored | low, orbits | low, -1
        cur.pop()
        return jump

    rec([(1 << n) - 1] if n else [], 0, 0, True, -1)
    code = 0
    for d, rowbits in enumerate(best):
        code = (code << (n - 1 - d)) | rowbits
    return code, first_order, best_order, gens


def _cached_bits(rows: tuple[int, ...]) -> int:
    """Minimal row-major upper-triangle code over all relabelings, through
    ``_CANON_CACHE``, keyed by the rows tuple."""
    if rows not in _CANON_CACHE:
        _CANON_CACHE[rows] = _search(rows)[0]
    return _CANON_CACHE[rows]


def canonical_form(t: Tournament) -> CanonicalCode:
    """Canonical code; equal codes characterise isomorphic tournaments."""
    return CanonicalCode(t.n, _cached_bits(t.rows))


def tournament_from_code(code: CanonicalCode) -> Tournament:
    """Decode a canonical code back into a concrete tournament."""
    n = code.n
    rows = [0] * n
    pos = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            pos -= 1
            if (code.bits >> pos) & 1:
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
    canonical search's first leaf, of each placed vertex's orbit size under
    the generators fixing the vertices placed before it."""
    _, base, _, gens = _search(t.rows)
    count, placed = 1, 0
    for v in base:
        count *= _orbit(1 << v, [g for g, moved in gens if not moved & placed]).bit_count()
        placed |= 1 << v
    return count


def relabel(t: Tournament, perm) -> Tournament:
    """Image of t under the permutation perm (vertex i goes to perm[i])."""
    perm = list(perm)
    if sorted(perm) != list(range(t.n)):
        raise TournamentError("OUT_OF_RANGE", "not a permutation of the vertices")
    rows = [0] * t.n
    for i, r in enumerate(t.rows):
        rows[perm[i]] = sum(1 << perm[j] for j in range(t.n) if (r >> j) & 1)
    return Tournament(t.n, rows, validate=False)
