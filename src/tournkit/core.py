"""Finite tournaments stored as dense bit matrices, plus the basic constructions."""

from __future__ import annotations

from dataclasses import dataclass


class TournamentError(ValueError):
    """Invalid construction or query; ``code`` is a stable machine-readable tag."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class Tournament:
    """Tournament on vertices 0..n-1; rows[i] is the out-neighbour bitmask of i."""

    __slots__ = ("n", "rows", "_cols")

    def __init__(self, n: int, rows, validate: bool = True):
        self.n = n
        self.rows = tuple(rows)
        self._cols = None
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
            if self.rows[i] ^ cols[i] != full ^ (1 << i):
                raise TournamentError("NOT_A_TOURNAMENT", f"vertex {i}: some pair is missing or doubled")

    def _transpose(self):
        cols = [0] * self.n
        for i, r in enumerate(self.rows):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return tuple(cols)

    def edge(self, i: int, j: int) -> bool:
        """True when i beats j."""
        return bool((self.rows[i] >> j) & 1)

    def in_mask(self, i: int) -> int:
        if self._cols is None:
            self._cols = self._transpose()
        return self._cols[i]

    def out_degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def vertices(self) -> range:
        return range(self.n)

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
    seen = set()
    for x, y in edges:
        if not (0 <= x < n and 0 <= y < n):
            raise TournamentError("OUT_OF_RANGE", f"edge ({x},{y}) outside 0..{n - 1}")
        if x == y:
            raise TournamentError("SELF_LOOP", f"edge ({x},{x})")
        key = (x, y) if x < y else (y, x)
        if key in seen:
            raise TournamentError("DUPLICATE_PAIR", f"pair {{{key[0]},{key[1]}}} oriented twice")
        seen.add(key)
        rows[x] |= 1 << y
    want = n * (n - 1) // 2
    if len(seen) != want:
        raise TournamentError("MISSING_PAIR", f"{want - len(seen)} pair(s) left unoriented")
    return Tournament(n, rows, validate=False)


def chain(length: int, descending: bool = False) -> Tournament:
    """Transitive tournament: i beats j iff i < j (or i > j when descending)."""
    if descending:
        rows = [((1 << i) - 1) for i in range(length)]
    else:
        full = (1 << length) - 1
        rows = [full ^ ((1 << (i + 1)) - 1) for i in range(length)]
    return Tournament(length, rows, validate=False)


def chain_tournament(spec: ChainSpec) -> Tournament:
    return chain(spec.length, descending=spec.orientation == DESCENDING)


def cycle3() -> Tournament:
    return make_tournament(3, [(0, 1), (1, 2), (2, 0)])


def dual(t: Tournament) -> Tournament:
    """Reverse every edge."""
    return Tournament(t.n, t._transpose(), validate=False)


def restrict(t: Tournament, vertices) -> Tournament:
    """Induced subtournament on the given vertices, relabeled 0.. in ascending order."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < t.n):
        raise TournamentError("OUT_OF_RANGE", f"vertices outside 0..{t.n - 1}")
    rows = []
    for i in vs:
        r = t.rows[i]
        bits = 0
        for jj, j in enumerate(vs):
            bits |= ((r >> j) & 1) << jj
        rows.append(bits)
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
    total = offs[-1] + blocks[-1].n if blocks else 0
    rows = [0] * total
    for i, b in enumerate(blocks):
        o = offs[i]
        for u in range(b.n):
            rows[o + u] = b.rows[u] << o
    for i in range(d.n):
        for j in range(d.n):
            if i != j and d.edge(i, j):
                mask_j = ((1 << blocks[j].n) - 1) << offs[j]
                for u in range(blocks[i].n):
                    rows[offs[i] + u] |= mask_j
    return Tournament(total, rows, validate=False)


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
    orient every pair exactly once or NOT_A_TOURNAMENT is raised.
    """
    pairs = [_resolve_generator(tok) for tok in sorted(x_set)]
    length = spec.length
    c = chain_tournament(spec)
    edges = []
    for (s, i), (t, j) in pairs:
        if s == 0 and t == 0:
            edges.extend(((2 * x + i, 2 * x + j) for x in range(length)))
        elif s == 0 and t == 1:
            edges.extend((2 * x + i, 2 * y + j) for x in range(length) for y in range(length) if c.edge(x, y))
        elif s == 1 and t == 0:
            edges.extend((2 * x + i, 2 * y + j) for x in range(length) for y in range(length) if c.edge(y, x))
        else:
            # both components at position 1 can never match a concrete pair
            raise TournamentError("NOT_A_TOURNAMENT", "generator covers no pair")
    try:
        return make_tournament(2 * length, edges)
    except TournamentError as exc:
        raise TournamentError("NOT_A_TOURNAMENT", f"selection does not orient every pair once ({exc.code})") from exc


def is_acyclic(t: Tournament) -> bool:
    """Transitive iff the out-degrees are a permutation of 0..n-1."""
    return sorted(r.bit_count() for r in t.rows) == list(range(t.n))


# ---------------------------------------------------------------------------
# canonical form

_CANON_CACHE: dict[tuple[int, ...], int] = {}


def _canonical_bits(rows: tuple[int, ...]) -> int:
    """Minimal row-major upper-triangle code over all relabelings.

    Depth-first placement with an ordered partition of the unplaced vertices.
    Cells stay homogeneous towards every placed vertex, so the rows emitted so
    far are fully determined; candidate rows are compared against the current
    best prefix and losing branches are cut.  Within a refinement the losers
    of the new vertex go first: that minimises the emitted row and cannot
    affect earlier ones.
    """
    n = len(rows)
    if n <= 1:
        return 0
    best: list[int] | None = None

    def rec(cells, cur):
        nonlocal best
        d = len(cur)
        if d == n:
            code = cur.copy()
            if best is None or code < best:
                best = code
            return
        first = cells[0]
        cand = []
        for v in first:
            rv = rows[v]
            newcells = []
            rowbits = 0
            rest = tuple(u for u in first if u != v)
            for cell in (rest,) + cells[1:]:
                if not cell:
                    continue
                ins = tuple(u for u in cell if not (rv >> u) & 1)
                outs = tuple(u for u in cell if (rv >> u) & 1)
                if ins:
                    rowbits <<= len(ins)
                    newcells.append(ins)
                if outs:
                    rowbits = (rowbits << len(outs)) | ((1 << len(outs)) - 1)
                    newcells.append(outs)
            cand.append((rowbits, v, tuple(newcells)))
        cand.sort(key=lambda item: item[0])
        for rowbits, _v, newcells in cand:
            if best is not None:
                rel = 0  # fresh prefix comparison; best can move between iterations
                for i in range(d):
                    if cur[i] != best[i]:
                        rel = -1 if cur[i] < best[i] else 1
                        break
                if rel == 1:
                    break
                if rel == 0 and rowbits > best[d]:
                    break
            cur.append(rowbits)
            rec(newcells, cur)
            cur.pop()

    rec((tuple(range(n)),), [])
    assert best is not None
    code = 0
    for d, rowbits in enumerate(best):
        code = (code << (n - 1 - d)) | rowbits
    return code


def canonical_form(t: Tournament) -> CanonicalCode:
    """Canonical code; equal codes characterise isomorphic tournaments."""
    cached = _CANON_CACHE.get(t.rows)
    if cached is None:
        cached = _canonical_bits(t.rows)
        _CANON_CACHE[t.rows] = cached
    return CanonicalCode(t.n, cached)


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

    Backtracking with per-vertex candidate bitmasks: candidates are filtered
    by out/in-degree feasibility up front and narrowed after each placement;
    the next pattern vertex is always one with the fewest candidates left.
    Deterministic: ties and candidate order are by vertex index.
    """
    np_, nh = pattern.n, host.n
    if np_ > nh:
        return None
    if np_ == 0:
        return []
    hout = [r.bit_count() for r in host.rows]
    cand = []
    for u in range(np_):
        po, pi = pattern.out_degree(u), np_ - 1 - pattern.out_degree(u)
        m = 0
        for v in range(nh):
            if hout[v] >= po and nh - 1 - hout[v] >= pi:
                m |= 1 << v
        if m == 0:
            return None
        cand.append(m)
    host.in_mask(0)  # force transpose
    assigned = [-1] * np_

    def rec(cands, remaining):
        if not remaining:
            return True
        u = min(remaining, key=lambda w: cands[w].bit_count())
        rest = remaining - {u}
        m = cands[u]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            new = dict(cands)
            ok = True
            for w in rest:
                narrowed = cands[w] & (host.rows[v] if pattern.edge(u, w) else host.in_mask(v))
                if narrowed == 0:
                    ok = False
                    break
                new[w] = narrowed
            if ok:
                assigned[u] = v
                if rec(new, rest):
                    return True
                assigned[u] = -1
        return False

    if rec(dict(enumerate(cand)), set(range(np_))):
        return assigned
    return None


def embeds(pattern: Tournament, host: Tournament) -> bool:
    return find_embedding(pattern, host) is not None


def automorphism_count(t: Tournament) -> int:
    """Number of self-embeddings."""
    n = t.n
    if n == 0:
        return 1
    out = [r.bit_count() for r in t.rows]
    cand = []
    for u in range(n):
        m = 0
        for v in range(n):
            if out[v] == out[u]:
                m |= 1 << v
        cand.append(m)
    t.in_mask(0)
    count = 0

    def rec(cands, remaining):
        nonlocal count
        if not remaining:
            count += 1
            return
        u = min(remaining, key=lambda w: cands[w].bit_count())
        rest = remaining - {u}
        m = cands[u]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            new = dict(cands)
            ok = True
            for w in rest:
                narrowed = cands[w] & (t.rows[v] if t.edge(u, w) else t.in_mask(v))
                if narrowed == 0:
                    ok = False
                    break
                new[w] = narrowed
            if ok:
                rec(new, rest)

    rec(dict(enumerate(cand)), set(range(n)))
    return count


def relabel(t: Tournament, perm) -> Tournament:
    """Image of t under the permutation perm (vertex i goes to perm[i])."""
    perm = list(perm)
    if sorted(perm) != list(range(t.n)):
        raise TournamentError("OUT_OF_RANGE", "not a permutation of the vertices")
    rows = [0] * t.n
    for i in range(t.n):
        r = t.rows[i]
        bits = 0
        while r:
            low = r & -r
            bits |= 1 << perm[low.bit_length() - 1]
            r ^= low
        rows[perm[i]] = bits
    return Tournament(t.n, rows, validate=False)
