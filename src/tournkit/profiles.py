"""Census of induced subtournaments, sums of chains, and series fitting."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .core import Tournament, TournamentError, _cached_bits, _group, _search, restrict
from .decomp import acyclic_components

UNBOUNDED = None

DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class ProfileSeries:
    values: tuple[int, ...]


@dataclass(frozen=True)
class SumSpec:
    """A sum of chains over a finite index tournament.

    caps[i] is the chain length placed on index vertex i; UNBOUNDED (None)
    marks a chain that grows without bound.
    """

    index: Tournament
    caps: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.caps) != self.index.n:
            raise TournamentError("ARITY_MISMATCH", f"{self.index.n} index vertices, {len(self.caps)} caps")
        for c in self.caps:
            if c is not UNBOUNDED and c < 0:
                raise TournamentError("OUT_OF_RANGE", "caps must be non-negative or UNBOUNDED")


def _subset_codes(t: Tournament, lo: int, hi: int, budget: int) -> list[set[int]]:
    """Codes of the induced subtournaments with lo..hi vertices, by size.

    A census level by level over prefixes, each a set of members taken in
    increasing vertex order.  The rest of the search sees a prefix only
    through its state, three integers:

    - ``key``, the members' rows in member order (those of ``restrict``,
      the keys of ``_CANON_CACHE``), one field of hi+1 bits per member;
    - ``start``, the least next vertex;
    - ``proj``, the members that each candidate w >= start beats, in the
      (hi+1)-bit field of w.

    A child's state follows from these and ``t.rows`` in O(1) big-int
    operations, so prefixes with one state have the same subtree and each
    level keeps a set of distinct states; the last level, which nothing
    extends, keeps bare keys.  Prefixes that cannot reach lo vertices are
    cut, and each distinct key of a size in lo..hi is canonized once."""
    for k in range(lo, hi + 1):
        if comb(t.n, k) > budget:
            raise TournamentError("BUDGET_EXCEEDED", f"C({t.n},{k}) subsets exceed budget {budget}",
                                  {"consumed": comb(t.n, k), "limit": budget, "where": "profiles.subset_census"})
    n, width, codes = t.n, hi + 1, [set() for _ in range(hi + 1)]
    field, pad = (1 << width) - 1, "0" * (width - 1)
    above = [-1 << (u + 1) * width for u in range(n)]  # the fields after u's
    states = {(0, 0, 0)}  # (key, start, proj) of the empty prefix
    for k in range(hi + 1):
        if k >= lo:
            # level hi holds bare keys, unless it is the empty prefix's level
            keys = states if k == hi > 0 else {key for key, _, _ in states}
            codes[k] = {_cached_bits(tuple(key >> i * width & field for i in range(k))) for key in keys}
        if k == hi:
            break
        # (m * spread) & slots moves bit i of a k-bit mask m to bit i * width,
        # with no carries as k < width
        spread = sum(1 << j * (width - 1) for j in range(k))
        slots = sum(1 << i * width for i in range(k))
        last, members = k + 1 == hi, (1 << k) - 1
        # column[u]: bit k in the field of each vertex that beats u; width-1
        # zeros between the binary digits of in_mask(u) spread them to fields
        column = [] if last else [int(pad.join(format(t.in_mask(u), "b")), 2) << k for u in range(n)]
        children = set()
        for key, start, proj in states:
            for u in range(start, min(n, n + k + 1 - lo)):
                beaten = proj >> u * width & field
                child = key | beaten << k * width | ((members ^ beaten) * spread & slots) << k
                children.add(child if last else (child, u + 1, (proj | column[u]) & above[u]))
        states = children
    return codes


def profile_count(t: Tournament, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of isomorphism types among the n-vertex induced subtournaments."""
    if n < 0:
        raise TournamentError("OUT_OF_RANGE", "n must be non-negative")
    return len(_subset_codes(t, n, n, budget)[n]) if n <= t.n else 0


def profile_sequence(t: Tournament, n_max: int, budget: int = DEFAULT_BUDGET) -> ProfileSeries:
    if n_max < 0:
        raise TournamentError("OUT_OF_RANGE", "n_max must be non-negative")
    counts = tuple(len(codes) for codes in _subset_codes(t, 0, min(n_max, t.n), budget))
    return ProfileSeries(counts + (0,) * (n_max - t.n))


def sum_profile(spec: SumSpec, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Profile value of the (possibly unbounded) sum of chains at size n.

    A vector of per-index chain contributions summing to n gives the lex sum of
    the index restricted to the support S (the non-zero entries) with those
    chains.  An acyclic block of index|S carries a chain of its total weight,
    so the sum is Q[chains] for the acyclic quotient Q of index|S.  Q has no
    acyclic autonomous pair, so the maximal acyclic autonomous blocks of
    Q[chains] are exactly its chains: an acyclic autonomous set meeting two
    chains would project to one on at least 2 vertices of Q.  So two sums are
    isomorphic iff their quotients are, with block weights (read in Q's
    canonical order) in one orbit of Aut(Q).

    The weights S can give form a box: a block b takes every total in
    [|b|, sum of the caps on b], unbounded if one of them is.  So the types
    over one quotient class are the Aut(Q)-orbits of the union of the boxes
    of its supports and their images, and Burnside counts them at every size
    at once: the mean over sigma in Aut(Q) of the vectors fixed by sigma,
    which are constant on sigma's cycles.  With every cap unbounded each
    class has the single box {w >= 1}: one vertex per block of S is a support
    with the same quotient and only singleton blocks.  No contribution vector
    and no n-vertex tournament is built.
    """
    return _sum_profiles(spec, (n,), budget)[0]


def _sum_profiles(spec: SumSpec, sizes, budget: int) -> tuple[int, ...]:
    """``sum_profile`` at each of sizes, by one Burnside count per quotient class."""
    if spec.index.n > 8:
        raise TournamentError("INDEX_TOO_LARGE", f"index limited to 8 vertices, got {spec.index.n}",
                              {"consumed": spec.index.n, "limit": 8, "where": "profiles.sum_profile"})
    for n in sizes:
        if n < 0:
            raise TournamentError("OUT_OF_RANGE", "n must be non-negative")
        if _vector_count(spec.caps, n) > budget:
            raise TournamentError("BUDGET_EXCEEDED", f"more than {budget} contribution vectors",
                                  {"consumed": max(budget, 0) + 1, "limit": budget, "where": "profiles.sum_profile"})
    low, high = min(sizes), max(sizes)
    live = [v for v, c in enumerate(spec.caps) if c is UNBOUNDED or c > 0]
    classes = {}  # (|Q|, code of Q) -> (Aut(Q) on canonical positions, boxes there)
    for subset in range(1, 1 << len(live)):
        if subset.bit_count() > high:
            continue
        support = tuple(v for i, v in enumerate(live) if subset >> i & 1)
        blocks, q = _acyclic_blocks(spec.index, support)
        code, _, order, gens = _search(q.rows)
        if (q.n, code) not in classes:
            position = {v: i for i, v in enumerate(order)}
            group = _group([g for g, _ in gens], q.n)
            classes[q.n, code] = [tuple(position[g[v]] for v in order) for g in group], set()
        # each block's least and most total; no size above high needs more
        bounds = [(len(b), min(high, sum(high if spec.caps[v] is UNBOUNDED else spec.caps[v] for v in b)))
                  for b in blocks]
        classes[q.n, code][1].add(tuple(bounds[v] for v in order))
    found = {}
    for perms, boxes in classes.values():
        # the union is closed under Aut(Q); a box inside another adds nothing to it
        boxes = {tuple(box[i] for i in perm) for box in boxes for perm in perms}
        boxes = [a for a in boxes
                 if not any(a != b and all(bl <= al and ah <= bh for (al, ah), (bl, bh) in zip(a, b)) for b in boxes)]
        for total, orbits in _orbit_counts(perms, boxes, low, high).items():
            found[total] = found.get(total, 0) + orbits
    return tuple(found.get(n, 0) if n else 1 for n in sizes)


def _orbit_counts(perms, boxes, low: int, high: int) -> dict[int, int]:
    """Orbits of the group perms on the union of boxes, which it maps onto
    itself, by total in low..high: Burnside's mean of the vectors each fixes."""
    fixed = {}
    for perm in perms:
        for total, ways in _fixed_vectors(perm, boxes, low, high).items():
            fixed[total] = fixed.get(total, 0) + ways
    return {total: ways // len(perms) for total, ways in fixed.items()}


def _fixed_vectors(perm, boxes, low: int, high: int) -> dict[int, int]:
    """Vectors with totals in low..high, fixed by perm and in the union of boxes.

    A fixed vector is constant on perm's cycles, so it is chosen one cycle
    at a time: a state is (boxes still holding the vector, running total),
    and a value is tried only if the cycles after it, inside one of those
    boxes, can bring the total into low..high."""
    seen, cycles = set(), []
    for start in range(len(perm)):
        cycle = []
        while start not in seen:
            seen.add(start)
            cycle.append(start)
            start = perm[start]
        if cycle:
            cycles.append(cycle)
    spans = [[(max(box[p][0] for p in c), min(box[p][1] for p in c)) for c in cycles] for box in boxes]
    spans = [s for s in spans if all(lo <= hi for lo, hi in s)]
    tails = []  # per box and cycle j: least and most that cycles j.. add inside the box
    for s in spans:
        tail = [(0, 0)]
        for c, (lo, hi) in zip(reversed(cycles), reversed(s)):
            tail.append((tail[-1][0] + len(c) * lo, tail[-1][1] + len(c) * hi))
        tails.append(tail[::-1])
    states = {((1 << len(spans)) - 1, 0): 1}
    for j, cycle in enumerate(cycles):
        # runs of values over which the set of boxes allowing them is constant
        cuts = sorted({s[j][0] for s in spans} | {s[j][1] + 1 for s in spans})
        runs = [(a, b - 1, sum(1 << k for k, s in enumerate(spans) if s[j][0] <= a <= s[j][1]))
                for a, b in zip(cuts, cuts[1:])]
        size, reach, after = len(cycle), {}, {}
        for (mask, total), ways in states.items():
            for a, b, allowed in runs:
                both = mask & allowed
                if not both:
                    continue
                if both not in reach:
                    rest = [tails[k][j + 1] for k in range(len(spans)) if both >> k & 1]
                    reach[both] = min(r[0] for r in rest), max(r[1] for r in rest)
                least, most = reach[both]
                for x in range(max(a, -((total + most - low) // size)), min(b, (high - total - least) // size) + 1):
                    key = (both, total + size * x)
                    after[key] = after.get(key, 0) + ways
        states = after
    counts = {}
    for (_, total), ways in states.items():
        counts[total] = counts.get(total, 0) + ways
    return counts


def _acyclic_blocks(index: Tournament, support) -> tuple[tuple[tuple[int, ...], ...], Tournament]:
    """Acyclic blocks of index|support as index vertices, and their quotient."""
    d = acyclic_components(restrict(index, support))
    return tuple(tuple(support[v] for v in b) for b in d.blocks), d.quotient


def _vector_count(caps, total: int) -> int:
    """Number of contribution vectors under caps that sum to total: the
    coefficient of x^total in the product over v of 1 + x + ... + x^caps[v],
    which is prod over finite caps c > 0 of (1 - x^(c+1)), over (1 - x)^m
    for the m non-zero caps."""
    m = sum(1 for c in caps if c is UNBOUNDED or c > 0)
    numerator = {0: 1}
    for c in caps:
        if c is not UNBOUNDED and c > 0:
            shifted = dict(numerator)
            for e, a in numerator.items():
                shifted[e + c + 1] = shifted.get(e + c + 1, 0) - a
            numerator = shifted
    if not m:
        return int(total == 0)
    return sum(a * comb(total - e + m - 1, m - 1) for e, a in numerator.items() if e <= total)


def sum_profile_sequence(spec: SumSpec, n_max: int, budget: int = DEFAULT_BUDGET) -> ProfileSeries:
    if n_max < 0:
        raise TournamentError("OUT_OF_RANGE", "n_max must be non-negative")
    return ProfileSeries(_sum_profiles(spec, range(n_max + 1), budget))


def series_fit(series, k: int) -> list[int] | None:
    """Numerator of the generating series against a k-fold partition denominator.

    Multiplies the counting series by (1-x)(1-x^2)...(1-x^k) and accepts the
    result as a polynomial when the last max(k(k+1)/2, 1) coefficients vanish;
    returns its coefficients, or None when the tail is provably non-zero.
    A zero tail shorter than the window means the truncation cannot decide,
    so TOO_FEW_TERMS is raised instead of answering.
    """
    values = list(series.values if isinstance(series, ProfileSeries) else series)
    if k < 0:
        raise TournamentError("OUT_OF_RANGE", "k must be non-negative")
    window = max(k * (k + 1) // 2, 1)
    needed = max(2 * k + 4, window + 1)
    if len(values) < needed:
        raise TournamentError("TOO_FEW_TERMS", f"need at least {needed} terms, got {len(values)}")
    q = values
    for i in range(1, k + 1):
        q = [q[j] - (q[j - i] if j >= i else 0) for j in range(len(q))]
    if all(c == 0 for c in q[len(q) - window:]):
        while q and q[-1] == 0:
            q.pop()
        return q
    if q[-1] == 0:
        raise TournamentError("TOO_FEW_TERMS", "zero tail shorter than the stabilisation window")
    return None


def age_leq(a: Tournament, b: Tournament, n_max: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Every induced type of a up to size n_max also occurs in b."""
    top = min(n_max, a.n)
    # the first size that b lacks or the budget forbids decides if all below agree
    stop = next((n for n in range(top + 1) if n > b.n or max(comb(a.n, n), comb(b.n, n)) > budget), top + 1)
    if any(not x <= y for x, y in zip(_subset_codes(a, 0, stop - 1, budget), _subset_codes(b, 0, stop - 1, budget))):
        return False
    if stop <= min(top, b.n):  # over the budget: raise its error, a's first
        _subset_codes(a if comb(a.n, stop) > budget else b, stop, stop, budget)
    return stop > top


def growth_of_sum(spec: SumSpec) -> dict:
    """Polynomial growth data of an unbounded sum of chains.

    Index vertices with cap 0 are dropped; chains over one acyclic component
    of the index merge into a single chain, so p counts those components and
    k the components holding at least one unbounded cap.  The profile grows
    like n**(k-1).
    """
    blocks = _acyclic_blocks(spec.index, [i for i, c in enumerate(spec.caps) if c is UNBOUNDED or c > 0])[0]
    k = sum(1 for b in blocks if any(spec.caps[v] is UNBOUNDED for v in b))
    return {"p": len(blocks), "k": k, "degree": k - 1}


def stabilized_profile(build, n_max: int, limit: int | None = None,
                       budget: int = DEFAULT_BUDGET) -> tuple[list[int], tuple[int, int]]:
    """Profile of an increasing family, grown until two consecutive sizes agree.

    build(N) returns the N-th member, for N from 2 to limit.  Values are
    non-decreasing in N and constant once every type of size <= n_max fits,
    so agreement between N and N+1 is taken as stabilisation; both N values
    are returned.
    """
    if n_max < 0:
        raise TournamentError("OUT_OF_RANGE", "n_max must be non-negative")
    if limit is None:
        limit = n_max + 3
    prev = None
    prev_n = None
    for size in range(2, limit + 1):
        t = build(size)
        if t.n < n_max:
            continue
        vals = [len(codes) for codes in _subset_codes(t, 0, n_max, budget)]
        if prev is not None and vals == prev:
            return vals, (prev_n, size)
        prev, prev_n = vals, size
    raise TournamentError("BUDGET_EXCEEDED", f"no stabilisation up to size {limit}",
                          {"consumed": limit, "limit": limit, "where": "profiles.stabilized_profile"})
