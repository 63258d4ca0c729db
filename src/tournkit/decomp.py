"""Acyclic decomposition: separation witnesses, the strong-module tree, and
the acyclic components, primality and monomorphic parts read from it."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import or_

from .core import Tournament, TournamentError, canonical_form, lex_sum, restrict

THREE_CYCLE = "three_cycle"
DIAMOND = "diamond"
DOUBLE_DIAMOND = "double_diamond"
LINEAR, PRIME = "linear", "prime"  # the kinds of strong-module tree nodes


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
    # the strong-module tree the blocks were read from, as ``_strong_tree`` gives it
    tree: dict = field(compare=False, repr=False)


def is_autonomous(t: Tournament, subset) -> bool:
    """Every outside vertex relates uniformly to the whole subset."""
    mask = 0
    for v in subset:
        if not 0 <= v < t.n or type(v) is bool:
            raise TournamentError("OUT_OF_RANGE", f"vertex {v} outside 0..{t.n - 1}")
        mask |= 1 << v
    return all(t.rows[y] & mask in (0, mask) for y in range(t.n) if not mask >> y & 1)


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cycle_count(t: Tournament, members) -> int:
    """Number of 3-cycles within members (total triples minus transitive ones)."""
    mask, k = sum(1 << v for v in members), len(members)
    trans = sum(((t.rows[v] & mask).bit_count() * ((t.rows[v] & mask).bit_count() - 1)) // 2 for v in members)
    return k * (k - 1) * (k - 2) // 6 - trans


def _first_cycle_in(t: Tournament, mask: int) -> tuple[int, int, int] | None:
    return next((tri for tri in itertools.combinations(_bits(mask), 3) if _cycle_count(t, tri) == 1), None)


def separated(t: Tournament, x: int, y: int) -> SeparationWitness | None:
    """Witness that no acyclic autonomous set contains both x and y.

    Searched in order: a common 3-cycle, then a diamond through both, then a
    double diamond with x and y as its end vertices; ties break by vertex
    order.  Returns None when x and y do share an acyclic autonomous set.
    """
    if not (0 <= x < t.n and 0 <= y < t.n) or bool in (type(x), type(y)):
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


def _classes(masks) -> tuple[tuple[int, ...], ...]:
    """Disjoint bitmasks as vertex tuples, ordered by least vertex."""
    return tuple(tuple(_bits(m)) for m in sorted(masks, key=lambda m: m & -m))


def _strong_components(t: Tournament, mask: int) -> list[int]:
    """Strong components of t|mask, the dominating one first: each ends where
    the vertices so far in score order beat every later one."""
    cuts, seen, unbeaten = [0], 0, 0
    for v in sorted(_bits(mask), key=lambda v: (t.rows[v] & mask).bit_count(), reverse=True):
        seen, unbeaten = seen | 1 << v, unbeaten | ~t.rows[v]
        if not unbeaten & mask & ~seen:
            cuts.append(seen)
    return [b ^ a for a, b in zip(cuts, cuts[1:])]


def _reach(start: int, step: dict[int, int], within: int) -> int:
    """Vertices of within reachable from start, where step maps each vertex
    to the bitmask of its successors."""
    seen = frontier = start
    while frontier:
        succ = 0
        for r in _bits(frontier):
            succ |= step[r]
        frontier = succ & within & ~seen
        seen |= frontier
    return seen


def _least_partition(t: Tournament, mask: int):
    """P(mask, v): the maximal modules of t|mask that avoid its least vertex
    v, keyed by least vertex, the mask of those keys and the forcing relation
    both ways.  The parts partition the rest: a part is split by any vertex
    of mask outside it that beats some but not all of it.  A part P forces a
    part P' when P' splits v and P, i.e. v and P's least vertex differ
    towards P', so the least module holding v and P is v with every part
    reachable from P."""
    rows, low = t.rows, mask & -mask
    todo, parts = [mask ^ low], {}
    while todo:
        part = todo.pop()
        # the first member that some outside vertex z tells from the least
        # member ends the scan: z beats one of the two, so it splits part;
        # any splitter will do, as no split ever cuts a module
        out = mask ^ part
        first = rows[(part & -part).bit_length() - 1] & out
        for u in _bits(part):
            if differ := rows[u] & out ^ first:
                row = rows[(differ & -differ).bit_length() - 1]
                todo += (part & row, part & ~row)
                break
        else:
            parts[(part & -part).bit_length() - 1] = part
    reps, vrow = sum(1 << r for r in parts), rows[low.bit_length() - 1]
    forces = {r: (vrow ^ rows[r]) & reps for r in parts}
    # r' is forced by the parts whose representative meets it unlike v does
    forced_by = {r: reps & (rows[r] if vrow >> r & 1 else t.in_mask(r)) for r in parts}
    return parts, reps, forces, forced_by


def _condensation(forces: dict[int, int], forced_by: dict[int, int], live: int) -> list[int]:
    """Strong components of the forcing relation on the parts keyed in live,
    sources first (Kosaraju): a depth-first search along forces orders the
    parts by finishing time, and the last to finish of those left heads the
    component of the parts that force it."""
    order, stack, unseen = [], [], live
    while stack or unseen:
        if succ := (forces[stack[-1]] & unseen if stack else unseen):
            unseen ^= succ & -succ
            stack.append((succ & -succ).bit_length() - 1)
        else:
            order.append(stack.pop())
    components = []
    for r in reversed(order):
        if live >> r & 1:
            components.append(_reach(1 << r, forced_by, live))
            live ^= components[-1]
    return components


def _strong_tree(t: Tournament) -> dict[int, tuple[str, list[int]]]:
    """Each strong module (one overlapping no module) of 2+ vertices mapped to
    its kind and children: LINEAR with its strong components in condensation
    order, or, if strongly connected, PRIME with its maximal proper modules,
    which hold every smaller module.  Polynomial; singletons are leaves.

    A strongly connected M with least vertex v heads a chain of nested nodes
    holding v, all read from one P(M, v): the parts inside such a node C are
    P(C, v), as a module of the module C is a module of t|M and no part
    overlaps C (Ehrenfeucht, Gabow, McConnell and Sullivan, J. Algorithms 16,
    1994).  Each node's children other than the one holding v are a layer of
    the forcing relation's strong components: one component of 2+ parts for
    a PRIME node, one or two single parts, beating v's strong component or
    beaten by it, for a LINEAR one.  Each layer reaches every deeper one and
    no LINEAR node holds another, so the condensation, sources first, lists
    the layers in order, each run of single parts being one.  It costs one
    depth-first search and one ``_reach`` per component, O(p) steps on masks
    of the p parts; a chain of one node goes without it, as the root search
    below finds its one layer."""
    tree = {}
    todo = [(1 << t.n) - 1] if t.n != 1 else []
    while todo:
        node = todo.pop()
        children = _strong_components(t, node)
        if len(children) != 1:
            tree[node] = (LINEAR, children)
            todo += (c for c in children if c & (c - 1))
            continue
        parts, reps, forces, forced_by = _least_partition(t, node)
        unseen = reps
        for r in parts:  # the root of the last search over unseen parts reaches them all
            if unseen >> r & 1:
                root, unseen = r, unseen & ~_reach(1 << r, forces, unseen)
        first = _reach(1 << root, forced_by, reps)
        layers = [(PRIME, first)]
        if first != reps:  # key 0 groups the single parts of a LINEAR layer
            runs = itertools.groupby(_condensation(forces, forced_by, reps ^ first), lambda c: c & (c - 1) and c)
            layers += ((PRIME if key else LINEAR, reduce(or_, run)) for key, run in runs)
        for kind, layer in layers:
            modules = [parts[r] for r in _bits(layer)]
            inner = node ^ sum(modules)
            if kind == LINEAR:  # v's strong component after those beating it
                outer, vrow = node ^ inner, t.rows[(node & -node).bit_length() - 1]
                comps = _strong_components(t, outer) if outer & (outer - 1) else modules
                children = [c for c in comps if not c & vrow] + [inner] + [c for c in comps if c & vrow]
            else:
                children = sorted(modules + [inner])
            tree[node] = (kind, children)
            todo += (c for c in children if c & (c - 1) and c != inner)
            node = inner
    return tree


def acyclic_components(t: Tournament) -> Decomposition:
    """Partition into maximal acyclic autonomous blocks with the quotient.

    An acyclic module of 2+ vertices is a run of consecutive leaf children of
    a LINEAR node of the strong-module tree: the blocks are the maximal runs
    and the other vertices alone, by least vertex, and the quotient takes one
    vertex of each.  A failed self-check is a bug and raises
    INTERNAL_INCONSISTENCY.  Each law is checked on bitmasks of ``t.rows``,
    for k blocks:

    - the blocks partition the vertices: their masks' union equals their
      sum, which has every bit below n set, O(k) big-int steps;
    - a block b of 2+ vertices is acyclic, its members' scores inside its
      mask being 0..|b|-1, and autonomous, its members' rows agreeing
      outside its mask, O(|b|) steps; one vertex is both by definition;
    - the quotient is acyclically indecomposable: ``restrict`` to one vertex
      per block, O(k*min(k, n-k)) steps, then
      ``is_acyclically_indecomposable``, O(k) set lookups."""
    rows, full = t.rows, (1 << t.n) - 1
    tree = _strong_tree(t)
    runs = [reduce(or_, run) for kind, children in tree.values() if kind == LINEAR
            for leaf, run in itertools.groupby(children, lambda c: c & (c - 1) == 0) if leaf]
    masks = sorted(runs + [1 << v for v in _bits(full & ~reduce(or_, runs, 0))], key=lambda m: m & -m)
    if not reduce(or_, masks, 0) == sum(masks) == full:
        raise TournamentError("INTERNAL_INCONSISTENCY", "blocks do not partition the vertex set")
    blocks = _classes(masks)
    for m, b in zip(masks, blocks):
        if len(b) == 1:
            continue
        if sorted((rows[v] & m).bit_count() for v in b) != list(range(len(b))):
            raise TournamentError("INTERNAL_INCONSISTENCY", f"block {b} is not acyclic")
        if len({rows[v] & ~m for v in b}) != 1:
            raise TournamentError("INTERNAL_INCONSISTENCY", f"block {b} is not autonomous")
    quotient = restrict(t, [b[0] for b in blocks])
    if not is_acyclically_indecomposable(quotient):
        raise TournamentError("INTERNAL_INCONSISTENCY", "quotient has a non-trivial acyclic autonomous set")
    spectrum = tuple(sorted((len(b) for b in blocks), reverse=True))
    return Decomposition(blocks, quotient, spectrum, tree)


def spectrum(t: Tournament) -> tuple[int, ...]:
    """Block sizes of the acyclic decomposition, largest first."""
    return acyclic_components(t).spectrum


def is_acyclically_indecomposable(t: Tournament) -> bool:
    """No acyclic autonomous set has more than one element: no pair is
    autonomous, since two consecutive vertices of such a set form one.  With
    x -> y, the pair {x, y} is autonomous iff x and y agree on every other
    vertex, i.e. rows[x] == rows[y] | 1 << y: one set lookup per vertex."""
    rows = set(t.rows)
    return not any(r | 1 << y in rows for y, r in enumerate(t.rows))


def is_indecomposable(t: Tournament) -> bool:
    """No autonomous set strictly between one vertex and all of them."""
    return _is_prime(_strong_tree(t), t.n)


def _is_prime(tree, n: int) -> bool:
    """Up to 2 vertices, or a PRIME root whose children are all leaves."""
    return n <= 2 or tree[(1 << n) - 1] == (PRIME, [1 << v for v in range(n)])


def monomorphic_components(t: Tournament) -> tuple[tuple[int, ...], ...]:
    """Classes of the largest-monomorphic-part partition: two vertices share
    a part iff they lie in a common acyclic component, in an autonomous 3-cycle,
    or form a pair whose common-cycle set C is acyclic, the pair plus C autonomous."""
    return _monomorphic_classes(acyclic_components(t))


def _monomorphic_classes(d: Decomposition) -> tuple[tuple[int, ...], ...]:
    """``monomorphic_components`` of a decomposition: an autonomous 3-cycle, or
    pair with its C, is a PRIME node whose three children are blocks, two or
    three of them single vertices, which it joins; the rest are the blocks."""
    blocks = [sum(1 << v for v in b) for b in d.blocks]
    joined = []
    for kind, children in d.tree.values():
        leaves = [c for c in children if c & (c - 1) == 0]
        if kind == PRIME and len(children) == 3 and len(leaves) >= 2 and set(children) <= set(blocks):
            joined.append(reduce(or_, leaves))
    taken = reduce(or_, joined, 0)
    return _classes([m for m in blocks if not m & taken] + joined)


def _subset_code_table(t: Tournament):
    """Code bits of the induced subtournament on a vertex mask, memoized."""
    if t.n > 10:
        raise TournamentError("TOO_LARGE", f"oracle limited to 10 vertices, got {t.n}",
                              {"consumed": t.n, "limit": 10, "where": "decomp._subset_code_table"})
    return cache(lambda mask: canonical_form(restrict(t, list(_bits(mask)))).bits)


def _is_monomorphic_in(code, n: int, part: int) -> bool:
    """Definition-level check, on a ``_subset_code_table``, that swapping
    equal-size slices of part never changes the isomorphism type: for each
    set S outside part, the m-subsets of part give S one code for every m."""
    inner = [sub for sub in range(1, 1 << n) if sub & part == sub]
    for s in range(1 << n):
        ref = {}  # the code of each size of slice
        if not s & part and any(ref.setdefault(i.bit_count(), c := code(s | i)) != c for i in inner):
            return False
    return True


def reconstruct(d: Decomposition, t: Tournament) -> Tournament:
    """Lex sum of the quotient with the block restrictions, in block order."""
    return lex_sum(d.quotient, [restrict(t, b) for b in d.blocks])
