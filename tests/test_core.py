import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tournkit.core import (
    CanonicalCode,
    ChainSpec,
    Tournament,
    TournamentError,
    _group,
    _orbit,
    _search,
    automorphism_count,
    canonical_form,
    chain,
    cycle3,
    dual,
    embeds,
    find_embedding,
    is_acyclic,
    is_isomorphic,
    lex_sum,
    make_tournament,
    relabel,
    restrict,
    skew_product,
    tournament_from_code,
)
from tournkit.families import KINDS, WITNESS_NAMES, checked_family, family, witness
from tournkit.verify import enumerate_tournaments

from conftest import all_labeled_tournaments, random_tournament


@st.composite
def tournaments(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    rows = [0] * n
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (bits >> idx) & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
            idx += 1
    return Tournament(n, rows)


def diamond(apex_dominates=True):
    # 3-cycle {0,1,2} plus apex 3; exactly one 3-cycle either way
    cyc = [(0, 1), (1, 2), (2, 0)]
    if apex_dominates:
        return make_tournament(4, cyc + [(3, 0), (3, 1), (3, 2)])
    return make_tournament(4, cyc + [(0, 3), (1, 3), (2, 3)])


class TestConstruction:
    def test_cycle3(self):
        t = cycle3()
        assert t.n == 3
        assert t.edge(0, 1) and t.edge(1, 2) and t.edge(2, 0)

    def test_make_two_chain(self):
        t = make_tournament(2, [(0, 1)])
        assert t.edge(0, 1) and not t.edge(1, 0)

    def test_missing_pair(self):
        with pytest.raises(TournamentError) as e:
            make_tournament(3, [(0, 1), (1, 2)])
        assert e.value.code == "MISSING_PAIR"

    def test_duplicate_pair(self):
        with pytest.raises(TournamentError) as e:
            make_tournament(2, [(0, 1), (1, 0)])
        assert e.value.code == "DUPLICATE_PAIR"

    def test_self_loop(self):
        with pytest.raises(TournamentError) as e:
            make_tournament(2, [(0, 0), (0, 1)])
        assert e.value.code == "SELF_LOOP"

    def test_out_of_range(self):
        with pytest.raises(TournamentError) as e:
            make_tournament(2, [(0, 2), (0, 1)])
        assert e.value.code == "OUT_OF_RANGE"

    def test_value_methods(self):
        t = Tournament(3, [2, 4, 1])
        assert repr(t) == "Tournament(n=3, rows=(2, 4, 1))"
        assert t == cycle3() and not t != cycle3()
        assert t != dual(t) and t != Tournament(2, (2, 0)) and t != (3, (2, 4, 1))
        assert hash(t) == hash((3, (2, 4, 1))) == hash(cycle3())
        assert {t, cycle3(), dual(t), dual(dual(t))} == {t, dual(t)}
        assert t in {cycle3()} and dual(t) not in {cycle3()}
        assert not hasattr(t, "__dict__")

    def test_immutable(self):
        t = Tournament(3, [2, 4, 1])
        members = {t}
        for name, value in (("rows", (4, 1, 2)), ("n", 4)):
            with pytest.raises(AttributeError):
                setattr(t, name, value)
        assert t.n == 3 and t.rows == (2, 4, 1)
        assert hash(t) == hash((3, (2, 4, 1)))
        assert t in members and cycle3() in members

    def test_empty_tournament(self):
        t = make_tournament(0, [])
        assert t.n == 0

    def test_chain_is_acyclic(self):
        for n in range(1, 8):
            assert is_acyclic(chain(n))

    @pytest.mark.parametrize("descending", [False, True])
    def test_chain_negative_length(self, descending):
        with pytest.raises(TournamentError) as e:
            chain(-2, descending=descending)
        assert e.value.code == "OUT_OF_RANGE"
        assert str(e.value) == "OUT_OF_RANGE: chain length must be non-negative"

    def test_chain_tournament_descending(self):
        t = chain(4, descending=True)
        assert t.edge(3, 0)
        assert is_acyclic(t)


def oracle_first_bad_pair(rows) -> tuple[int, int] | None:
    """The pair loop: the first pair (i, j), i < j, that rows orient twice or never."""
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i] >> j & 1) == (rows[j] >> i & 1):
                return (i, j)
    return None


class TestValidate:
    @pytest.mark.parametrize("broken", [1, 2])
    def test_details_pair_matches_pair_loop(self, broken):
        rng = random.Random(7300 + broken)
        for _ in range(300):
            n = rng.randint(3, 14)
            rows = list(random_tournament(rng, n).rows)
            for i, j in rng.sample(list(itertools.combinations(range(n), 2)), broken):
                if rng.getrandbits(1):
                    i, j = j, i
                rows[i] ^= 1 << j
            with pytest.raises(TournamentError) as e:
                Tournament(n, rows)
            assert e.value.code == "NOT_A_TOURNAMENT"
            assert e.value.details == {"pair": oracle_first_bad_pair(rows)}


class TestDualRestrict:
    def test_dual_involution(self, rng):
        for _ in range(50):
            t = random_tournament(rng, rng.randint(1, 9))
            assert dual(dual(t)) == t

    def test_dual_reverses_edges_and_shares_columns(self, rng):
        for n in range(9):
            t = random_tournament(rng, n)
            d = dual(t)
            assert all(d.edge(j, i) == t.edge(i, j) for i in range(n) for j in range(n) if i != j)
            assert all(d.in_mask(i) == t.rows[i] for i in range(n))
            assert d == Tournament(n, d.rows)  # validates it as a tournament

    def test_dual_cycle3(self):
        assert is_isomorphic(dual(cycle3()), cycle3())

    def test_dual_chain(self):
        assert is_isomorphic(dual(chain(3)), chain(3))

    def test_restrict_two_of_cycle(self):
        r = restrict(cycle3(), [0, 1])
        assert r.n == 2 and r.edge(0, 1)

    def test_restrict_identity(self, rng):
        t = random_tournament(rng, 6)
        assert restrict(t, range(6)) == t

    def test_restrict_diamond_cycle(self):
        assert is_isomorphic(restrict(diamond(), [0, 1, 2]), cycle3())

    def test_restrict_commutes_with_dual(self, rng):
        for _ in range(30):
            t = random_tournament(rng, 7)
            sub = sorted(rng.sample(range(7), 4))
            assert dual(restrict(t, sub)) == restrict(dual(t), sub)

    def test_restrict_out_of_range(self):
        with pytest.raises(TournamentError) as e:
            restrict(cycle3(), [0, 5])
        assert e.value.code == "OUT_OF_RANGE"

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 40])
    def test_restrict_matches_bit_gather(self, rng, n):
        # every size of kept set, so from one gap of dropped vertices up to
        # min(k+1, n-k) of them
        t = random_tournament(rng, n)
        for k in range(n + 1):
            for _ in range(3):
                sub = rng.sample(range(n), k)
                assert restrict(t, sub).rows == oracle_restrict_rows(t, sub)

    def test_restrict_matches_bit_gather_on_families(self, rng):
        for kind in KINDS:
            t = family(kind, 12)
            for k in (1, t.n // 2, t.n // 2 + 1, t.n - 1, t.n):
                sub = rng.sample(range(t.n), k)
                assert restrict(t, sub).rows == oracle_restrict_rows(t, sub)

    @pytest.mark.parametrize("n", range(11))
    def test_restrict_matches_bit_gather_on_every_kept_set(self, rng, n):
        # each kept set is a distinct pattern of gaps
        t = random_tournament(rng, n)
        for mask in range(1 << n):
            sub = [v for v in range(n) if mask >> v & 1]
            assert restrict(t, sub).rows == oracle_restrict_rows(t, sub)

    def test_restrict_matches_bit_gather_at_320(self, rng):
        # one vertex, all but one and all: one or two gaps, each up to 319 wide
        n = 320
        t = random_tournament(rng, n)
        for v in (0, 1, 160, n - 2, n - 1):
            for sub in ([v], [u for u in range(n) if u != v]):
                assert restrict(t, sub).rows == oracle_restrict_rows(t, sub)
        assert restrict(t, range(n)).rows == oracle_restrict_rows(t, range(n)) == t.rows


def oracle_restrict_rows(t: Tournament, vertices) -> tuple[int, ...]:
    """The kept bits gathered one by one, the reference for the gap shifts of
    ``restrict`` on every kept set."""
    vs = sorted(set(vertices))
    return tuple(sum(((t.rows[i] >> j) & 1) << jj for jj, j in enumerate(vs)) for i in vs)


def oracle_transpose(t: Tournament) -> tuple[int, ...]:
    """The edge-by-edge loop that string columns replaced."""
    cols = [0] * t.n
    for i, r in enumerate(t.rows):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return tuple(cols)


def columns_three_ways(t: Tournament) -> list[tuple[int, ...]]:
    """The string transpose, the complement in-masks and the dual's rows."""
    return [t._transpose(), tuple(t.in_mask(i) for i in range(t.n)), dual(t).rows]


class TestTranspose:
    def test_matches_edge_loop_on_every_small_class(self):
        for n in range(7):
            for t in enumerate_tournaments(n):
                assert columns_three_ways(t) == [oracle_transpose(t)] * 3

    @pytest.mark.parametrize("n", [0, 1, 40, 200])
    def test_matches_edge_loop_on_random(self, rng, n):
        for _ in range(3):
            t = random_tournament(rng, n)
            assert columns_three_ways(t) == [oracle_transpose(t)] * 3


class TestLexSum:
    def test_chains_compose(self):
        t = lex_sum(chain(2), [chain(2), chain(3)])
        assert t.n == 5 and is_acyclic(t)

    def test_blown_up_cycle_all_blocks_cyclic(self):
        t = lex_sum(cycle3(), [cycle3()] * 3)
        assert t.n == 9
        assert not is_acyclic(t)
        # every cross-block pair follows the index cycle
        assert t.edge(0, 3) and t.edge(3, 6) and t.edge(6, 0)

    def test_two_chain_of_cycles(self):
        t = lex_sum(chain(2), [cycle3(), cycle3()])
        assert t.n == 6
        assert all(t.edge(i, j) for i in range(3) for j in range(3, 6))

    def test_arity_mismatch(self):
        with pytest.raises(TournamentError) as e:
            lex_sum(chain(2), [cycle3()])
        assert e.value.code == "ARITY_MISMATCH"


class TestSkewProduct:
    def test_chain1_gives_two_chain(self):
        t = skew_product(ChainSpec(1, "asc"), {"h0", "h1", "v0", "d0", "d1"})
        assert t.n == 2 and t.edge(0, 1)

    def test_uncovered_pairs_rejected(self):
        with pytest.raises(TournamentError) as e:
            skew_product(ChainSpec(2, "asc"), {"h0", "v0"})
        assert e.value.code == "NOT_A_TOURNAMENT"

    def test_doubly_covered_rejected(self):
        with pytest.raises(TournamentError) as e:
            skew_product(ChainSpec(2, "asc"), {"h0", "h0^-1", "h1", "v0", "d0", "d1"})
        assert e.value.code == "NOT_A_TOURNAMENT"


class TestAcyclic:
    def test_cycle_not_acyclic(self):
        assert not is_acyclic(cycle3())

    def test_diamond_not_acyclic(self):
        assert not is_acyclic(diamond())

    def test_matches_triple_scan(self, rng):
        from itertools import combinations

        for _ in range(40):
            t = random_tournament(rng, rng.randint(1, 7))
            brute = all(
                len({(a, b), (b, c), (c, a)} & {(x, y) for x in (a, b, c) for y in (a, b, c) if t.edge(x, y)}) != 3
                and len({(b, a), (c, b), (a, c)} & {(x, y) for x in (a, b, c) for y in (a, b, c) if t.edge(x, y)}) != 3
                for a, b, c in combinations(range(t.n), 3)
            )
            assert is_acyclic(t) == brute


class TestCanonical:
    @settings(max_examples=150, deadline=None)
    @given(tournaments(), st.randoms(use_true_random=False))
    def test_relabel_invariance(self, t, r):
        perm = list(range(t.n))
        r.shuffle(perm)
        assert canonical_form(relabel(t, perm)) == canonical_form(t)

    def test_code_roundtrip(self, rng):
        for _ in range(40):
            t = random_tournament(rng, rng.randint(1, 8))
            code = canonical_form(t)
            back = tournament_from_code(code)
            assert canonical_form(back) == code

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 12)])
    def test_labeled_census(self, n, count):
        codes = {canonical_form(t) for t in all_labeled_tournaments(n)}
        assert len(codes) == count


class TestEmbedding:
    def test_cycle_in_blowup(self):
        assert embeds(cycle3(), lex_sum(chain(2), [cycle3(), cycle3()]))

    def test_chain3_not_in_cycle(self):
        assert not embeds(chain(3), cycle3())

    def test_witness_is_induced(self, rng):
        for _ in range(40):
            host = random_tournament(rng, 9)
            pat = random_tournament(rng, 4)
            m = find_embedding(pat, host)
            if m is not None:
                for i in range(4):
                    for j in range(4):
                        if i != j:
                            assert pat.edge(i, j) == host.edge(m[i], m[j])

    def test_reflexive(self, rng):
        t = random_tournament(rng, 7)
        assert embeds(t, t)

    def test_transitive_on_pool(self, rng):
        pool = [random_tournament(rng, k) for k in (3, 4, 5, 6) for _ in range(3)]
        rel = {(a, b) for a in range(len(pool)) for b in range(len(pool)) if embeds(pool[a], pool[b])}
        for a, b in rel:
            for c in range(len(pool)):
                if (b, c) in rel:
                    assert (a, c) in rel

    def test_equal_size_embedding_is_isomorphism(self, rng):
        for _ in range(60):
            a = random_tournament(rng, 5)
            b = random_tournament(rng, 5)
            assert embeds(a, b) == (canonical_form(a) == canonical_form(b))

    def test_deterministic_witness(self, rng):
        host = random_tournament(rng, 10)
        assert find_embedding(cycle3(), host) == find_embedding(cycle3(), host)


class TestAutomorphisms:
    def test_cycle(self):
        assert automorphism_count(cycle3()) == 3

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_chains_rigid(self, n):
        assert automorphism_count(chain(n)) == 1

    def test_blowup_group(self):
        # two interchangeable cyclic blocks around a cyclic quotient: 3*3*... tau1 has
        # block rotations only, no block swap (order matters in the 2-chain)
        t = lex_sum(chain(2), [cycle3(), cycle3()])
        assert automorphism_count(t) == 9

    def test_count_matches_orbit_size(self, rng):
        # |labelings| = n! / |Aut| for each class; spot check via burnside-free count
        import math

        for n in range(1, 6):
            classes = {}
            for t in all_labeled_tournaments(n):
                classes.setdefault(canonical_form(t), t)
            total = 0
            for rep in classes.values():
                total += math.factorial(n) // automorphism_count(rep)
            assert total == 2 ** (n * (n - 1) // 2)


# ---------------------------------------------------------------------------
# oracles: the canonical search and the automorphism count as they were
# before orbit pruning, kept verbatim


def oracle_canonical_bits(rows: tuple[int, ...]) -> int:
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
                rel = 0
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
    code = 0
    for d, rowbits in enumerate(best):
        code = (code << (n - 1 - d)) | rowbits
    return code


def oracle_automorphism_count(t: Tournament) -> int:
    n = t.n
    if n == 0:
        return 1
    out = [r.bit_count() for r in t.rows]
    cand = [sum(1 << v for v in range(n) if out[v] == out[u]) for u in range(n)]
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


# the orbit-pruned search as it was before the per-cell candidate filter and
# the discrete tail, kept verbatim


def oracle_search(rows: tuple[int, ...]):
    """Lex-min code, the first and the best leaf's labelings, automorphism generators.

    Depth-first placement with an ordered partition of the unplaced vertices
    into bitmask cells, each homogeneous towards every placed vertex; the
    losers of the new vertex go first, which minimises its row.  Only the
    first cell's candidates with the least row are tried; a node above the
    best code and off the first leaf's code is cut.  A leaf equal to the
    first or best leaf gives an automorphism generator and a jump back to
    the two leaves' common ancestor.  A candidate in the orbit of an explored
    sibling under the generators fixing the placed vertices is skipped
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
        if d == n:
            if first is not None and (same_first or vs_best == 0):
                ref = first_order if same_first else best_order
                moved = sum(1 << a for a, b in zip(ref, order) if a != b)
                gens.append(([b for _, b in sorted(zip(ref, order))], moved))
                return next(i for i in range(n) if ref[i] != order[i])
            best, best_order = cur.copy(), order.copy()
            if first is None:
                first, first_order = best, best_order
            return n
        head, rest = cells[0], cells[1:]
        low_row, targets = -1, 0
        m = head
        while m:
            low = m & -m
            m ^= low
            rv = rows[low.bit_length() - 1]
            row = (1 << (head & rv).bit_count()) - 1
            for c in rest:
                row = (row << c.bit_count()) | ((1 << (c & rv).bit_count()) - 1)
            if low_row < 0 or row < low_row:
                low_row, targets = row, low
            elif row == low_row:
                targets |= low
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

    rec([(1 << n) - 1], 0, 0, True, -1)
    code = 0
    for d, rowbits in enumerate(best):
        code = (code << (n - 1 - d)) | rowbits
    return code, first_order, best_order, gens


def paley(q: int) -> Tournament:
    """Paley tournament on Z_q (q prime, q = 3 mod 4): i beats j iff j - i is a square."""
    squares = {x * x % q for x in range(1, q)}
    return Tournament(q, [sum(1 << j for j in range(q) if (j - i) % q in squares) for i in range(q)])


# Codes of the unpruned search above, computed once; it needs from 1 s
# (c3 over 8) to about 100 s (c3 over 12) for these.
PINNED_CODES = {
    ("c3", 8): "20000000000c00004000380006000f0007003e00780fc07c3f87eff7ffffffff",
    ("c3", 9): "20000000000030000020000380000c0003c00038003e000f003f003e03f80fc3fc3fbfefffffffffff",
    ("c3", 10): "40000000000001800000200000700000300001e0000380007c0003c001f8003e007f003f01fe03f87fc3fdffbfffffffffffff",
    ("c3", 11): (
        "100000000000000180000004000001c000001800001e00000700001f00001e0001f80007c001fc001f801fe007f01ff01fe1ff87fdf"
        "fdffffffffffffffff"),
    ("c3", 12): (
        "80000000000000003000000010000000e00000018000003c000001c00000f800001e00003f00001f0000fe0001f8003f"
        "c001fc00ff801fe03ff01ff0ffe1ffbffdfffffffffffffffffff"),
    ("paley", 43): (
        "3ffffe007fe003ff0387e1fc070b70dc3872545c9327c2146be213943812c72f30695589baa305f28a34dc29c3646cf6"
        "07266e614434a5f12ac378b1571522d6d89628472b2a78f0728d3e502e0a5db9470b384d5949d4c8be6c44fb5e04cd7a"
        "e82ed322a5ae94929b19364666d82"),
}


def relabeled(t: Tournament, r: random.Random) -> Tournament:
    perm = list(range(t.n))
    r.shuffle(perm)
    return relabel(t, perm)


class TestCanonicalOracle:
    def test_all_classes_up_to_7(self, rng):
        for n in range(8):
            for t in enumerate_tournaments(n):
                want = oracle_canonical_bits(t.rows)
                assert canonical_form(t).bits == want
                for _ in range(2):
                    assert canonical_form(relabeled(t, rng)).bits == want

    @settings(max_examples=60, deadline=None)
    @given(tournaments(max_n=40))
    def test_random_inputs(self, t):
        assert canonical_form(t).bits == oracle_canonical_bits(t.rows)

    @pytest.mark.parametrize("kind", KINDS)
    def test_family_members(self, kind, rng):
        for length in range(1, 13):
            t = family(kind, length)
            if (kind, length) in PINNED_CODES:
                want = int(PINNED_CODES[kind, length], 16)
            else:
                want = oracle_canonical_bits(t.rows)
            assert canonical_form(t).bits == want, (kind, length)
            assert canonical_form(relabeled(t, rng)).bits == want, (kind, length)

    @pytest.mark.parametrize("q", [19, 31, 43])
    def test_paley(self, q, rng):
        t = paley(q)
        want = int(PINNED_CODES["paley", q], 16) if ("paley", q) in PINNED_CODES else oracle_canonical_bits(t.rows)
        assert canonical_form(t).bits == want
        assert canonical_form(relabeled(t, rng)).bits == want

    def test_c3_over_20(self, rng):
        # 60 vertices, 3^20 automorphisms: the unpruned search never ends here
        t = family("c3", 20)
        code = canonical_form(t)
        assert canonical_form(relabeled(t, rng)) == code
        assert is_isomorphic(tournament_from_code(code), t)


class TestAutomorphismOracle:
    def test_all_classes_up_to_7(self):
        for n in range(8):
            for t in enumerate_tournaments(n):
                assert automorphism_count(t) == oracle_automorphism_count(t)

    @pytest.mark.parametrize("n", range(8))
    def test_orbit_sum_is_labeled_count(self, n):
        total = sum(math.factorial(n) // automorphism_count(t) for t in enumerate_tournaments(n))
        assert total == 2 ** (n * (n - 1) // 2)

    def test_c3_family(self, rng):
        for length in range(1, 21):
            assert automorphism_count(family("c3", length)) == 3**length
        assert automorphism_count(relabeled(family("c3", 20), rng)) == 3**20

    @pytest.mark.parametrize("p", [3, 7, 11, 19, 23, 31, 43, 59, 83])
    def test_paley(self, p):
        # x -> a*x + b with a a non-zero square: p * (p - 1) / 2 automorphisms
        assert automorphism_count(paley(p)) == p * (p - 1) // 2

    @pytest.mark.parametrize("length", [13, 20])
    def test_t_family_rigid(self, length):
        assert automorphism_count(family("t", length)) == 1


class TestSearchOracle:
    """``_search`` returns the oracle's code, first and best labelings and
    generators: the census reads the best labeling, ``sum_profile`` the
    labeling and generators, ``automorphism_count`` the first leaf and the
    generators."""

    def test_all_classes_up_to_8(self, rng):
        # two relabelings of each class below 8 vertices, one of each of the 6,880 on 8
        for n in range(9):
            for t in enumerate_tournaments(n):
                for u in (t, *(relabeled(t, rng) for _ in range(2 if n < 8 else 1))):
                    assert _search(u.rows) == oracle_search(u.rows)

    @settings(max_examples=60, deadline=None)
    @given(tournaments(max_n=40))
    def test_random_inputs(self, t):
        assert _search(t.rows) == oracle_search(t.rows)

    @pytest.mark.parametrize("kind", KINDS)
    def test_family_members(self, kind, rng):
        for length in range(1, 13):
            for u in (family(kind, length), relabeled(family(kind, length), rng)):
                assert _search(u.rows) == oracle_search(u.rows), (kind, length)

    # a relabeling changes which nodes have a single candidate; t20 and c3_12
    # are the bench's automorphism and canonical-form inputs
    @pytest.mark.parametrize(
        "t",
        [paley(19), paley(31), paley(43), family("c3", 20), family("t", 20),
         *(relabeled(family(kind, length), random.Random(seed)) for kind, length in (("t", 20), ("c3", 12))
           for seed in (1, 2)), relabeled(paley(83), random.Random(1))],
        ids=["paley19", "paley31", "paley43", "c3_20", "t20",
             "t20_relabeled1", "t20_relabeled2", "c3_12_relabeled1", "c3_12_relabeled2", "paley83_relabeled1"])
    def test_symmetric_objects(self, t):
        assert _search(t.rows) == oracle_search(t.rows)

    @pytest.mark.parametrize("n", [40, 60, 120])
    def test_seeded_random_batch(self, n):
        r = random.Random(n)
        for _ in range(20):
            t = random_tournament(r, n)
            assert _search(t.rows) == oracle_search(t.rows)


@pytest.mark.parametrize("t", [random_tournament(random.Random(300), 300), paley(83)], ids=["random300", "paley83"])
def test_code_decodes_to_the_best_labeling(t):
    """The code is t's upper triangle in the best leaf's vertex order.  This
    does not compare the search with itself, so it sees a discrete tail that
    is wrong the same way in every labeling; these inputs have the longest
    tails that Tier-1 reaches."""
    code, _, best, _ = _search(t.rows)
    perm = [0] * t.n
    for i, v in enumerate(best):
        perm[v] = i
    assert tournament_from_code(CanonicalCode(t.n, code)) == relabel(t, perm)


# oracle: the automorphism count as it was before the group search, by
# orbit-stabiliser along the first leaf of the canonical-mode search


def oracle_canonical_mode_count(t: Tournament) -> int:
    _, base, _, gens = _search(t.rows)
    count, placed = 1, 0
    for v in base:
        count *= _orbit(1 << v, [g for g, moved in gens if not moved & placed]).bit_count()
        placed |= 1 << v
    return count


class TestGroupSearch:
    """``automorphism_count``, which searches in group mode, counts what the
    canonical-mode search counted; both modes share the first leaf, and in
    group mode it is also the returned best leaf."""

    def test_all_classes_up_to_8(self, rng):
        for n in range(9):
            for t in enumerate_tournaments(n):
                for u in (t, relabeled(t, rng)):
                    assert automorphism_count(u) == oracle_canonical_mode_count(u)

    def test_same_group_up_to_6(self, rng):
        for n in range(7):
            for t in enumerate_tournaments(n):
                for u in (t, relabeled(t, rng)):
                    canon, group = _search(u.rows), _search(u.rows, group=True)
                    assert group[1] == group[2] == canon[1]
                    assert set(_group([g for g, _ in group[3]], n)) == set(_group([g for g, _ in canon[3]], n))

    @pytest.mark.parametrize("kind", KINDS)
    def test_family_members(self, kind, rng):
        for length in range(1, 16):
            for u in (family(kind, length), relabeled(family(kind, length), rng)):
                assert automorphism_count(u) == oracle_canonical_mode_count(u), (kind, length)

    @pytest.mark.parametrize("q", [7, 11, 19, 23, 31, 43])
    def test_paley(self, q, rng):
        for u in (paley(q), relabeled(paley(q), rng)):
            assert automorphism_count(u) == oracle_canonical_mode_count(u) == q * (q - 1) // 2

    def test_lex_sums_of_cycles(self, rng):
        c3 = cycle3()
        c9 = lex_sum(c3, [c3] * 3)
        for t in (c9, lex_sum(c3, [c9] * 3), lex_sum(c9, [c3] * 9), lex_sum(chain(4), [c3] * 4),
                  lex_sum(c3, [chain(2), c3, c9]), lex_sum(paley(7), [c3] * 7), lex_sum(c3, [paley(7)] * 3)):
            for u in (t, relabeled(t, rng)):
                assert automorphism_count(u) == oracle_canonical_mode_count(u)

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_seeded_random_batch(self, n):
        r = random.Random(n)
        for _ in range(20):
            t = random_tournament(r, n)
            assert automorphism_count(t) == oracle_canonical_mode_count(t)


# ---------------------------------------------------------------------------
# oracle: the embedding search before host-mask domains, with its set of
# unplaced vertices kept as an ascending list, so that ties go to the least
# index as documented


def oracle_find_embedding(pattern: Tournament, host: Tournament) -> list[int] | None:
    np_, nh = pattern.n, host.n
    if np_ > nh:
        return None
    if np_ == 0:
        return []
    hout = [r.bit_count() for r in host.rows]
    cand = []
    for u in range(np_):
        po = pattern.rows[u].bit_count()
        pi = np_ - 1 - po
        m = 0
        for v in range(nh):
            if hout[v] >= po and nh - 1 - hout[v] >= pi:
                m |= 1 << v
        if m == 0:
            return None
        cand.append(m)
    assigned = [-1] * np_

    def rec(cands, remaining):
        if not remaining:
            return True
        u = min(remaining, key=lambda w: cands[w].bit_count())
        rest = [w for w in remaining if w != u]
        m = cands[u]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            new = dict(cands)
            for w in rest:
                narrowed = cands[w] & (host.rows[v] if pattern.edge(u, w) else host.in_mask(v))
                if narrowed == 0:
                    break
                new[w] = narrowed
            else:
                assigned[u] = v
                if rec(new, rest):
                    return True
                assigned[u] = -1
        return False

    if rec(dict(enumerate(cand)), list(range(np_))):
        return assigned
    return None


def members(kind: str, lengths):
    for length in lengths:
        for spec in (ChainSpec(length), ChainSpec(length, "desc")):
            yield spec, family(kind, spec)


class TestEmbeddingOracle:
    """``find_embedding`` returns the oracle's witness, or None with it."""

    def assert_same(self, pattern, host):
        assert find_embedding(pattern, host) == oracle_find_embedding(pattern, host)

    def test_all_class_pairs_up_to_6(self):
        classes = [t for n in range(7) for t in enumerate_tournaments(n)]
        assert len(classes) ** 2 == 5929
        for pattern in classes:
            for host in classes:
                self.assert_same(pattern, host)

    def test_members_into_longer_members(self):
        hosts = [(spec.length, t) for kind in KINDS for spec, t in members(kind, range(2, 6))]
        for kind in KINDS:
            for spec, t in members(kind, range(1, 5)):
                for pattern in (t, checked_family(kind, spec)):
                    for length, host in hosts:
                        if length > spec.length:
                            self.assert_same(pattern, host)

    def test_witnesses_into_members(self):
        for name in WITNESS_NAMES:
            for kind in KINDS:
                for _, host in members(kind, range(1, 8)):
                    self.assert_same(witness(name), host)

    def test_random_pairs(self, rng):
        for _ in range(300):
            pattern = random_tournament(rng, rng.randint(1, 8))
            self.assert_same(pattern, random_tournament(rng, rng.randint(pattern.n, 14)))

    def test_ties_go_to_the_least_index(self):
        assert find_embedding(family("c3", 3), family("c3", 3)) == list(range(9))
