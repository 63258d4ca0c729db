import contextlib
import itertools
import random
import sys
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from tournkit import core, profiles
from tournkit.core import (
    Tournament,
    TournamentError,
    _cached_bits,
    automorphism_count,
    canonical_form,
    chain,
    cycle3,
    lex_sum,
    make_tournament,
    relabel,
    restrict,
)
from tournkit.families import KINDS, family, family_size, witness
from tournkit.profiles import (
    ProfileSeries,
    SumSpec,
    UNBOUNDED,
    age_leq,
    growth_of_sum,
    profile_count,
    profile_sequence,
    series_fit,
    stabilized_profile,
    sum_profile,
    sum_profile_sequence,
)
from tournkit.verify import enumerate_tournaments

from conftest import parts_at_most_k, random_tournament
from test_acceptance import SUM_SPECS
from test_core import diamond
from test_decomp import NESTED, oracle_blocks


def oracle_subset_codes(t, n, budget):
    """The restrict-based census that prefix extension replaced."""
    if comb(t.n, n) > budget:
        raise TournamentError("BUDGET_EXCEEDED", f"C({t.n},{n}) subsets exceed budget {budget}")
    codes = set()
    for subset in itertools.combinations(range(t.n), n):
        codes.add(canonical_form(restrict(t, subset)).bits)
    return codes


def oracle_prefix_codes(t: Tournament, lo: int, hi: int, budget: int) -> list[set[int]]:
    """The prefix-extension census that merged prefix states replaced.

    One depth-first pass over the subsets, each grown in increasing vertex
    order: a child's rows (those of ``restrict``, the keys of
    ``_CANON_CACHE``) extend its parent's by one vertex in O(k) work.
    Prefixes that cannot reach lo vertices are cut, so one size n visits at
    most (n+1)·C(N,n) of them."""
    for k in range(lo, hi + 1):
        if comb(t.n, k) > budget:
            raise TournamentError("BUDGET_EXCEEDED", f"C({t.n},{k}) subsets exceed budget {budget}",
                                  {"consumed": comb(t.n, k), "limit": budget, "where": "profiles.subset_census"})
    rows, codes = t.rows, [set() for _ in range(hi + 1)]
    stack = [((), (), 0)]  # (rows, members, least next vertex) of each prefix
    while stack:
        sub, members, start = stack.pop()
        k = len(members)
        if lo <= k <= hi:
            codes[k].add(_cached_bits(sub))
        bit = 1 << k
        for u in range(start, min(t.n, t.n + k + 1 - lo) if k < hi else 0):
            ru, ext, row = rows[u], [], 0
            for i, (r, v) in enumerate(zip(sub, members)):
                if ru >> v & 1:
                    row |= 1 << i
                    ext.append(r)
                else:
                    ext.append(r | bit)
            ext.append(row)
            stack.append((tuple(ext), members + (u,), u + 1))
    return codes


def oracle_age_leq(a, b, n_max, budget):
    """``age_leq`` as it was: one census per size, in ascending order."""
    for n in range(min(n_max, a.n) + 1):
        if n > b.n:
            return False
        if not oracle_subset_codes(a, n, budget) <= oracle_subset_codes(b, n, budget):
            return False
    return True


def oracle_bounded_vectors(caps, total):
    """The recursive contribution-vector generator that the iterative one replaced."""
    if not caps:
        if total == 0:
            yield ()
        return
    head, rest = caps[0], caps[1:]
    top = total if head is UNBOUNDED else min(head, total)
    for m in range(top + 1):
        for tail in oracle_bounded_vectors(rest, total - m):
            yield (m,) + tail


def oracle_sum_profile(spec, n, budget=profiles.DEFAULT_BUDGET):
    """``sum_profile`` as it was: one canonized lex sum per contribution vector."""
    if spec.index.n > 8:
        raise TournamentError("INDEX_TOO_LARGE", f"index limited to 8 vertices, got {spec.index.n}")
    if n < 0:
        raise TournamentError("OUT_OF_RANGE", "n must be non-negative")
    codes = set()
    seen = 0
    for vec in oracle_bounded_vectors(spec.caps, n):
        seen += 1
        if seen > budget:
            raise TournamentError("BUDGET_EXCEEDED", f"more than {budget} contribution vectors")
        support = [i for i, m in enumerate(vec) if m]
        t = lex_sum(restrict(spec.index, support), [chain(vec[i]) for i in support])
        codes.add(canonical_form(t).bits)
    return len(codes)


def oracle_keyed_vectors(caps, total):
    """Vectors of contributions under caps that sum to total, in lex order."""
    tops = [total if c is UNBOUNDED else min(c, total) for c in caps]
    room = [sum(tops[i:]) for i in range(len(tops) + 1)]  # most that entries i.. hold
    stack = [((), total)] if room[0] >= total else []
    while stack:
        head, left = stack.pop()
        i = len(head)
        if i == len(tops):
            yield head
            continue
        for m in range(min(tops[i], left), max(0, left - room[i + 1]) - 1, -1):
            stack.append((head + (m,), left - m))


def oracle_keyed_sum_profile(spec, sizes, budget=profiles.DEFAULT_BUDGET):
    """``sum_profile`` at each of sizes as it was before Burnside counting: one
    key (|Q|, code of Q, least block-weight reading over Aut(Q)) per vector."""
    quotients = {}  # support -> (blocks, (|Q|, code of Q), canonical block orders under Aut(Q))
    counts = []
    for n in sizes:
        if spec.index.n > 8:
            raise TournamentError("INDEX_TOO_LARGE", f"index limited to 8 vertices, got {spec.index.n}",
                                  {"consumed": spec.index.n, "limit": 8, "where": "profiles.sum_profile"})
        if n < 0:
            raise TournamentError("OUT_OF_RANGE", "n must be non-negative")
        keys = set()
        for seen, vec in enumerate(oracle_keyed_vectors(spec.caps, n), 1):
            if seen > budget:
                raise TournamentError("BUDGET_EXCEEDED", f"more than {budget} contribution vectors",
                                      {"consumed": seen, "limit": budget, "where": "profiles.sum_profile"})
            support = tuple(i for i, m in enumerate(vec) if m)
            if support not in quotients:
                blocks, q = profiles._acyclic_blocks(spec.index, support)
                code, _, order, gens = core._search(q.rows)
                readings = [tuple(g[v] for v in order) for g in core._group([g for g, _ in gens], q.n)]
                quotients[support] = blocks, (q.n, code), readings
            blocks, head, readings = quotients[support]
            weights = [sum(map(vec.__getitem__, b)) for b in blocks]
            keys.add(head + min(tuple(map(weights.__getitem__, r)) for r in readings))
        counts.append(len(keys))
    return tuple(counts)


@contextlib.contextmanager
def line_limit(filename, limit):
    """Fail once more than limit lines of filename have run inside the block."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        if count > limit:
            raise AssertionError(f"more than {limit} lines of {filename} ran")
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == filename else None)
    try:
        yield
    finally:
        sys.settrace(previous)


def outcome(fn, *args):
    try:
        return fn(*args)
    except TournamentError as exc:
        return str(exc)


class TestProfileCount:
    def test_chain_always_one(self):
        c = chain(9)
        for n in range(10):
            assert profile_count(c, n) == 1

    def test_diamond_triples(self):
        assert profile_count(diamond(), 3) == 2

    def test_k_family_quadruples(self):
        assert profile_count(family("k", 8), 4) == 4

    def test_budget(self):
        # C(30,15) subsets, but chain(30) keeps at most 16 states of a size
        assert profile_count(chain(30), 15, budget=1000) == 1

    def test_budget_cuts_a_level_while_it_is_built(self):
        # almost nothing merges in a random tournament: the census stops
        # within one parent's children of the budget, at size 4 of 15
        t = random_tournament(random.Random(30), 30)
        tracemalloc.start()
        try:
            with pytest.raises(TournamentError) as e:
                profile_count(t, 15, budget=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.value.code == "BUDGET_EXCEEDED"
        assert 1000 < e.value.details["consumed"] <= 1030
        assert e.value.details["limit"] == 1000
        assert e.value.details["where"] == "profiles.subset_census"
        assert peak < 5 * 2**20

    def test_larger_than_host_is_zero(self):
        assert profile_count(chain(3), 10**9) == 0
        assert profile_sequence(chain(3), 6).values == (1, 1, 1, 1, 0, 0, 0)

    def test_prefix_census_matches_restrict(self, rng):
        cases = [random_tournament(rng, n) for n in range(13) for _ in range(2)]
        for kind in KINDS:
            length = 1
            while family_size(kind, length) <= 13:
                cases.append(family(kind, length))
                length += 1
        for t in cases:
            every_size = list(profiles._subset_codes(t, 0, t.n, 10**6))
            for n in range(t.n + 1):
                want = oracle_subset_codes(t, n, 10**6)
                assert every_size[n] == want
                assert list(profiles._subset_codes(t, n, n, 10**6))[n] == want

    def test_single_size_prunes_prefixes(self, monkeypatch):
        # chain(30) in natural order has one state per (size, start): the
        # C(30,28) subsets share one key, so the only lookup is the answer
        lookups = []
        monkeypatch.setattr(profiles, "_cached_bits", lambda rows: lookups.append(rows) or 0)
        assert profile_count(chain(30), 28) == 1
        assert lookups == [chain(28).rows]
        # a relabeled chain merges few prefixes: without the cut of those that
        # cannot reach 28 members the census would walk up to 2^30 of them;
        # with it a k-member prefix skips at most 2 vertices, and under
        # 40,000 lines run
        monkeypatch.undo()
        perm = list(range(30))
        random.Random(28).shuffle(perm)
        with line_limit(profiles.__file__, 200_000):
            assert profile_count(relabel(chain(30), perm), 28) == 1

    def test_budget_errors_match_per_size_census(self):
        # a level holds at most C(N, k) states, so the census answers wherever
        # the per-size oracle does, with its value, and refuses only where it does
        c3, long_chain = family("c3", 4), chain(20)
        pairs = ((c3, long_chain), (chain(3), long_chain), (long_chain, c3), (long_chain, chain(3)), (c3, c3))
        for budget in (300, 2000, 10**4):
            for n_max in (2, 4, 6):
                for a, b in pairs:
                    assert_answers_where_oracle_does(outcome(age_leq, a, b, n_max, budget),
                                                     outcome(oracle_age_leq, a, b, n_max, budget))
                for t in (c3, long_chain):
                    want = outcome(lambda: tuple(len(oracle_subset_codes(t, n, budget)) for n in range(n_max + 1)))
                    assert_answers_where_oracle_does(outcome(lambda: profile_sequence(t, n_max, budget).values), want)


def assert_answers_where_oracle_does(got, want):
    """got equals want, unless the oracle refused for its budget; a refusal
    in got is then a budget refusal too, as got != want for an answer."""
    refused = isinstance(want, str) and want.startswith("BUDGET_EXCEEDED")
    assert got == want or refused and (not isinstance(got, str) or got.startswith("BUDGET_EXCEEDED"))


def census_agrees(t, lo, hi, by_size=None):
    """``_subset_codes`` equals the DFS oracle and, if given, the per-size codes."""
    got = list(profiles._subset_codes(t, lo, hi, 10**7))
    assert got == oracle_prefix_codes(t, lo, hi, 10**7)
    if by_size is not None:
        assert got == [by_size[k] if k >= lo else set() for k in range(hi + 1)]


class TestSubsetCensus:
    def test_every_window_on_small_classes(self):
        for n in range(8):
            for t in enumerate_tournaments(n):
                by_size = [oracle_subset_codes(t, k, 10**6) for k in range(n + 1)]
                for lo in range(n + 1):
                    for hi in range(lo, n + 1):
                        census_agrees(t, lo, hi, by_size)

    def test_empty_window(self):
        # an empty window builds nothing; under budget 0 the empty prefix, one state, is refused
        for t in (chain(0), cycle3(), family("k", 4)):
            assert list(profiles._subset_codes(t, 0, -1, 0)) == oracle_prefix_codes(t, 0, -1, 0) == []
            for b in (chain(3), family("c3", 2)):
                assert_answers_where_oracle_does(outcome(age_leq, t, b, 3, 0), outcome(oracle_age_leq, t, b, 3, 0))
                assert outcome(age_leq, t, b, 3, 0).startswith("BUDGET_EXCEEDED")

    def test_random_windows(self):
        rng = random.Random(11)
        for n in range(14):
            for _ in range(2):
                t = random_tournament(rng, n)
                by_size = [oracle_subset_codes(t, k, 10**6) for k in range(n + 1)]
                windows = {(0, n), (n // 2, n // 2)}
                windows |= {tuple(sorted(rng.sample(range(n + 1), 2))) for _ in range(2) if n}
                for lo, hi in windows:
                    census_agrees(t, lo, hi, by_size)

    def test_family_members(self):
        # natural order merges most prefixes, so hi = 9 is cheap up to 18 vertices
        for kind in KINDS:
            length = 1
            while family_size(kind, length) <= 18:
                t = family(kind, length)
                hi = min(9, t.n)
                census_agrees(t, 0, hi)
                if t.n <= 13:
                    census_agrees(t, hi, hi)
                length += 1

    def test_relabeled_family_members(self):
        # a relabeling leaves few equal states, so every subset is canonized:
        # hi = 9 up to 13 vertices, hi = 5 above
        rng = random.Random(12)
        for kind in KINDS:
            length = 1
            while family_size(kind, length) <= 18:
                t = family(kind, length)
                perm = list(range(t.n))
                rng.shuffle(perm)
                census_agrees(relabel(t, perm), 0, min(9 if t.n <= 13 else 5, t.n))
                length += 1

    def test_nested_lex_sums(self):
        for t in NESTED:
            hi = next((k - 1 for k in range(t.n + 1) if comb(t.n, k) > 3000), t.n)
            census_agrees(t, 0, hi)
            census_agrees(t, hi, hi)


class TestProfileSequence:
    def test_c3_family_chain4(self):
        s = profile_sequence(family("c3", 4), 8)
        assert list(s.values) == [1, 1, 1, 2, 3, 4, 6, 9, 13]

    def test_v_family_chain7(self):
        s = profile_sequence(family("v", 7), 7)
        assert list(s.values) == [1, 1, 1, 2, 4, 9, 21, 48]

    def test_cycle_alone(self):
        s = profile_sequence(cycle3(), 3)
        assert list(s.values) == [1, 1, 1, 1]

    def test_canonical_cache_is_cleared_in_place_when_full(self, monkeypatch):
        want = profile_sequence(family("c3", 3), 6)
        cache, sizes = core._CANON_CACHE, []
        search = core._search
        monkeypatch.setattr(core, "_CANON_CACHE_MAX", 4)
        monkeypatch.setattr(core, "_search", lambda rows: sizes.append(len(cache)) or search(rows))
        cache.clear()
        assert profile_sequence(family("c3", 3), 6) == want
        # each new key goes in after the size is read, so the dict holds at most 4
        assert len(sizes) > 4 and max(sizes) < 4 and len(cache) <= 4
        assert core._CANON_CACHE is cache

    def test_negative_sizes_out_of_range(self):
        spec = SumSpec(cycle3(), (UNBOUNDED,) * 3)
        calls = [
            lambda: profile_count(cycle3(), -1),
            lambda: profile_sequence(cycle3(), -1),
            lambda: sum_profile(spec, -1),
            lambda: sum_profile_sequence(spec, -1),
            lambda: stabilized_profile(lambda size: family("c3", size), -1),
        ]
        for call in calls:
            with pytest.raises(TournamentError) as e:
                call()
            assert e.value.code == "OUT_OF_RANGE"

    def test_relabel_invariant(self, rng):
        for _ in range(20):
            t = random_tournament(rng, 7)
            perm = list(range(7))
            rng.shuffle(perm)
            assert profile_sequence(t, 5).values == profile_sequence(relabel(t, perm), 5).values


class TestSumSpec:
    def test_arity(self):
        with pytest.raises(TournamentError) as e:
            SumSpec(cycle3(), (1, 2))
        assert e.value.code == "ARITY_MISMATCH"

    def test_negative_cap(self):
        with pytest.raises(TournamentError) as e:
            SumSpec(cycle3(), (1, -1, 2))
        assert e.value.code == "OUT_OF_RANGE"

    def test_index_too_large(self):
        spec = SumSpec(chain(9), (1,) * 9)
        with pytest.raises(TournamentError) as e:
            sum_profile(spec, 3)
        assert e.value.code == "INDEX_TOO_LARGE"


class TestSumProfile:
    def test_single_unbounded_vertex(self):
        spec = SumSpec(chain(1), (UNBOUNDED,))
        for n in (0, 1, 5, 12):
            assert sum_profile(spec, n) == 1

    def test_cycle_all_unbounded_spots(self):
        spec = SumSpec(cycle3(), (UNBOUNDED,) * 3)
        assert sum_profile(spec, 3) == 2
        assert sum_profile(spec, 5) == 3

    def test_cycle_all_unbounded_sequence(self):
        spec = SumSpec(cycle3(), (UNBOUNDED,) * 3)
        s = sum_profile_sequence(spec, 14)
        assert list(s.values) == [1, 1, 1, 2, 2, 3, 5, 6, 8, 11, 13, 16, 20, 23, 27]

    def test_finite_caps_match_materialized(self):
        caps_list = [(2, 2, 2), (3, 1, 2), (1, 1, 1), (0, 2, 3)]
        for caps in caps_list:
            spec = SumSpec(cycle3(), caps)
            support = [i for i, c in enumerate(caps) if c]
            blocks = [chain(caps[i]) for i in support]
            mat = lex_sum(
                make_tournament(
                    len(support),
                    [
                        (a, b) if cycle3().edge(support[a], support[b]) else (b, a)
                        for a in range(len(support))
                        for b in range(a + 1, len(support))
                    ],
                ),
                blocks,
            )
            for n in range(mat.n + 1):
                assert sum_profile(spec, n) == profile_count(mat, n)
            assert sum_profile(spec, mat.n + 1) == 0

    def test_chain_index_collapses(self):
        spec = SumSpec(chain(4), (UNBOUNDED, 2, UNBOUNDED, 1))
        for n in (0, 3, 9):
            assert sum_profile(spec, n) == 1

    def test_matches_oracle_on_named_specs(self):
        t5 = witness("T5")
        specs = [
            SumSpec(cycle3(), (UNBOUNDED,) * 3),
            SumSpec(t5, (UNBOUNDED,) * 5),
            SumSpec(t5, (UNBOUNDED, 2, UNBOUNDED, 1, 3)),
            SumSpec(witness("tau2"), (UNBOUNDED,) * 5),
            SumSpec(lex_sum(chain(2), [cycle3(), chain(1)]), (UNBOUNDED,) * 4),
        ]
        for spec in specs:
            want = tuple(oracle_sum_profile(spec, n) for n in range(11))
            assert oracle_keyed_sum_profile(spec, range(11)) == want
            assert sum_profile_sequence(spec, 10).values == want
            assert tuple(sum_profile(spec, n) for n in range(11)) == want

    def test_matches_oracle_on_acceptance_specs(self):
        for spec in SUM_SPECS:
            if all(c is not UNBOUNDED for c in spec.caps):
                n_max = max(sum(spec.caps) + 1, 14)
            else:
                n_max = 18 if growth_of_sum(spec)["k"] >= 3 else 14
            want = tuple(oracle_sum_profile(spec, n) for n in range(n_max + 1))
            assert oracle_keyed_sum_profile(spec, range(n_max + 1)) == want
            assert sum_profile_sequence(spec, n_max).values == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        st.lists(st.booleans(), min_size=k * (k - 1) // 2, max_size=k * (k - 1) // 2),
        st.lists(st.sampled_from((0, 1, 2, 3, UNBOUNDED)), min_size=k, max_size=k))),
        st.integers(0, 9))
    def test_matches_oracle_random(self, drawn, n):
        flips, caps = drawn
        pairs = itertools.combinations(range(len(caps)), 2)
        index = make_tournament(len(caps), [(a, b) if f else (b, a) for f, (a, b) in zip(flips, pairs)])
        spec = SumSpec(index, tuple(caps))
        want = oracle_sum_profile(spec, n)
        assert oracle_keyed_sum_profile(spec, (n,)) == (want,)
        assert sum_profile(spec, n) == want

    def test_matches_oracle_on_seven_and_eight_vertex_indices(self):
        # the drawn indices above stop at 6 vertices; the growth data are
        # read off the closure oracle's blocks of the index on its support
        rng = random.Random(20261019)
        for k in (7, 8, 8):
            index = random_tournament(rng, k)
            spec = SumSpec(index, tuple(rng.choice((0, 1, 2, UNBOUNDED, UNBOUNDED)) for _ in range(k)))
            assert sum_profile_sequence(spec, 8).values == tuple(oracle_sum_profile(spec, n) for n in range(9))
            live = [v for v, c in enumerate(spec.caps) if c is UNBOUNDED or c > 0]
            blocks = [[live[v] for v in b] for b in oracle_blocks(restrict(index, live))]
            k_unbounded = sum(1 for b in blocks if any(spec.caps[v] is UNBOUNDED for v in b))
            assert growth_of_sum(spec) == {"p": len(blocks), "k": k_unbounded, "degree": k_unbounded - 1}

    def test_matches_keyed_oracle_on_small_classes(self):
        # every class with n <= 4 under every caps vector over {0, 1, 2, UNBOUNDED}
        for n in range(5):
            for index in enumerate_tournaments(n):
                for caps in itertools.product((0, 1, 2, UNBOUNDED), repeat=n):
                    spec = SumSpec(index, caps)
                    assert sum_profile_sequence(spec, 10).values == oracle_keyed_sum_profile(spec, range(11))

    def test_matches_keyed_oracle_on_five_vertex_classes(self):
        rng = random.Random(20261018)
        classes = enumerate_tournaments(5)
        assert len(classes) == 12
        for index in classes:
            for _ in range(6):
                spec = SumSpec(index, tuple(rng.choice((0, 1, 2, 3, UNBOUNDED)) for _ in range(5)))
                assert sum_profile_sequence(spec, 10).values == oracle_keyed_sum_profile(spec, range(11))

    def test_huge_sizes_with_few_vectors(self):
        # one long chain among short ones: a handful of vectors at any size
        assert sum_profile(SumSpec(chain(1), (UNBOUNDED,)), 10**9) == 1
        assert sum_profile(SumSpec(cycle3(), (10**9, 10**9, 0)), 2 * 10**9) == 1
        t5 = witness("T5")
        for caps, n in [((10**9, 1, 1, 1, 1), 10**9), ((10**9, 2, 0, 1, 3), 10**9 + 3)]:
            assert sum_profile(SumSpec(t5, caps), n) == oracle_keyed_sum_profile(SumSpec(t5, caps), (n,))[0]

    def test_t5_unbounded_at_30(self):
        # 46,376 contribution vectors: too many to canonize a 30-vertex lex sum for each
        assert sum_profile(SumSpec(witness("T5"), (UNBOUNDED,) * 5), 30) == 4888

    def test_t5_unbounded_at_200(self):
        # C(204, 4) = 70,058,751 contribution vectors, 78,412 Burnside steps;
        # the series is the fit's numerator over (1-x)(1-x^2)...(1-x^5)
        spec = SumSpec(witness("T5"), (UNBOUNDED,) * 5)
        assert sum_profile(spec, 200) == 12_684_819
        expansion = series_fit(sum_profile_sequence(spec, 40), 5)
        expansion += [0] * (201 - len(expansion))
        for i in range(1, 6):
            for j in range(i, 201):
                expansion[j] += expansion[j - i]
        assert sum_profile_sequence(spec, 200).values == tuple(expansion)

    def test_eight_vertex_unbounded_index_at_30(self):
        # C(37, 7) = 10,295,472 contribution vectors at n = 30
        spec = SumSpec(random_tournament(random.Random(30), 8), (UNBOUNDED,) * 8)
        assert sum_profile(spec, 30) == sum_profile_sequence(spec, 30).values[30]

    def test_budget_counts_vectors(self):
        # the budget counts Burnside steps over the whole call, not vectors:
        # T5 to 12 takes 300 and cycle3 to 18 takes 318, for 190 vectors at 18
        t5 = SumSpec(witness("T5"), (UNBOUNDED,) * 5)
        for spec, n_max, steps in [(t5, 12, 300), (SumSpec(cycle3(), (UNBOUNDED,) * 3), 18, 318)]:
            want = sum_profile_sequence(spec, n_max).values
            assert sum_profile_sequence(spec, n_max, budget=steps).values == want
            with pytest.raises(TournamentError) as e:
                sum_profile_sequence(spec, n_max, budget=steps - 1)
            assert str(e.value) == f"BUDGET_EXCEEDED: {steps} Burnside steps exceed budget {steps - 1}"
            assert e.value.details == {"consumed": steps, "limit": steps - 1, "where": "profiles.sum_profile"}
        with pytest.raises(TournamentError) as e:
            sum_profile(t5, 30, budget=1000)
        assert str(e.value) == "BUDGET_EXCEEDED: 1003 Burnside steps exceed budget 1000"

    def test_no_large_canonical_cache_entries(self):
        before = set(core._CANON_CACHE)
        sum_profile_sequence(SumSpec(witness("T5"), (UNBOUNDED,) * 5), 12)
        assert all(len(rows) <= 5 for rows in set(core._CANON_CACHE) - before)


class TestSeriesFit:
    def test_constant_profile(self):
        s = ProfileSeries((1,) * 10)
        assert series_fit(s, 1) == [1]

    def test_cycle_sum_numerator(self):
        spec = SumSpec(cycle3(), (UNBOUNDED,) * 3)
        s = sum_profile_sequence(spec, 14)
        assert series_fit(s, 3) == [1, 0, -1, 0, 0, 1, 1]

    def test_t5_numerator_and_leading_constant(self):
        # phi(n) ~ a n^(k-1) with a = P(1) / (k! (k-1)!) = 1 / ((k-1)! |Aut(index)|)
        t5 = witness("T5")
        fit = series_fit(sum_profile_sequence(SumSpec(t5, (UNBOUNDED,) * 5), 30), 5)
        assert fit == [1, 0, -1, 0, -1, 1, 2, 2, 3, 4, 4, 2, 3, 1, 1, 2]
        assert series_fit(sum_profile_sequence(SumSpec(t5, (UNBOUNDED,) * 5), 35), 5) == fit
        c3_fit = series_fit(sum_profile_sequence(SumSpec(cycle3(), (UNBOUNDED,) * 3), 14), 3)
        for index, numerator, want in [(t5, fit, Fraction(1, 120)), (cycle3(), c3_fit, Fraction(1, 6))]:
            k = index.n
            a = Fraction(sum(numerator), factorial(k) * factorial(k - 1))
            assert a == Fraction(1, factorial(k - 1) * automorphism_count(index)) == want

    def test_finite_profile_is_polynomial_at_k0(self):
        s = profile_sequence(cycle3(), 3)
        padded = ProfileSeries(tuple(s.values) + (0,) * 5)
        assert series_fit(padded, 0) == [1, 1, 1, 1]

    def test_a000930_never_fits(self):
        from tournkit.formulas import C3_RECURRENCE, formula_value

        s = ProfileSeries(tuple(formula_value(C3_RECURRENCE, n) for n in range(15)))
        for k in range(4):
            assert series_fit(s, k) is None

    def test_too_few_terms(self):
        s = ProfileSeries((1, 1, 1))
        with pytest.raises(TournamentError) as e:
            series_fit(s, 2)
        assert e.value.code == "TOO_FEW_TERMS"


class TestAgeComparison:
    def test_restriction_age(self, rng):
        from tournkit.core import restrict

        t = random_tournament(rng, 8)
        sub = restrict(t, [0, 2, 4, 6])
        assert age_leq(sub, t, 4)

    def test_tau1_separates_c3_from_k(self):
        assert not age_leq(family("c3", 4), family("k", 8), 6)

    def test_chain_needs_long_enough_host(self):
        # longest transitive subtournament of this family at length n is n+1
        assert age_leq(chain(6), family("t", 5), 6)
        assert not age_leq(chain(6), family("t", 4), 6)


class TestGrowth:
    def test_single_vertex(self):
        assert growth_of_sum(SumSpec(chain(1), (UNBOUNDED,))) == {"p": 1, "k": 1, "degree": 0}

    def test_cycle_all_unbounded(self):
        assert growth_of_sum(SumSpec(cycle3(), (UNBOUNDED,) * 3)) == {"p": 3, "k": 3, "degree": 2}

    def test_two_chain_merges(self):
        assert growth_of_sum(SumSpec(chain(2), (UNBOUNDED, UNBOUNDED))) == {"p": 1, "k": 1, "degree": 0}

    def test_zero_caps_dropped(self):
        assert growth_of_sum(SumSpec(cycle3(), (0, UNBOUNDED, UNBOUNDED))) == {"p": 1, "k": 1, "degree": 0}

    def test_mixed(self):
        assert growth_of_sum(SumSpec(cycle3(), (1, 2, UNBOUNDED))) == {"p": 3, "k": 1, "degree": 0}

    def test_partition_lower_bound(self):
        specs = [
            SumSpec(cycle3(), (UNBOUNDED,) * 3),
            SumSpec(cycle3(), (1, 2, UNBOUNDED)),
            SumSpec(diamond(), (UNBOUNDED,) * 4),
        ]
        for spec in specs:
            g = growth_of_sum(spec)
            for n in range(g["p"], 15):
                assert sum_profile(spec, n) >= parts_at_most_k(g["k"], n - g["p"])

    def test_degree_law_normalized_ratio(self):
        # phi(n)/n^(k-1) should flatten out; consecutive ratios near the top
        # of the window stay within 10% once the polynomial term dominates
        for spec, n_max in [
            (SumSpec(cycle3(), (UNBOUNDED,) * 3), 18),
            (SumSpec(chain(4), (UNBOUNDED, 2, UNBOUNDED, 1)), 12),
        ]:
            k = growth_of_sum(spec)["k"]
            series = sum_profile_sequence(spec, n_max)
            norm = [v / n ** (k - 1) for n, v in enumerate(series.values) if n >= n_max - 2]
            for a, b in zip(norm, norm[1:]):
                assert abs(b / a - 1) <= 0.1


class TestStabilized:
    def test_exact_family_profiles_match(self):
        # an n-vertex subset meets at most n chain positions, so family(kind, n)
        # holds every n-vertex type of the kind
        for kind in KINDS:
            vals, _ = stabilized_profile(lambda size, k=kind: family(k, size), 9)
            assert profile_sequence(family(kind, 9), 9).values == tuple(vals)

    def test_exact_c3_profile_to_12(self):
        # C(36, 12) subsets, at most 8,522 prefix states of one size
        from tournkit.formulas import C3_RECURRENCE, formula_value

        want = (1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41, 60)
        assert tuple(formula_value(C3_RECURRENCE, n) for n in range(13)) == want
        assert profile_sequence(family("c3", 12), 12).values == want

    def test_c3_family(self):
        vals, sizes = stabilized_profile(lambda size: family("c3", size), 9)
        assert list(vals) == [1, 1, 1, 2, 3, 4, 6, 9, 13, 19]
        assert sizes == (5, 6)

    def test_monotone_in_chain_length(self):
        for kind in ("t", "k"):
            prev = None
            for length in range(2, 6):
                vals = profile_sequence(family(kind, length), 5).values
                if prev is not None:
                    assert all(a >= b for a, b in zip(vals, prev))
                prev = vals
