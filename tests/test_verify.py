import functools
import json

import pytest

from tournkit import core, decomp, formulas, profiles, tfile, verify
from tournkit.core import (
    CanonicalCode,
    Tournament,
    TournamentError,
    canonical_form,
    chain,
    cycle3,
    embeds,
    is_acyclic,
    is_isomorphic,
    tournament_from_code,
)
from tournkit.decomp import is_acyclically_indecomposable
from tournkit.families import KINDS, checked_family, family_size, witness, witness_family
from tournkit.tfile import loads
from tournkit.verify import (
    SuiteReport,
    check_compactness,
    check_decomposition,
    check_duality,
    check_incomparability,
    check_profile_formulas,
    enumerate_tournaments,
)

from conftest import all_labeled_tournaments


@functools.lru_cache(maxsize=None)
def oracle_census(n):
    """The extend-and-dedupe census that canonical augmentation replaced: every
    parent extended by every mask, deduplicated through a set of codes."""
    if n <= 1:
        return [Tournament(n, [0] * n, validate=False)]
    seen = set()
    for parent in oracle_census(n - 1):
        for mask in range(1 << (n - 1)):
            rows = list(parent.rows)
            for j in range(n - 1):
                if not (mask >> j) & 1:
                    rows[j] |= 1 << (n - 1)
            rows.append(mask)
            seen.add(core._search(tuple(rows))[0])
    return [tournament_from_code(CanonicalCode(n, bits)) for bits in sorted(seen)]


def oracle_check_compactness(n: int, size_bound: int = 8) -> SuiteReport:
    """The full scan that hereditary growth and counted candidates replaced:
    every class up to size_bound is built, and every acyclically
    indecomposable one is tested against every member."""
    if n not in (2, 3):
        raise TournamentError("DOMAIN", "compactness scan supports chain lengths 2 and 3")
    if size_bound > 8:
        raise TournamentError("TOO_LARGE", "size bound limited to 8",
                              {"consumed": size_bound, "limit": 8, "where": "verify.check_compactness"})
    report = SuiteReport("compactness", {"n": n, "size_bound": size_bound})
    members = []
    seen_codes = set()
    for kind in KINDS:
        m = checked_family(kind, n)
        code = canonical_form(m)
        report.add(f"member_{kind}", True, size=m.n)
        if code.bits not in seen_codes:
            seen_codes.add(code.bits)
            members.append(m)
    members.sort(key=lambda m: (m.n, canonical_form(m).bits))

    def survives(t: Tournament) -> bool:
        return not any(m.n <= t.n and embeds(m, t) for m in members)

    smallest_empty = None
    for s in range(1, size_bound + 1):
        reps = [t for t in enumerate_tournaments(s) if is_acyclically_indecomposable(t)]
        avoiders = [t for t in reps if survives(t)]
        verified = all(is_acyclically_indecomposable(t) for t in avoiders)
        report.add(
            f"size_{s}",
            verified,
            candidates=len(reps),
            avoiders=[tfile.dumps(t).splitlines() for t in avoiders],
        )
        if not avoiders and smallest_empty is None:
            smallest_empty = s
    report.add("smallest_empty_size", True, value=smallest_empty if smallest_empty is not None else "NOT_REACHED")
    return report.finish()


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 4), (5, 12), (6, 56), (7, 456), (8, 6880)])
    def test_census(self, n, count):
        assert len(enumerate_tournaments(n)) == count

    def test_matches_dedupe_census(self):
        # the census keeps no dedupe set, so equal lists also show that no
        # class is produced twice
        for n in range(8):
            assert [t.rows for t in enumerate_tournaments(n)] == [t.rows for t in oracle_census(n)]

    def test_matches_labeled_bruteforce(self):
        for n in range(1, 7):
            codes = {canonical_form(t) for t in all_labeled_tournaments(n)}
            reps = enumerate_tournaments(n)
            assert {canonical_form(t) for t in reps} == codes

    def test_census_levels_match_dedupe_census(self):
        # one depth-first walk gives every level at once
        levels = verify._census(7)
        assert [list(level) for level in levels] == [[canonical_form(t).bits for t in oracle_census(n)]
                                                     for n in range(8)]

    def test_census_searches_each_child_once_and_decodes_none(self, monkeypatch):
        # one _search per child that passes the cheap tests: the parents on
        # 0..7 vertices are not searched again, nor decoded from their codes
        calls = []

        def counting(rows):
            calls.append(rows)
            return core._search(rows)

        def decode(*args):
            raise AssertionError("census decoded a code")

        monkeypatch.setattr(verify, "_search", counting)
        monkeypatch.setattr(verify, "_decode", decode)
        monkeypatch.setattr(verify, "tournament_from_code", decode)
        assert [len(level) for level in verify._census(8)] == [1, 1, 1, 2, 4, 12, 56, 456, 6880]
        assert len(calls) == 7948
        members = [checked_family(kind, 3) for kind in KINDS]
        levels = verify._census(8, lambda t: not any(embeds(m, t) for m in members))
        assert [len(level) for level in levels] == [1, 1, 1, 2, 4, 10, 36, 143, 576]

    def test_caches_no_level_above_the_bound(self, monkeypatch):
        # _REPS keeps the levels up to _REPS_MAX only; a bound of 4 shows it cheaply
        monkeypatch.setattr(verify, "_REPS", {})
        monkeypatch.setattr(verify, "_REPS_MAX", 4)
        assert [len(enumerate_tournaments(n)) for n in (5, 4, 5)] == [12, 4, 12]
        assert list(verify._REPS) == [4]

    def test_reps_are_distinct(self):
        reps = enumerate_tournaments(6)
        assert len({canonical_form(t) for t in reps}) == len(reps)

    def test_census_leaves_canonical_cache_alone(self, monkeypatch):
        # every child of the census is a distinct rows tuple, so caching
        # their codes would only hold memory
        monkeypatch.setattr(verify, "_REPS", {})
        before = len(core._CANON_CACHE)
        reps = enumerate_tournaments(6)
        assert len(reps) == 56
        assert len(core._CANON_CACHE) == before
        # canonical_form itself still caches: a repeated call is not recomputed
        t = reps[-1]
        code = canonical_form(t)
        assert core._CANON_CACHE[t.rows] == code.bits

        def recompute(rows):
            raise AssertionError("canonical code recomputed")

        monkeypatch.setattr(core, "_search", recompute)
        assert canonical_form(t) == code

    def test_too_large(self):
        with pytest.raises(TournamentError) as e:
            enumerate_tournaments(10)
        assert e.value.code == "TOO_LARGE"

    def test_acyclically_indecomposable_census(self):
        # frozen from a labeled brute force over all subsets (definition-level)
        from tournkit.decomp import is_acyclically_indecomposable

        counts = [
            sum(1 for t in enumerate_tournaments(n) if is_acyclically_indecomposable(t))
            for n in range(3, 7)
        ]
        assert counts == [1, 2, 5, 26]


class TestDecompositionSuite:
    def test_exhaustive_small(self):
        rep = check_decomposition(5)
        assert rep.passed
        counted = sum(c["details"]["classes"] for c in rep.checks if c["name"].startswith("exhaustive"))
        assert counted == 20

    def test_exhaustive_six(self):
        rep = check_decomposition(6)
        assert rep.passed
        counted = sum(c["details"]["classes"] for c in rep.checks if c["name"].startswith("exhaustive"))
        assert counted == 76

    def test_one_tree_per_tournament(self, monkeypatch):
        # the blocks and the monomorphic parts come from one strong-module tree
        built = []
        tree = decomp._strong_tree
        monkeypatch.setattr(decomp, "_strong_tree", lambda t: built.append(t) or tree(t))
        assert check_decomposition(6).passed
        assert len(built) == 76

    def test_catches_a_broken_law(self, monkeypatch):
        # a tree that calls the 3-cycle one LINEAR run gives a block that is
        # not acyclic, which acyclic_components refuses
        tree = decomp._strong_tree

        def broken(t):
            if t.n == 3 and not is_acyclic(t):
                return {0b111: (decomp.LINEAR, [0b001, 0b010, 0b100])}
            return tree(t)

        monkeypatch.setattr(decomp, "_strong_tree", broken)
        rep = check_decomposition(3)
        assert not rep.passed
        assert [(c["check"], c["error"]) for c in rep.counterexamples] == [
            ("acyclic_components", "INTERNAL_INCONSISTENCY: block (0, 1, 2) is not acyclic")]

    @pytest.mark.parametrize("cyclic, tree, error", [
        # an acyclic run that is not autonomous: no pair of a 3-cycle is
        (True, {0b111: (decomp.PRIME, [0b011, 0b100]), 0b011: (decomp.LINEAR, [0b001, 0b010])},
         "block (0, 1) is not autonomous"),
        # two LINEAR nodes whose leaf runs overlap
        (False, {0b111: (decomp.LINEAR, [0b001, 0b010, 0b100]), 0b011: (decomp.LINEAR, [0b001, 0b010])},
         "blocks do not partition the vertex set"),
        # the 3-chain as a PRIME node: single-vertex blocks whose quotient keeps an autonomous pair
        (False, {0b111: (decomp.PRIME, [0b001, 0b010, 0b100])},
         "quotient has a non-trivial acyclic autonomous set"),
    ], ids=["block_not_autonomous", "overlapping_runs", "decomposable_quotient"])
    def test_catches_each_broken_law(self, monkeypatch, cyclic, tree, error):
        # the tree is given to the 3-vertex class that is (or is not) cyclic
        real = decomp._strong_tree
        monkeypatch.setattr(decomp, "_strong_tree", lambda t: dict(tree) if t.n == 3 and is_acyclic(t) != cyclic else real(t))
        victim = next(t for t in enumerate_tournaments(3) if is_acyclic(t) != cyclic)
        with pytest.raises(TournamentError) as e:
            decomp.acyclic_components(victim)
        assert (e.value.code, str(e.value)) == ("INTERNAL_INCONSISTENCY", f"INTERNAL_INCONSISTENCY: {error}")
        rep = check_decomposition(3)
        assert not rep.passed
        assert [(c["check"], c["error"]) for c in rep.counterexamples] == [("acyclic_components", str(e.value))]

    def test_reconstruction_counterexample(self, monkeypatch):
        # a reconstruction that returns the 3-chain for the 3-cycle
        real = verify.reconstruct
        monkeypatch.setattr(verify, "reconstruct", lambda d, t: chain(3) if t.n == 3 and not is_acyclic(t) else real(d, t))
        rep = check_decomposition(3)
        assert not rep.passed
        assert [c["check"] for c in rep.counterexamples] == ["reconstruction"]
        assert is_isomorphic(loads("\n".join(rep.counterexamples[0]["tournament"])), cycle3())

    def test_large_components_counterexample(self, monkeypatch):
        # monomorphic parts (and an oracle that agrees) all single vertices: the
        # 4-chain's one acyclic block of 4 is no longer a monomorphic part
        monkeypatch.setattr(verify, "_monomorphic_classes", lambda d: tuple((v,) for v in range(sum(map(len, d.blocks)))))
        monkeypatch.setattr(verify, "_oracle_partition", lambda t: tuple((v,) for v in range(t.n)))
        rep = check_decomposition(4)
        assert not rep.passed
        assert [c["check"] for c in rep.counterexamples] == ["large_components"]
        assert is_isomorphic(loads("\n".join(rep.counterexamples[0]["tournament"])), chain(4))

    def test_monomorphic_oracle_counterexample(self, monkeypatch):
        # an oracle that splits the 3-cycle's one monomorphic part
        real = verify._oracle_partition
        monkeypatch.setattr(verify, "_oracle_partition", lambda t: ((0,), (1,), (2,)) if t.n == 3 and not is_acyclic(t) else real(t))
        rep = check_decomposition(3)
        assert not rep.passed
        assert [c["check"] for c in rep.counterexamples] == ["monomorphic_oracle"]
        assert is_isomorphic(loads("\n".join(rep.counterexamples[0]["tournament"])), cycle3())

    def test_sampled_sizes_recorded(self):
        rep = check_decomposition(8, samples_per_size=5)
        assert rep.passed
        assert rep.seed is not None
        names = [c["name"] for c in rep.checks]
        assert "sampled_n7" in names and "sampled_n8" in names

    def test_deterministic(self):
        a = check_decomposition(7, samples_per_size=5).to_json()
        b = check_decomposition(7, samples_per_size=5).to_json()
        assert a == b


class TestProfileSuite:
    def test_passes(self):
        rep = check_profile_formulas(7)
        assert rep.passed

    @pytest.mark.parametrize("n_max", [0, 1, 2])
    def test_passes_at_the_smallest_bounds(self, n_max):
        # the k closed form starts at n = 2; below it only the values present are checked
        assert check_profile_formulas(n_max).passed

    def test_budget_guard(self):
        with pytest.raises(TournamentError) as e:
            check_profile_formulas(10)
        assert e.value.code == "BUDGET_EXCEEDED"


class TestIncomparabilitySuite:
    def test_passes_at_full_size(self):
        rep = check_incomparability(14)
        assert rep.passed
        assert len(rep.checks) == 36

    def test_exact_from_host_size_21(self):
        # every host's chain is at least as long as every witness has vertices,
        # so each avoidance check is one about the kind's whole age
        rep = check_incomparability(21)
        assert rep.passed
        assert len(rep.checks) == 36
        host_lengths = [max(n for n in range(1, 22) if family_size(kind, n) <= 21) for kind in KINDS]
        assert min(host_lengths) >= max(witness(name).n for name in verify.WITNESS_NAMES)

    def test_host_length_is_the_longest_member_within_the_host_size(self):
        for kind in KINDS:
            for host_size in range(41):
                longest = max((n for n in range(host_size + 1) if family_size(kind, n) <= host_size), default=0)
                assert verify._max_length_within(kind, host_size) == longest, (kind, host_size)

    def test_avoidance_checked_only_against_kinds_with_a_host(self):
        # below host size 3 the c3 and v members do not fit, below 2 no member does
        for host_size in range(41):
            hosted = [kind for kind in KINDS if family_size(kind, 1) <= host_size]
            rep = check_incomparability(host_size)
            avoids = [c["name"] for c in rep.checks if "_avoids_" in c["name"]]
            assert avoids == [f"{name}_avoids_{kind}" for name in verify.WITNESS_NAMES
                              for kind in hosted if kind != witness_family(name)], host_size

    def test_one_host_search_per_witness_and_foreign_kind(self, monkeypatch):
        # one host per kind: 6 witnesses x 5 foreign kinds
        calls = []

        def counting(pattern, host):
            calls.append(host)
            return embeds(pattern, host)

        monkeypatch.setattr(verify, "embeds", counting)
        rep = check_incomparability(14)
        # the own-family check tries chain lengths 1.. up to the one it reports
        own = sum(c["details"]["chain_length"] for c in rep.checks if "_in_own_" in c["name"])
        assert len(calls) - own == 30

    def test_foreign_hit_fails_the_report(self, monkeypatch):
        # T5 filed under u meets the t host, the longest t member within 14 vertices
        monkeypatch.setattr(verify, "witness_family", lambda name: "u" if name == "T5" else witness_family(name))
        rep = check_incomparability(14)
        assert not rep.passed
        by_name = {c["name"]: c for c in rep.checks}
        assert by_name["T5_avoids_t"] == {"name": "T5_avoids_t", "passed": False, "details": {"hit": 7}}
        assert [(c["check"], c["host"]) for c in rep.counterexamples] == [("T5_avoids_t", ["t", 7])]
        assert json.loads(rep.to_json())["counterexamples"][0]["host"] == ["t", 7]


class TestDualitySuite:
    def test_passes(self):
        rep = check_duality(4)
        assert rep.passed

    def test_classical_readings_recorded(self):
        rep = check_duality(2)
        classical = {c["name"]: c for c in rep.checks if c["name"].startswith("classical_")}
        assert classical["classical_t_h2"]["details"]["removed_vertex"]
        assert classical["classical_u_h2"]["details"]["removed_vertex"]


class TestCompactnessSuite:
    def test_small_scan(self):
        rep = check_compactness(2, 6)
        assert rep.passed
        by_name = {c["name"]: c for c in rep.checks}
        # only the single vertex avoids everything; the six members all
        # contain a 3-cycle so every acyclically indecomposable candidate
        # of size >= 3 holds one
        assert len(by_name["size_1"]["details"]["avoiders"]) == 1
        assert by_name["size_2"]["details"]["avoiders"] == []
        assert by_name["size_3"]["details"]["avoiders"] == []
        assert by_name["smallest_empty_size"]["details"]["value"] == 2

    def test_avoiders_roundtrip(self):
        rep = check_compactness(2, 5)
        for c in rep.checks:
            for lines in c.get("details", {}).get("avoiders", []):
                loads("\n".join(lines) + "\n")

    def test_deterministic_across_runs(self):
        a = check_compactness(2, 6).to_json()
        b = check_compactness(2, 6).to_json()
        assert a == b

    def test_bad_params(self):
        with pytest.raises(TournamentError):
            check_compactness(4, 5)
        with pytest.raises(TournamentError):
            check_compactness(2, 9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_full_scan(self, n):
        for size_bound in range(1, 9):
            assert check_compactness(n, size_bound).to_json() == oracle_check_compactness(n, size_bound).to_json()

    def test_builds_no_census_level_at_the_bound(self, monkeypatch):
        # the candidates come from the cycle index, so no level below the
        # bound is enumerated either: the one census walk keeps no level
        monkeypatch.setattr(verify, "_REPS", {})
        assert check_compactness(3, 8).passed
        assert verify._REPS == {}

    def test_hereditary_growth_keeps_every_avoider(self):
        # one walk under the compactness keep gives, at every level, the
        # filtered census in code order
        members = [checked_family(kind, 3) for kind in KINDS]
        levels = verify._census(8, lambda t: not any(embeds(m, t) for m in members))
        assert [len(level) for level in levels] == [1, 1, 1, 2, 4, 10, 36, 143, 576]
        for s, level in enumerate(levels):
            every = [t for t in enumerate_tournaments(s) if s == 0 or not any(embeds(m, t) for m in members)]
            assert list(level) == [canonical_form(t).bits for t in every]


A000568 = (1, 1, 1, 2, 4, 12, 56, 456, 6880, 191536, 9733056)
# acyclically indecomposable (AI) classes on n = 0..12 vertices
AI_CLASSES = (1, 1, 0, 1, 2, 5, 26, 255, 4602, 147095, 8228360, 814376271, 144675514036)


def ai_class_counts(size):
    """AI classes on 0..size vertices: the cycle index at f(y) = y/(1 + y)."""
    return formulas._cycle_index_sum(size, [0] + [(-1) ** (j - 1) for j in range(1, size + 1)])


def oracle_ai_class_counts(size_bound):
    """The AI counts as check_compactness took them before the cycle index,
    kept verbatim: every class on s vertices less those whose acyclic
    quotient Q is smaller, which are Aut(Q)-orbits of chain lengths."""
    reducible = [0] * (size_bound + 1)
    for k in range(1, size_bound):
        for q in enumerate_tournaments(k):
            if is_acyclically_indecomposable(q):
                perms = core._group([g for g, _ in core._search(q.rows)[3]], k)
                by_total, _ = profiles._orbit_counts(perms, [((1, size_bound),) * k], k + 1, size_bound, 0, 10**6)
                for total, orbits in by_total.items():
                    reducible[total] += orbits
    return [formulas._cycle_index_sum(s, [0, 1])[s] - reducible[s] for s in range(size_bound + 1)]


class TestClassCounts:
    def test_davis_formula_is_a000568(self):
        assert tuple(formulas._cycle_index_sum(n, [0, 1])[n] for n in range(11)) == A000568

    def test_davis_formula_matches_census(self):
        for n in range(9):
            assert formulas._cycle_index_sum(n, [0, 1])[n] == len(enumerate_tournaments(n))

    def test_ai_counts_are_published_values(self):
        assert tuple(ai_class_counts(12)) == AI_CLASSES

    def test_ai_counts_match_quotient_loop_oracle(self):
        for size_bound in range(9):
            assert ai_class_counts(size_bound) == oracle_ai_class_counts(size_bound)

    def test_ai_counts_match_census(self):
        census = [sum(map(is_acyclically_indecomposable, enumerate_tournaments(n))) for n in range(9)]
        assert ai_class_counts(8) == census

    def test_quotient_orbits_count_every_class(self):
        # each class on s vertices is Q[chains] for exactly one acyclically
        # indecomposable Q on k <= s vertices and one Aut(Q)-orbit of lengths
        counts = [0] * 9
        for k in range(9):
            for q in enumerate_tournaments(k):
                if is_acyclically_indecomposable(q):
                    perms = core._group([g for g, _ in core._search(q.rows)[3]], k)
                    for total, orbits in profiles._orbit_counts(perms, [((1, 8),) * k], k, 8, 0, 10**6)[0].items():
                        counts[total] += orbits
        assert counts == [len(enumerate_tournaments(s)) for s in range(9)]


@pytest.mark.parametrize("call", [
    lambda: check_compactness(2, -1),
    # at 0 the report's checks cannot fail
    lambda: check_compactness(2, 0),
    lambda: check_decomposition(-1),
    # at 0 the suite would make no check at all
    lambda: check_decomposition(0),
    lambda: check_decomposition(7, samples_per_size=-3),
    lambda: check_duality(-1),
    lambda: check_incomparability(-1),
    lambda: check_profile_formulas(-1),
], ids=["compactness", "compactness_zero", "decomposition", "decomposition_zero", "decomposition_samples", "duality", "incomparability",
        "formulas"])
def test_negative_bound_out_of_range(call):
    with pytest.raises(TournamentError) as e:
        call()
    assert e.value.code == "OUT_OF_RANGE"


class TestReportShape:
    def test_json_parses_and_sorts(self):
        rep = check_duality(2)
        data = json.loads(rep.to_json())
        assert data["suite"] == "duality"
        assert data["passed"] is True
        assert "elapsed" not in data

    def test_timing_opt_in(self):
        rep = check_duality(2)
        data = json.loads(rep.to_json(include_timing=True))
        assert data["elapsed"] >= 0

    def test_report_keeps_its_own_clock(self):
        rep = SuiteReport("duality", {})
        assert rep.elapsed is None
        assert rep.finish() is rep
        assert rep.elapsed >= 0
        # the clock takes no part in equality or repr
        assert rep == SuiteReport("duality", {}, elapsed=rep.elapsed)
        assert "_start" not in repr(rep)
