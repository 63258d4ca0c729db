import pytest

from tournkit.core import (
    ChainSpec,
    TournamentError,
    automorphism_count,
    canonical_form,
    chain,
    cycle3,
    dual,
    embeds,
    is_acyclic,
    is_isomorphic,
    lex_sum,
    relabel,
    restrict,
)
from tournkit.decomp import (
    acyclic_components,
    is_acyclically_indecomposable,
    is_indecomposable,
    spectrum,
)
from tournkit.families import (
    KINDS,
    WITNESS_NAMES,
    checked_family,
    descending,
    family,
    family_size,
    schmerl_trotter,
    witness,
    witness_family,
)
from tournkit.verify import enumerate_tournaments


def edge_set(t):
    return {(i, j) for i in range(t.n) for j in range(t.n) if t.edge(i, j)}


class TestExpansions:
    # vertex (x,i) sits at index 2x+i; these edge lists were expanded by hand
    # from the five pair rules over the 2-chain
    def test_t_family_chain2(self):
        t = family("t", 2)
        assert edge_set(t) == {(0, 2), (1, 3), (0, 1), (2, 3), (3, 0), (2, 1)}

    def test_u_family_chain2(self):
        t = family("u", 2)
        assert edge_set(t) == {(0, 2), (0, 1), (2, 3), (0, 3), (1, 2), (3, 1)}

    def test_h_family_chain2(self):
        t = family("h", 2)
        assert edge_set(t) == {(0, 2), (0, 1), (2, 3), (1, 3), (3, 0), (1, 2)}

    def test_k_family_chain2(self):
        t = family("k", 2)
        assert edge_set(t) == {(0, 2), (0, 1), (2, 3), (3, 1), (3, 0), (1, 2)}

    def test_k_chain2_two_cycles_self_dual(self):
        t = family("k", 2)
        cycles = sum(
            1
            for a in range(4)
            for b in range(a + 1, 4)
            for c in range(b + 1, 4)
            if not is_acyclic(restrict(t, [a, b, c]))
        )
        assert cycles == 2
        assert is_isomorphic(dual(t), t)

    def test_c3_chain1(self):
        assert is_isomorphic(family("c3", 1), cycle3())

    def test_c3_is_blowup(self):
        assert is_isomorphic(family("c3", 2), lex_sum(chain(2), [cycle3(), cycle3()]))

    def test_v_apex_edges(self):
        t = family("v", 3)
        apex = 6
        for x in range(3):
            assert t.edge(apex, 2 * x)
            assert t.edge(2 * x + 1, apex)

    def test_sizes(self):
        for kind in KINDS:
            for length in range(1, 7):
                assert family(kind, length).n == family_size(kind, length)

    def test_empty_chain(self):
        for kind in KINDS:
            with pytest.raises(TournamentError) as e:
                family(kind, 0)
            assert e.value.code == "EMPTY_CHAIN"

    def test_descending_builds_reversed(self):
        spec = descending(3)
        assert spec.orientation == "desc"
        assert is_isomorphic(family("c3", spec), dual(family("c3", 3)))


class TestChecked:
    @pytest.mark.parametrize("kind,size", [("c3", 6), ("v", 5), ("t", 3), ("u", 4), ("h", 3), ("k", 3)])
    def test_checked_sizes_chain2(self, kind, size):
        assert checked_family(kind, 2).n == size

    def test_checked_always_acyclically_indecomposable(self):
        for kind in KINDS:
            for length in (2, 3, 4):
                assert is_acyclically_indecomposable(checked_family(kind, length))

    def test_c3_and_v_already_reduced(self):
        for length in (2, 3, 4):
            assert checked_family("c3", length).n == family("c3", length).n
            assert checked_family("v", length).n == family("v", length).n

    def test_k_checked_drops_one_vertex(self):
        for length in (2, 3, 4, 5):
            assert checked_family("k", length).n == 2 * length - 1


class TestStructure:
    def test_v_h_indecomposable(self):
        for length in (2, 3, 4):
            assert is_indecomposable(family("v", length))
            if length >= 3:
                assert is_indecomposable(family("h", length))

    def test_c3_reduced_but_not_simple(self):
        for length in (2, 3, 4):
            t = family("c3", length)
            assert is_acyclically_indecomposable(t)
            assert not is_indecomposable(t)

    def test_k_carries_one_acyclic_pair(self):
        # the K construction always has exactly one non-singleton acyclic
        # component, a pair; collapsing it gives the checked variant
        for length in (2, 3, 4):
            t = family("k", length)
            assert not is_acyclically_indecomposable(t)
            assert not is_indecomposable(t)
            assert spectrum(t) == (2,) + (1,) * (t.n - 2)

    def test_k_indecomposable_subsets_small(self):
        from itertools import combinations

        for length in (2, 3, 4):
            t = family("k", length)
            for k in range(4, t.n + 1):
                for sub in combinations(range(t.n), k):
                    assert not is_indecomposable(restrict(t, sub))

    def test_k_acyclic_pair_is_block(self):
        d = acyclic_components(family("k", 3))
        assert d.spectrum == (2, 1, 1, 1, 1)


class TestSchmerlTrotter:
    def test_sizes(self):
        for tag in ("t", "u", "v"):
            for h in (2, 3, 4):
                assert schmerl_trotter(tag, h).n == 2 * h + 1

    def test_t5_indecomposable(self):
        assert is_indecomposable(schmerl_trotter("t", 2))

    def test_h_too_small(self):
        with pytest.raises(TournamentError) as e:
            schmerl_trotter("v", 1)
        assert e.value.code == "H_TOO_SMALL"

    def test_v_matches_family(self):
        for h in (2, 3):
            assert is_isomorphic(schmerl_trotter("v", h), family("v", h))

    def test_t_u_one_vertex_short_of_family(self):
        for h in (2, 3):
            for tag in ("t", "u"):
                st = schmerl_trotter(tag, h)
                fam = family(tag, h + 1)
                hits = [
                    v
                    for v in range(fam.n)
                    if is_isomorphic(restrict(fam, [x for x in range(fam.n) if x != v]), st)
                ]
                assert hits

    def test_rigidity(self):
        for h in (2, 3):
            assert automorphism_count(schmerl_trotter("u", h)) == 1

    def test_critically_prime_classes(self):
        # prime classes whose every one-vertex deletion is not prime: on 5..8
        # vertices these are exactly the three classical tournaments of odd order
        for n, expected in ((5, 3), (6, 0), (7, 3), (8, 0)):
            critical = {
                canonical_form(t)
                for t in enumerate_tournaments(n)
                if is_indecomposable(t)
                and not any(is_indecomposable(restrict(t, [x for x in range(n) if x != v])) for v in range(n))
            }
            classical = set()
            if n % 2:
                classical = {canonical_form(schmerl_trotter(tag, (n - 1) // 2)) for tag in ("t", "u", "v")}
            assert len(critical) == expected
            assert critical == classical


class TestWitnesses:
    def test_tau1(self):
        t = witness("tau1")
        assert t.n == 6
        assert spectrum(t) == (1,) * 6
        assert is_isomorphic(t, family("c3", 2))

    def test_tau2_shape(self):
        # one vertex of a 3-cycle blown up into a 3-cycle
        t = witness("tau2")
        assert t.n == 5
        assert spectrum(t) == (1,) * 5
        assert is_isomorphic(t, lex_sum(cycle3(), [cycle3(), chain(1), chain(1)]))

    def test_tau2_block_position_irrelevant(self):
        variants = [
            lex_sum(cycle3(), [cycle3(), chain(1), chain(1)]),
            lex_sum(cycle3(), [chain(1), cycle3(), chain(1)]),
            lex_sum(cycle3(), [chain(1), chain(1), cycle3()]),
        ]
        codes = {is_isomorphic(variants[0], v) for v in variants}
        assert codes == {True}

    def test_tau2_enters_k_family(self):
        assert not embeds(witness("tau2"), family("k", 2))
        assert embeds(witness("tau2"), family("k", 3))

    def test_h3(self):
        t = witness("H3")
        assert t.n == 6
        assert is_indecomposable(t)
        assert is_isomorphic(t, family("h", 3))

    def test_unknown(self):
        with pytest.raises(TournamentError) as e:
            witness("tau9")
        assert e.value.code == "UNKNOWN_WITNESS"

    def test_table_order_and_families(self):
        assert WITNESS_NAMES == ("tau1", "tau2", "T5", "U7", "V7", "H3")
        assert [witness_family(name) for name in WITNESS_NAMES] == ["c3", "k", "t", "u", "v", "h"]
        with pytest.raises(TournamentError) as e:
            witness_family("tau9")
        assert e.value.code == "UNKNOWN_WITNESS"

    def test_each_witness_in_own_family(self):
        for name in ("tau1", "tau2", "T5", "U7", "V7", "H3"):
            w = witness(name)
            kind = witness_family(name)
            assert any(embeds(w, family(kind, length)) for length in range(1, 9))


class TestReversal:
    @pytest.mark.parametrize("kind", KINDS)
    def test_reversed_chain_is_descending_member(self, kind):
        # the module docstring's reversal: vertex w*x + i to w*(L-1-x) + i,
        # the apex of v kept, maps each ascending member onto the descending one
        w = 3 if kind == "c3" else 2
        for length in range(1, 41):
            t = family(kind, length)
            reversal = [w * (length - 1 - v // w) + v % w if v < w * length else v for v in range(t.n)]
            assert relabel(t, reversal) == family(kind, descending(length))


class TestDuality:
    @pytest.mark.parametrize("kind", ["c3", "v", "t", "h"])
    def test_dual_is_descending(self, kind):
        for length in (2, 3, 4):
            a = dual(family(kind, length))
            b = family(kind, ChainSpec(length, "desc"))
            assert is_isomorphic(a, b)

    def test_k_self_dual(self):
        for length in (2, 3, 4, 5):
            assert is_isomorphic(dual(family("k", length)), family("k", length))

    def test_u_mutual_embedding(self):
        for length in (2, 3):
            du = dual(family("u", length))
            assert embeds(du, family("u", ChainSpec(2 * length, "desc")))
            assert embeds(family("u", ChainSpec(length, "desc")), dual(family("u", 2 * length)))
