"""Desk-scale verification suites with deterministic, serialisable reports."""

from __future__ import annotations

import json
import random
import time
from array import array
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from . import tfile
from .core import (
    CanonicalCode,
    ChainSpec,
    DESCENDING,
    Tournament,
    TournamentError,
    _count,
    _group,
    _orbit,
    _search,
    canonical_form,
    dual,
    embeds,
    is_isomorphic,
    restrict,
    tournament_from_code,
)
from .decomp import (
    _bits,
    _is_monomorphic_in,
    _monomorphic_classes,
    _subset_code_table,
    acyclic_components,
    is_acyclically_indecomposable,
    reconstruct,
)
from .families import (
    KINDS,
    WITNESS_NAMES,
    _PATTERNS,
    checked_family,
    family,
    family_size,
    schmerl_trotter,
    witness,
    witness_family,
)
from .formulas import (
    C3_RECURRENCE,
    CAMERON_DIAMOND_FREE,
    H_LOWER,
    K_CLOSED,
    U_LOWER,
    V_LOWER,
    _cycle_index_sum,
    formula_value,
)
from .profiles import stabilized_profile


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checks: list[dict] = field(default_factory=list)
    counterexamples: list[dict] = field(default_factory=list)
    seed: int | None = None
    elapsed: float | None = None
    _start: float = field(default_factory=time.perf_counter, init=False, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        # any recorded counterexample fails the report even if a check forgot to
        return all(c["passed"] for c in self.checks) and not self.counterexamples

    def add(self, name: str, passed: bool, **details):
        entry = {"name": name, "passed": bool(passed)}
        if details:
            entry["details"] = details
        self.checks.append(entry)

    def counterexample(self, check: str, t: Tournament, **extra):
        entry = {"check": check, "tournament": tfile.dumps(t).splitlines()}
        entry.update(extra)
        self.counterexamples.append(entry)

    def finish(self) -> SuiteReport:
        """Set ``elapsed`` to the seconds since the report was made; returns the report."""
        self.elapsed = time.perf_counter() - self._start
        return self

    def to_json(self, include_timing: bool = False) -> str:
        # timing is excluded by default so equal runs serialise byte-identically
        payload = {
            "suite": self.suite,
            "params": self.params,
            "passed": self.passed,
            "checks": self.checks,
            "counterexamples": self.counterexamples,
            "seed": self.seed,
        }
        if include_timing:
            payload["elapsed"] = self.elapsed
        return json.dumps(payload, sort_keys=True, indent=2)


# levels 0..8 hold 7,412 classes in all, level 9 alone 191,536
_REPS: dict[int, list[Tournament]] = {}
_REPS_MAX = 8


def enumerate_tournaments(n: int) -> list[Tournament]:
    """Canonical representatives of all tournaments on n vertices, sorted by code.

    Level n of ``_census``, decoded.  Levels up to 8 are cached in ``_REPS``
    for the life of the process; level 9 is not, so each call for it walks
    the census again and only the caller holds its 191,536 tournaments.
    """
    if _count(n, "n") in _REPS:
        return list(_REPS[n])
    reps = [_decode(n, bits) for bits in _census(n)[n]]
    if n <= _REPS_MAX:
        _REPS[n] = reps
        return list(reps)
    return reps


def _census(n: int, keep=None) -> list[array]:
    """The sorted canonical codes of every level 0..n of the census.

    A depth-first walk of the canonical-augmentation tree (McKay,
    "Isomorph-free exhaustive generation", 1998) from the empty tournament:
    the children of a parent P are its one-vertex extensions by a new vertex
    w with out-neighbours ``mask``, kept only if (1) ``mask`` is least in its
    orbit under Aut(P), (2) w maximises the vertex invariant (score, number
    of 3-cycles through the vertex) and (3) w lies in the Aut(child) orbit of
    the maximising vertex placed first by the child's canonical labeling.
    Each class then comes out once, as the child of one class, with no
    dedupe set and no ``_CANON_CACHE`` use.

    One ``_search`` per child gives its code, labeling and Aut generators.
    The stack holds each pending parent as its rows, in the labeling it was
    built in, and those generators: no child is decoded or searched twice.
    The walk descends only into the children that ``keep``, shown in that
    labeling, accepts; with a hereditary class property ``keep``, level s
    holds exactly its classes on s vertices (level 0 is not tested).
    """
    # the limits of enumerate_tournaments, which the errors name; the CLI
    # walks here directly
    if _count(n, "n") > 9:
        raise TournamentError("TOO_LARGE", "enumeration limited to n <= 9",
                              {"consumed": n, "limit": 9, "where": "verify.enumerate_tournaments"})
    # codes have n(n-1)/2 <= 36 bits
    levels = [array("Q", [0])] + [array("Q") for _ in range(n)]
    stack = [((), [])] if n else []  # (rows, automorphism generators) of each parent
    while stack:
        rows, gens = stack.pop()
        m = len(rows)
        full = (1 << m) - 1
        cols = [full ^ r ^ 1 << j for j, r in enumerate(rows)]
        group = _group(gens, m)  # Aut(parent), the identity first
        cycles = [sum((rows[a] & cols[j]).bit_count() for a in _bits(rows[j])) for j in range(m)]
        # at_least[s]: the parent vertices scoring s or more; at_least[-1] is 0
        at_least = [sum(1 << j for j in range(m) if rows[j].bit_count() >= s) for s in range(m + 2)]
        for mask in range(1 << m):
            beaters, score = full ^ mask, mask.bit_count()
            # w's losers keep their score and its beaters gain one: none may outscore
            # w, and no automorphism of the parent may map mask below itself
            if mask & at_least[score + 1] or beaters & at_least[score] or any(
                    sum(1 << p[v] for v in _bits(mask)) < mask for p in group[1:]):
                continue
            rival_cycles = {j: cycles[j] + (cols[j] & mask if beaters >> j & 1 else rows[j] & beaters).bit_count()
                            for j in _bits((mask & at_least[score]) | (beaters & at_least[score - 1]))}
            w_cycles = sum((rows[a] & beaters).bit_count() for a in _bits(mask))
            if any(c > w_cycles for c in rival_cycles.values()):
                continue
            child = tuple(r | 1 << m if beaters >> j & 1 else r for j, r in enumerate(rows)) + (mask,)
            code, _, order, child_gens = _search(child)
            child_gens = [g for g, _ in child_gens]
            first = next(v for v in order if v == m or rival_cycles.get(v) == w_cycles)
            if first != m and not _orbit(1 << first, child_gens) >> m & 1:
                continue
            if keep is None or keep(Tournament(m + 1, child, validate=False)):
                if m + 1 < n:
                    stack.append((child, child_gens))
                levels[m + 1].append(code)
    return [array("Q", sorted(level)) for level in levels]


def _decode(n: int, bits: int) -> Tournament:
    return tournament_from_code(CanonicalCode(n, bits))


def _random_tournament(rng: random.Random, n: int) -> Tournament:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return Tournament(n, rows, validate=False)


def _oracle_partition(t: Tournament) -> tuple[tuple[int, ...], ...]:
    """Maximal monomorphic parts straight from the definition (small n only),
    tested on one table of the 2^n subset codes."""
    codes = _subset_code_table(t)
    parts = [mask for mask in range(1, 1 << t.n) if _is_monomorphic_in(codes, t.n, mask)]
    out = {tuple(_bits(reduce(or_, (p for p in parts if p >> v & 1)))) for v in range(t.n)}
    return tuple(sorted(out, key=min))


def _check_one_decomposition(t: Tournament, report: SuiteReport, with_oracle: bool) -> bool:
    ok = True
    try:
        # self-checks the partition, the block shapes and the quotient
        d = acyclic_components(t)
    except TournamentError as exc:
        report.counterexample("acyclic_components", t, error=str(exc))
        return False
    if t.n > 0 and not is_isomorphic(reconstruct(d, t), t):
        report.counterexample("reconstruction", t)
        ok = False
    mono = _monomorphic_classes(d)
    big_mono = {b for b in mono if len(b) >= 4}
    big_acyc = {b for b in d.blocks if len(b) >= 4}
    if big_mono != big_acyc:
        report.counterexample("large_components", t)
        ok = False
    if with_oracle and mono != _oracle_partition(t):
        report.counterexample("monomorphic_oracle", t)
        ok = False
    return ok


def check_decomposition(n_max: int, samples_per_size: int = 25, seed: int = 20260814) -> SuiteReport:
    """Decomposition laws, exhaustive to min(n_max, 6) and sampled above."""
    _count(n_max, "n_max", 1)
    _count(samples_per_size, "samples_per_size")
    report = SuiteReport("decomposition", {"n_max": n_max, "samples_per_size": samples_per_size}, seed=seed)
    rng = random.Random(seed)
    for n in range(1, min(n_max, 6) + 1):
        reps = enumerate_tournaments(n)
        good = sum(_check_one_decomposition(t, report, with_oracle=True) for t in reps)
        report.add(f"exhaustive_n{n}", good == len(reps), classes=len(reps))
    for n in range(7, n_max + 1):
        ts = [_random_tournament(rng, n) for _ in range(samples_per_size)]
        good = sum(_check_one_decomposition(t, report, with_oracle=False) for t in ts)
        report.add(f"sampled_n{n}", good == len(ts), samples=len(ts))
    return report.finish()


_PROFILE_NMAX_CAP = 9


def check_profile_formulas(n_max: int) -> SuiteReport:
    """Stabilised family profiles against their closed forms and bounds."""
    if _count(n_max, "n_max") > _PROFILE_NMAX_CAP:
        raise TournamentError("BUDGET_EXCEEDED", f"n_max above {_PROFILE_NMAX_CAP} is out of budget",
                              {"consumed": n_max, "limit": _PROFILE_NMAX_CAP, "where": "verify.check_profile_formulas"})
    report = SuiteReport("profile_formulas", {"n_max": n_max})
    v_known = (1, 1, 1, 2, 4, 9, 21, 48)

    profiles = {}
    for kind in KINDS:
        cap = n_max if kind == "c3" else min(n_max, 7)
        vals, sizes = stabilized_profile(lambda size, k=kind: family(k, size), cap)
        profiles[kind] = vals
        report.add(f"stabilized_{kind}", True, values=vals, sizes=list(sizes))

    c3 = profiles["c3"]
    report.add("c3_recurrence", all(c3[n] == formula_value(C3_RECURRENCE, n) for n in range(len(c3))), values=c3)
    k = profiles["k"]
    ok_k = all(k[n] == (formula_value(K_CLOSED, n) if n >= 2 else 1) for n in range(len(k)))
    report.add("k_closed_form", ok_k, values=k)
    tvals = profiles["t"]
    ok_t = tvals[0] == 1 and all(tvals[n] == formula_value(CAMERON_DIAMOND_FREE, n) for n in range(1, len(tvals)))
    report.add("t_cameron", ok_t, values=tvals)
    v = profiles["v"]
    ok_v = tuple(v[: len(v_known)]) == v_known[: len(v)]
    ok_v = ok_v and all(v[n] >= formula_value(V_LOWER, n) for n in range(len(v)))
    report.add("v_values_and_bound", ok_v, values=v)
    u = profiles["u"]
    report.add("u_lower_bound", all(u[n] >= formula_value(U_LOWER, n) for n in range(len(u))), values=u)
    h = profiles["h"]
    report.add("h_lower_bound", all(h[n] >= formula_value(H_LOWER, n) for n in range(len(h))), values=h)
    return report.finish()


def check_incomparability(host_size: int = 14) -> SuiteReport:
    """Each witness embeds in its own family and in no truncation of the others.

    A kind's omega- and omega*-indexed tournaments have one age (the
    reversal lemma in ``families``), so one host per kind stands for both:
    its longest ascending member within ``host_size`` vertices.  An m-vertex
    tournament meets at most m chain positions, so it lies in a kind's age
    iff it embeds in ``family(kind, m)``.  From host size 21 every host's
    chain is at least as long as every witness has vertices, and the suite
    checks the ages exactly.  A kind with no member within ``host_size``
    vertices has no host and no avoidance check.
    """
    _count(host_size, "host size")
    report = SuiteReport("incomparability", {"host_size": host_size})
    lengths = {kind: _max_length_within(kind, host_size) for kind in KINDS}
    hosts = {kind: family(kind, length) for kind, length in lengths.items() if length}
    for name in WITNESS_NAMES:
        w, own = witness(name), witness_family(name)
        # the shortest ascending member of its own family that hosts it, 0 if none up to 12
        length = next((n for n in range(1, 13) if embeds(w, family(own, n))), 0)
        report.add(f"{name}_in_own_{own}", length > 0, chain_length=length)
        for kind in (k for k in hosts if k != own):
            hit = lengths[kind] if embeds(w, hosts[kind]) else None
            report.add(f"{name}_avoids_{kind}", hit is None, hit=hit)
            if hit is not None:
                report.counterexample(f"{name}_avoids_{kind}", w, host=[kind, hit])
    return report.finish()


def _max_length_within(kind: str, host_size: int) -> int:
    # family_size(kind, L) is L times the kind's levels plus family_size(kind, 0), v's apex
    return max(0, (host_size - family_size(kind, 0)) // _PATTERNS[kind][0])


def check_duality(max_chain: int = 5) -> SuiteReport:
    """Dual family members against the reversed-chain constructions.

    ``schmerl_trotter("v", h)`` is ``family("v", h)``, so ``classical_v_h2``
    and ``classical_v_h3`` compare one tournament with itself; they stay so
    that the report keeps its bytes."""
    _count(max_chain, "max chain")
    report = SuiteReport("duality", {"max_chain": max_chain})
    for length in range(2, max_chain + 1):
        desc = ChainSpec(length, DESCENDING)
        for kind in ("c3", "v", "t", "h"):
            ok = is_isomorphic(dual(family(kind, length)), family(kind, desc))
            report.add(f"dual_{kind}_{length}", ok)
        report.add(f"dual_k_selfdual_{length}", is_isomorphic(dual(family("k", length)), family("k", length)))
        du = dual(family("u", length))
        fwd = embeds(du, family("u", ChainSpec(2 * length, DESCENDING)))
        bwd = embeds(family("u", ChainSpec(length, DESCENDING)), dual(family("u", 2 * length)))
        report.add(f"dual_u_mutual_{length}", fwd and bwd)
    for h in (2, 3):
        for tag in ("t", "u"):
            st = schmerl_trotter(tag, h)
            fam = family(tag, h + 1)
            matches = [v for v in (0, 1) if is_isomorphic(restrict(fam, [x for x in range(fam.n) if x != v]), st)]
            report.add(f"classical_{tag}_h{h}", bool(matches), removed_vertex=matches)
        report.add(f"classical_v_h{h}", is_isomorphic(schmerl_trotter("v", h), family("v", h)))
    return report.finish()


def check_compactness(n: int, size_bound: int = 8) -> SuiteReport:
    """Scan all small acyclically indecomposable tournaments for family avoidance.

    For each size s <= size_bound, lists the representatives that contain no
    checked family member over a chain of length n; reports the smallest s
    whose list is empty.

    No level of the census above size_bound - 1 is built:

    - The avoiders come from one depth-first walk of ``_census`` whose
      ``keep`` embeds no member, so it descends only into avoiders.
      Avoiding is hereditary and canonical augmentation makes each class
      once, from its canonical parent, so each level is the list, in code
      order, that filtering ``enumerate_tournaments(s)`` gives.
    - The candidates, the acyclically indecomposable (AI) classes on s
      vertices, are counted.  Every tournament is, in exactly one way,
      Q[chains] with Q its acyclic quotient, which is AI: as species,
      T = A o L+ with L+ the non-empty chains, whose cycle index p_1/(1 - p_1)
      involves p_1 alone, so ``_cycle_index_sum`` at f(y) = y/(1 + y), the
      inverse of y/(1 - y), counts the AI classes.
    """
    if type(n) is not int or n not in (2, 3):
        raise TournamentError("DOMAIN", "compactness scan supports chain lengths 2 and 3")
    # at least 1: at 0 only the member_* and smallest_empty_size checks remain, and neither can fail
    if _count(size_bound, "size bound", 1) > 8:
        raise TournamentError("TOO_LARGE", "size bound limited to 8",
                              {"consumed": size_bound, "limit": 8, "where": "verify.check_compactness"})
    report = SuiteReport("compactness", {"n": n, "size_bound": size_bound})
    members = {}  # one member per class, read back by size and code
    for kind in KINDS:
        m = checked_family(kind, n)
        report.add(f"member_{kind}", True, size=m.n)
        members.setdefault((m.n, canonical_form(m).bits), m)
    members = [members[key] for key in sorted(members)]

    candidates = _cycle_index_sum(size_bound, [0] + [(-1) ** (j - 1) for j in range(1, size_bound + 1)])
    smallest_empty = None
    levels = _census(size_bound, lambda t: not any(embeds(m, t) for m in members))
    for s in range(1, size_bound + 1):
        level = (_decode(s, bits) for bits in levels[s])
        avoiders = [t for t in level if is_acyclically_indecomposable(t)]
        # the grown avoiders must fit among the counted candidates
        report.add(
            f"size_{s}",
            len(avoiders) <= candidates[s],
            candidates=candidates[s],
            avoiders=[tfile.dumps(t).splitlines() for t in avoiders],
        )
        if not avoiders and smallest_empty is None:
            smallest_empty = s
    report.add("smallest_empty_size", True, value=smallest_empty if smallest_empty is not None else "NOT_REACHED")
    return report.finish()
