"""Desk-scale verification suites with deterministic, serialisable reports."""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import tfile
from .core import (
    CanonicalCode,
    ChainSpec,
    DESCENDING,
    Tournament,
    TournamentError,
    canonical_form,
    dual,
    embeds,
    is_acyclic,
    is_isomorphic,
    restrict,
    tournament_from_code,
)
from .decomp import (
    acyclic_components,
    is_acyclically_indecomposable,
    is_autonomous,
    is_monomorphic_part_oracle,
    monomorphic_components,
    reconstruct,
)
from .families import (
    KINDS,
    WITNESS_NAMES,
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
    formula_value,
)
from .profiles import profile_count, stabilized_profile


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checks: list[dict] = field(default_factory=list)
    counterexamples: list[dict] = field(default_factory=list)
    seed: int | None = None
    elapsed: float | None = None

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


_REPS: dict[int, list[Tournament]] = {}


def enumerate_tournaments(n: int) -> list[Tournament]:
    """Canonical representatives of all tournaments on n vertices, sorted by code.

    Grown by extending the (n-1)-vertex representatives with every possible
    new vertex and deduplicating canonically; every n-class restricts to some
    (n-1)-class, so the extension sweep is exhaustive.
    """
    if n < 0:
        raise TournamentError("OUT_OF_RANGE", "n must be non-negative")
    if n > 9:
        raise TournamentError("TOO_LARGE", "enumeration limited to n <= 9")
    if n in _REPS:
        return list(_REPS[n])
    if n <= 1:
        reps = [Tournament(n, [0] * n, validate=False)]
    else:
        seen = set()
        for parent in enumerate_tournaments(n - 1):
            for mask in range(1 << (n - 1)):
                rows = list(parent.rows)
                for j in range(n - 1):
                    if not (mask >> j) & 1:
                        rows[j] |= 1 << (n - 1)
                rows.append(mask)
                seen.add(canonical_form(Tournament(n, rows, validate=False)).bits)
        reps = [tournament_from_code(CanonicalCode(n, bits)) for bits in sorted(seen)]
    _REPS[n] = reps
    return list(reps)


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
    """Maximal monomorphic parts straight from the definition (small n only)."""
    n = t.n
    parts = []
    for mask in range(1, 1 << n):
        subset = [v for v in range(n) if (mask >> v) & 1]
        if is_monomorphic_part_oracle(t, subset):
            parts.append(set(subset))
    out = []
    for v in range(n):
        merged = set()
        for p in parts:
            if v in p:
                merged |= p
        out.append(tuple(sorted(merged)))
    return tuple(sorted(set(out), key=min))


def _check_one_decomposition(t: Tournament, report: SuiteReport, with_oracle: bool) -> bool:
    ok = True
    try:
        d = acyclic_components(t)
    except TournamentError as exc:
        report.counterexample("acyclic_components", t, error=str(exc))
        return False
    covered = sorted(v for b in d.blocks for v in b)
    if covered != list(range(t.n)):
        report.counterexample("partition", t)
        ok = False
    for b in d.blocks:
        if not (is_acyclic(restrict(t, b)) and is_autonomous(t, b)):
            report.counterexample("block_shape", t, block=list(b))
            ok = False
    if not is_acyclically_indecomposable(d.quotient) and t.n > 0:
        report.counterexample("quotient", t)
        ok = False
    if t.n > 0 and not is_isomorphic(reconstruct(d, t), t):
        report.counterexample("reconstruction", t)
        ok = False
    mono = monomorphic_components(t)
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
    report = SuiteReport("decomposition", {"n_max": n_max, "samples_per_size": samples_per_size}, seed=seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    for n in range(1, min(n_max, 6) + 1):
        reps = enumerate_tournaments(n)
        good = sum(_check_one_decomposition(t, report, with_oracle=True) for t in reps)
        report.add(f"exhaustive_n{n}", good == len(reps), classes=len(reps))
    for n in range(7, n_max + 1):
        ts = [_random_tournament(rng, n) for _ in range(samples_per_size)]
        good = sum(_check_one_decomposition(t, report, with_oracle=False) for t in ts)
        report.add(f"sampled_n{n}", good == len(ts), samples=len(ts))
    report.elapsed = time.perf_counter() - t0
    return report


_PROFILE_NMAX_CAP = 9


def check_profile_formulas(n_max: int) -> SuiteReport:
    """Stabilised family profiles against their closed forms and bounds."""
    if n_max > _PROFILE_NMAX_CAP:
        raise TournamentError("BUDGET_EXCEEDED", f"n_max above {_PROFILE_NMAX_CAP} is out of budget")
    report = SuiteReport("profile_formulas", {"n_max": n_max})
    t0 = time.perf_counter()
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
    ok_k = k[0] == 1 and k[1] == 1 and all(k[n] == formula_value(K_CLOSED, n) for n in range(2, len(k)))
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
    report.elapsed = time.perf_counter() - t0
    return report


def _own_family_truncation(name: str) -> tuple[int, bool]:
    """Smallest ascending chain length whose family member hosts the witness."""
    w = witness(name)
    kind = witness_family(name)
    for length in range(1, 13):
        if embeds(w, family(kind, length)):
            return length, True
    return 0, False


def check_incomparability(host_size: int = 14) -> SuiteReport:
    """Each witness embeds in its own family and in no truncation of the others."""
    report = SuiteReport("incomparability", {"host_size": host_size})
    t0 = time.perf_counter()
    for name in WITNESS_NAMES:
        w = witness(name)
        own = witness_family(name)
        length, found = _own_family_truncation(name)
        report.add(f"{name}_in_own_{own}", found, chain_length=length)
        for kind in KINDS:
            if kind == own:
                continue
            hit = None
            for orientation in ("asc", "desc"):
                max_len = _max_length_within(kind, host_size)
                if max_len < 1:
                    continue
                host = family(kind, ChainSpec(max_len, orientation))
                if embeds(w, host):
                    hit = (orientation, max_len)
            report.add(f"{name}_avoids_{kind}", hit is None, hit=hit)
            if hit is not None:
                report.counterexample(f"{name}_avoids_{kind}", w, host=[kind, *hit])
    report.elapsed = time.perf_counter() - t0
    return report


def _max_length_within(kind: str, host_size: int) -> int:
    length = 0
    while family_size(kind, length + 1) <= host_size:
        length += 1
    return length


def check_duality(max_chain: int = 5) -> SuiteReport:
    """Dual family members against the reversed-chain constructions."""
    report = SuiteReport("duality", {"max_chain": max_chain})
    t0 = time.perf_counter()
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
    report.elapsed = time.perf_counter() - t0
    return report


def check_compactness(n: int, size_bound: int = 8, threads: int = 1) -> SuiteReport:
    """Scan all small acyclically indecomposable tournaments for family avoidance.

    For each size s <= size_bound, lists the representatives that contain no
    checked family member over a chain of length n; reports the smallest s
    whose list is empty.
    """
    if n not in (2, 3):
        raise TournamentError("DOMAIN", "compactness scan supports chain lengths 2 and 3")
    if size_bound > 8:
        raise TournamentError("TOO_LARGE", "size bound limited to 8")
    # thread count is an execution detail and is kept out of the report so
    # serialised output does not depend on it
    report = SuiteReport("compactness", {"n": n, "size_bound": size_bound})
    t0 = time.perf_counter()
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
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                flags = list(pool.map(survives, reps))
        else:
            flags = [survives(t) for t in reps]
        avoiders = [t for t, f in zip(reps, flags) if f]
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
    report.elapsed = time.perf_counter() - t0
    return report
