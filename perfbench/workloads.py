"""The benchmark's workloads: tasks, budgets, seeded inputs and answer checks.

Stdlib only.  The parent process imports this module to check answers; each
child imports it to build its seeded inputs.  Neither may depend on tournkit
here, so the checks below do not trust the code they check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Safety budget of every task that is not a known cliff: at least 10x the
# slowest normal task (compactness, ~8-15 s on a 2-core Xeon).
NORMAL_BUDGET_S = 150.0


@dataclass(frozen=True)
class Task:
    """One fresh-process job.  ``budget_s`` counts from spawn to exit."""

    name: str
    job: str
    args: tuple
    budget_s: float = NORMAL_BUDGET_S
    cliff: bool = False


# Cliff budgets sit >= 10x below the cliff's own cost and below the slowest
# normal task of the workload, so a cliff never decides slowest_task_s.
SUITES = (
    Task("verify_decomposition", "cli", ("verify", "--suite", "decomposition", "--n-max", "6")),
    Task("verify_formulas", "cli", ("verify", "--suite", "formulas", "--n-max", "9")),
    Task("verify_incomparability", "cli", ("verify", "--suite", "incomparability", "--host-size", "14")),
    Task("verify_duality", "cli", ("verify", "--suite", "duality", "--max-chain", "5")),
    Task("verify_compactness", "cli", ("verify", "--suite", "compactness", "--n", "2", "--size-bound", "8")),
    # the n = 9 census: 191,536 classes, minutes of canonical calls
    Task("enumerate_n9", "cli", ("enumerate", "--n", "9"), budget_s=4.0, cliff=True),
)

SYMMETRIC = (
    Task("canonical_c3_9", "canonical", ("family", "c3", 9)),
    Task("canonical_paley43", "canonical", ("paley", 43)),
    Task("automorphisms_c3_10", "automorphisms", ("family", "c3", 10)),
    Task("automorphisms_t13", "automorphisms", ("family", "t", 13)),
    Task("automorphisms_paley31", "automorphisms", ("paley", 31)),
    Task("sum_profile_T5", "sum_profile", (("witness", "T5"), 12, None)),
    Task("sum_profile_cycle3", "sum_profile", (("cycle3",), 18, 3)),
    Task("canonical_random40", "canonical_batch", (40, 40)),
    # 3^12 equivalent branches: ~100 s
    Task("canonical_c3_12", "canonical", ("family", "c3", 12), budget_s=1.5, cliff=True),
    # rigid, yet the search grows ~2.4x per chain step: minutes
    Task("automorphisms_t20", "automorphisms", ("family", "t", 20), budget_s=1.5, cliff=True),
)

DECOMPOSE = (
    # the longest task on purpose: a single dominant task keeps slowest_task_s steady
    Task("decompose_chain40", "decompose", ("chain", 40)),
    Task("decompose_lex_cycle3_chain16", "decompose", ("lex_cycle3_chains", 16)),
    Task("decompose_c3_12", "decompose", ("family", "c3", 12)),
    Task("decompose_v9", "decompose", ("family", "v", 9)),
    Task("decompose_paley19", "decompose", ("paley", 19)),
    Task("decompose_random_prime19", "decompose", ("random_prime", 19)),
    Task("decompose_k20", "decompose", ("family", "k", 20)),
    Task("decompose_t20", "decompose", ("family", "t", 20)),
    # prime on 31 vertices: a 2^31 subset scan in is_indecomposable
    Task("decompose_v15", "decompose", ("family", "v", 15), budget_s=1.0, cliff=True),
)

WORKLOADS = {"suites": SUITES, "symmetric": SYMMETRIC, "decompose": DECOMPOSE}


# ---------------------------------------------------------------------------
# inputs (rows[i] is the out-neighbour bitmask of vertex i, as in tournkit)

def paley_rows(q: int) -> list[int]:
    """Paley tournament on Z_q (q prime, q = 3 mod 4): i beats j iff j - i is a square."""
    squares = {i * i % q for i in range(1, q)}
    return [sum(1 << j for j in range(q) if (j - i) % q in squares) for i in range(q)]


def random_rows(rng: random.Random, n: int) -> list[int]:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return rows


def relabel_rows(rows: list[int], perm: list[int]) -> list[int]:
    """Image under perm: vertex i becomes perm[i]."""
    out = [0] * len(rows)
    for i, r in enumerate(rows):
        out[perm[i]] = sum(1 << perm[j] for j in range(len(rows)) if (r >> j) & 1)
    return out


def is_prime(rows: list[int]) -> bool:
    """No module strictly between one vertex and all: every pair's module closure is everything."""
    n = len(rows)
    full = (1 << n) - 1
    for x in range(n):
        for y in range(x + 1, n):
            module = (1 << x) | (1 << y)
            while module != full:
                splitters = 0
                for z in range(n):
                    hits = rows[z] & module
                    if not (module >> z) & 1 and hits and hits != module:
                        splitters |= 1 << z
                if not splitters:
                    return False
                module |= splitters
    return n >= 3


def random_prime_rows(n: int, seed: int) -> list[int]:
    """First prime tournament drawn from the seeded stream."""
    rng = random.Random(f"random_prime:{n}:{seed}")
    while True:
        rows = random_rows(rng, n)
        if is_prime(rows):
            return rows


def canonical_batch(n: int, count: int, seed: int) -> list[list[int]]:
    """count random tournaments, each followed by a random relabeling of itself."""
    rng = random.Random(f"canonical_batch:{n}:{seed}")
    batch = []
    for _ in range(count):
        rows = random_rows(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        batch += [rows, relabel_rows(rows, perm)]
    return batch


# ---------------------------------------------------------------------------
# independent checks

def rows_from_code(n: int, bits: int) -> list[int]:
    """Decode a row-major upper-triangle code (first pair most significant)."""
    rows = [0] * n
    pos = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            pos -= 1
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return rows


def _refine(a, b, ca, cb):
    """Colour refinement run on both tournaments with a shared palette."""
    while True:
        sa = [(ca[v], tuple(sorted(ca[u] for u in range(len(a)) if (a[v] >> u) & 1))) for v in range(len(a))]
        sb = [(cb[v], tuple(sorted(cb[u] for u in range(len(b)) if (b[v] >> u) & 1))) for v in range(len(b))]
        palette = {s: i for i, s in enumerate(sorted(set(sa) | set(sb)))}
        na, nb = [palette[s] for s in sa], [palette[s] for s in sb]
        if sorted(na) != sorted(nb):
            return None
        if len(set(na)) == len(set(ca)):
            return na, nb
        ca, cb = na, nb


def isomorphic(a: list[int], b: list[int], ca=None, cb=None) -> bool:
    """Exact isomorphism test by refinement and individualisation."""
    n = len(a)
    if n != len(b):
        return False
    refined = _refine(a, b, ca or [0] * n, cb or [0] * n)
    if refined is None:
        return False
    ca, cb = refined
    if len(set(ca)) == n:
        where = {c: w for w, c in enumerate(cb)}
        m = [where[c] for c in ca]
        return all(((a[v] >> u) & 1) == ((b[m[v]] >> m[u]) & 1) for v in range(n) for u in range(n))
    cell = min((c for c in set(ca) if ca.count(c) > 1), key=ca.count)
    v = ca.index(cell)
    for w in (w for w in range(n) if cb[w] == cell):
        ia, ib = list(ca), list(cb)
        ia[v] = ib[w] = max(ca + cb) + 1  # a colour no vertex has yet
        if isomorphic(a, b, ia, ib):
            return True
    return False


def _restrict_rows(rows: list[int], vertices: list[int]) -> list[int]:
    return [sum(1 << k for k, u in enumerate(vertices) if (rows[v] >> u) & 1) for v in vertices]


def _matrix_rows(matrix: list[str]) -> list[int]:
    return [int(line[::-1], 2) for line in matrix]


def _acyclic(rows: list[int]) -> bool:
    return sorted(r.bit_count() for r in rows) == list(range(len(rows)))


def check_decomposition(answer: dict, input_rows: list[int], expect: dict) -> str | None:
    """Spectrum, block partition, quotient and flags of ``tournkit decompose``.

    The input labeling is fixed by construction, so the expected blocks of
    two or more vertices are vertex sets.  Block order and the quotient's
    labeling are the program's choice, so the quotient is checked against
    the input restricted to one vertex per reported block.
    """
    blocks = answer["blocks"]
    if sorted(map(len, blocks), reverse=True) != answer["spectrum"] or answer["spectrum"] != expect["spectrum"]:
        return f"spectrum {answer['spectrum']}"
    if sorted(v for b in blocks for v in b) != list(range(len(input_rows))):
        return "blocks do not partition the vertices"
    if sorted(sorted(b) for b in blocks if len(b) > 1) != expect["big_blocks"]:
        return "block partition differs"
    for b in blocks:
        members = sum(1 << v for v in b)
        if not _acyclic(_restrict_rows(input_rows, b)):
            return f"block {b} is not acyclic"
        if any(not (members >> z) & 1 and (input_rows[z] & members) not in (0, members)
               for z in range(len(input_rows))):
            return f"block {b} is not autonomous"
    quotient = answer["quotient"]
    if _matrix_rows(quotient["matrix"]) != _restrict_rows(input_rows, [b[0] for b in blocks]):
        return "quotient is not the input on one vertex per block"
    for flag in ("acyclically_indecomposable", "indecomposable"):
        if answer[flag] != expect[flag]:
            return f"{flag} = {answer[flag]}"
    return None


def expected_random_prime(n: int) -> dict:
    return {"spectrum": [1] * n, "big_blocks": [], "acyclically_indecomposable": True, "indecomposable": True}


def check(task: Task, answer: dict, seed: int, input_rows: list[int] | None) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    if task.job in ("cli", "decompose") and answer["exit"] != 0:
        return f"exit code {answer['exit']}"
    if task.job == "canonical_batch":
        n, count = task.args
        codes = answer["codes"]
        batch = canonical_batch(n, count, seed)
        if len(codes) != len(batch):
            return f"{len(codes)} codes for {len(batch)} inputs"
        for k in range(0, len(batch), 2):
            if codes[k] != codes[k + 1]:
                return f"input {k // 2}: relabeled copy gets another code"
            if not isomorphic(rows_from_code(n, int(codes[k], 16)), batch[k]):
                return f"input {k // 2}: code does not decode to an isomorphic copy"
        return None
    if task.job == "decompose":
        expect = expected_random_prime(task.args[1]) if task.args[0] == "random_prime" else EXPECTED[task.name]
        return check_decomposition(answer, input_rows, expect)
    got = {k: answer[k] for k in EXPECTED[task.name]}
    return None if got == EXPECTED[task.name] else f"got {got}"


# Answers at the commit that defined the benchmark.  Cliff answers:
# canonical_c3_12 from one run without a budget (~100 s); enumerate_n9 is
# OEIS A000568; automorphisms_t20 is 1 because colour refinement (_refine)
# already separates all 40 vertices of family("t", 20); decompose_v15's
# indecomposable flag is is_prime above, which agrees with tournkit's
# is_indecomposable on every family member up to length 5.
EXPECTED: dict[str, dict] = {
    "verify_decomposition": {"exit": 0, "passed": True,
                             "sha256": "64a13094c50ced7f0540de2ceb6055b3a92027e6c2a5ec34aec0f8f1b0d3d670"},
    "verify_formulas": {"exit": 0, "passed": True,
                        "sha256": "abfa762a53f072ca2fba00ce4bd7abd6e6f48fdece14f7edd0ad0f6a600f0fe3"},
    "verify_incomparability": {"exit": 0, "passed": True,
                               "sha256": "914f8aa104e928f9f4f1c7e92da5174dcf1e12a4b21cd0d99a44b53cdfefd567"},
    "verify_duality": {"exit": 0, "passed": True,
                       "sha256": "bec4b167ea4846623d945ca1f7d9eed10236a0599ef8b224ff73e7c7d5cb2707"},
    "verify_compactness": {"exit": 0, "passed": True,
                           "sha256": "d0694e2220c985c96b203b68cfb5624f702ae49e1710cfe5f22c79d426ad453c"},
    "enumerate_n9": {"exit": 0, "count": 191536, "listed": 191536},
    "canonical_c3_9": {"bits": "20000000000030000020000380000c0003c00038003e000f003f003e03f80fc3fc3fbfefffffffffff"},
    "canonical_paley43": {"bits": (
        "3ffffe007fe003ff0387e1fc070b70dc3872545c9327c2146be213943812c72f30695589baa305f28a34dc29c3646cf6"
        "07266e614434a5f12ac378b1571522d6d89628472b2a78f0728d3e502e0a5db9470b384d5949d4c8be6c44fb5e04cd7a"
        "e82ed322a5ae94929b19364666d82")},
    "canonical_c3_12": {"bits": (
        "80000000000000003000000010000000e00000018000003c000001c00000f800001e00003f00001f0000fe0001f8003f"
        "c001fc00ff801fe03ff01ff0ffe1ffbffdfffffffffffffffffff")},
    "automorphisms_c3_10": {"count": 59049},
    "automorphisms_t13": {"count": 1},
    "automorphisms_paley31": {"count": 465},
    "automorphisms_t20": {"count": 1},
    "sum_profile_T5": {"values": [1, 1, 1, 2, 2, 4, 6, 9, 15, 25, 39, 58, 86], "fit": None},
    "sum_profile_cycle3": {"values": [1, 1, 1, 2, 2, 3, 5, 6, 8, 11, 13, 16, 20, 23, 27, 32, 36, 41, 47],
                           "fit": [1, 0, -1, 0, 0, 1, 1]},
    "decompose_chain40": {"spectrum": [40], "big_blocks": [list(range(40))],
                          "acyclically_indecomposable": False, "indecomposable": False},
    "decompose_lex_cycle3_chain16": {"spectrum": [16, 16, 16],
                                     "big_blocks": [list(range(k, k + 16)) for k in (0, 16, 32)],
                                     "acyclically_indecomposable": False, "indecomposable": False},
    "decompose_c3_12": {"spectrum": [1] * 36, "big_blocks": [],
                        "acyclically_indecomposable": True, "indecomposable": False},
    "decompose_v9": {"spectrum": [1] * 19, "big_blocks": [],
                     "acyclically_indecomposable": True, "indecomposable": True},
    "decompose_paley19": {"spectrum": [1] * 19, "big_blocks": [],
                          "acyclically_indecomposable": True, "indecomposable": True},
    "decompose_k20": {"spectrum": [2] + [1] * 38, "big_blocks": [[0, 1]],
                      "acyclically_indecomposable": False, "indecomposable": False},
    "decompose_t20": {"spectrum": [2] + [1] * 38, "big_blocks": [[1, 38]],
                      "acyclically_indecomposable": False, "indecomposable": False},
    "decompose_v15": {"spectrum": [1] * 31, "big_blocks": [],
                      "acyclically_indecomposable": True, "indecomposable": True},
}
