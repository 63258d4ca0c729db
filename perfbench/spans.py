"""Outside-in tracing of tournkit's public functions.

The tracer rebinds each listed function in every ``tournkit`` module that
holds it, because ``verify``, ``profiles`` and ``decomp`` import them with
``from .core import ...``.  Nothing under ``src/`` is edited.  Spans
(name, start, end, parent) are kept in flat arrays while the task runs and
written out at the end; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

SPANNED = {
    "core": ("canonical_form", "restrict", "find_embedding", "automorphism_count", "lex_sum"),
    "decomp": ("separated", "acyclic_components", "is_acyclically_indecomposable",
               "is_indecomposable", "monomorphic_components"),
    "profiles": ("profile_count", "sum_profile", "stabilized_profile"),
    "verify": ("enumerate_tournaments", "check_decomposition", "check_profile_formulas",
               "check_incomparability", "check_duality", "check_compactness"),
    "families": ("family", "checked_family"),
    "tfile": ("dumps", "loads"),
    "cli": ("main",),
}
# Called once per scanned subset; a span each would cost more than the call.
COUNTED = {"decomp": ("is_autonomous",)}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns)

CANONICAL = SPAN_NAMES.index("core.canonical_form")
LEX_SUM = SPAN_NAMES.index("core.lex_sum")
PROFILE_COUNT = SPAN_NAMES.index("profiles.profile_count")
SUM_PROFILE = SPAN_NAMES.index("profiles.sum_profile")
ENUMERATE = SPAN_NAMES.index("verify.enumerate_tournaments")


class Tracer:
    """Span recorder for one task; ``install`` must run before the task starts."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = [0] * len(SPAN_NAMES)
        self.counts = {f"{mod}.{fn}.calls": 0 for mod, fns in COUNTED.items() for fn in fns}
        self.cache_hits = 0
        self._stack: list[int] = []
        self._enum_spans: list[tuple[int, int]] = []  # (span index, classes returned)

    def install(self) -> None:
        import tournkit.core

        self._canon_cache = tournkit.core._CANON_CACHE
        mods = [m for key, m in sys.modules.items() if key == "tournkit" or key.startswith("tournkit.")]
        for modname, fns in SPANNED.items():
            home = sys.modules[f"tournkit.{modname}"]
            for fn in fns:
                nid = SPAN_NAMES.index(f"{modname}.{fn}")
                self._rebind(mods, getattr(home, fn), self._span(nid, getattr(home, fn)))
        for modname, fns in COUNTED.items():
            home = sys.modules[f"tournkit.{modname}"]
            for fn in fns:
                self._rebind(mods, getattr(home, fn), self._counter(f"{modname}.{fn}.calls", getattr(home, fn)))

    @staticmethod
    def _rebind(mods, original, wrapper) -> None:
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, nid, fn):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        errors = self.errors
        clock = time.perf_counter
        canonical = nid == CANONICAL
        enumerate_ = nid == ENUMERATE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if canonical and args[0].rows in self._canon_cache:
                self.cache_hits += 1
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[nid] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if enumerate_:
                self._enum_spans.append((idx, len(result)))
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-layer numbers for this task, computed from the recorded spans."""
        import tournkit.core
        import tournkit.verify

        k = len(SPAN_NAMES)
        calls, self_s = [0] * k, [0.0] * k
        covered = [0.0] * len(self.start)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        # whether a profile_count / sum_profile span encloses span i, and the
        # innermost enclosing enumerate span (parents precede their children)
        in_count = bytearray(len(start))
        in_sum = bytearray(len(start))
        nearest_enum = [-1] * len(start)
        subsets = vectors = 0
        enum_calls: dict[int, int] = {}
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
                in_count[i] = in_count[p] or name[p] == PROFILE_COUNT
                in_sum[i] = in_sum[p] or name[p] == SUM_PROFILE
                nearest_enum[i] = p if name[p] == ENUMERATE else nearest_enum[p]
            if name[i] == CANONICAL:
                subsets += in_count[i]
                if nearest_enum[i] >= 0:
                    enum_calls[nearest_enum[i]] = enum_calls.get(nearest_enum[i], 0) + 1
            elif name[i] == LEX_SUM:
                vectors += in_sum[i]
        for i in range(len(start)):
            calls[name[i]] += 1
            self_s[name[i]] += (end[i] - start[i]) - covered[i]
        # only enumerate spans that returned and canonized count; an interrupted
        # one has no classes to show
        computed = {idx: size for idx, size in self._enum_spans if enum_calls.get(idx, 0)}
        out = {}
        for nid, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = calls[nid]
            out[f"{span}.self_s"] = self_s[nid]
            out[f"{span}.errors"] = self.errors[nid]
        out.update(self.counts)
        out["core.canonical_form.cache_hits"] = self.cache_hits
        out["core.canon_cache.entries"] = len(tournkit.core._CANON_CACHE)
        out["verify.reps_cache.entries"] = sum(len(reps) for reps in tournkit.verify._REPS.values())
        out["profiles.profile_count.subsets"] = subsets
        out["profiles.sum_profile.vectors"] = vectors
        out["verify.enumerate_tournaments.classes"] = sum(computed.values())
        out["verify.enumerate_tournaments.canonical_calls"] = sum(enum_calls[idx] for idx in computed)
        return out

    def dump(self, path, task: str) -> None:
        """Write the spans: a JSON header line, then the name, parent, start and end arrays."""
        header = {"task": task, "names": list(SPAN_NAMES), "spans": len(self.start),
                  "arrays": ["name:i32", "parent:i32", "start:f64", "end:f64"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
