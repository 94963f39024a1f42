"""Per-layer spans for the traced benchmark run, recorded from outside the package.

Nothing under ``src/`` knows about tracing.  `Tracer.install` replaces
each traced function at the place its callers look it up (a class
attribute for engine methods, a module global for functions imported
by name) and `Tracer.uninstall` puts the originals back, so untraced
operations run the unmodified code.

Every span adds its duration to its parent's child time; a layer's
self time is its spans' total minus their children.  Calls made
millions of times per operation (factorize, digits_of, the classifier
test, each step of value_stream) are aggregated into per-layer totals;
every other span is also kept as a record (id, parent id, name, start
and end in ns) in memory until the run writes its trace file.
"""

from __future__ import annotations

import functools
import time

_now = time.perf_counter_ns

# layer name -> [(module or class path, attribute)], in the order installed
TARGETS = {
    "cli": [("normfreq.cli", "main")],
    "arith.factorize": [("normfreq.arith:ArithEngine", "factorize")],
    "arith.value_stream": [("normfreq.arith:ArithEngine", "value_stream")],
    "arith.spf_sieve": [("normfreq.arith", "spf_table")],
    # the prime sieve has no public entry of its own: nth_prime,
    # prime_stream and primes_upto all reach it through this method
    "arith.prime_sieve": [("normfreq.arith:ArithEngine", "_ensure_primes_upto")],
    "arith.table": [
        ("normfreq.arith:ArithEngine", "phi_table"),
        ("normfreq.arith:ArithEngine", "sigma_table"),
        ("normfreq.arith:ArithEngine", "lambda_table"),
        ("normfreq.arith:ArithEngine", "value_table"),
    ],
    "arith.chain_values": [("normfreq.arith:ArithEngine", "chain_values")],
    "words.digits": [
        ("normfreq.words", "digits_of"),
        ("normfreq.ngrams", "digits_of"),
        ("normfreq.experiments", "digits_of"),
    ],
    "words.classify": [("normfreq.words", "is_eps_k_normal")],
    "ngrams.count_stream": [("normfreq.ngrams", "count_stream")],
    # the digit-materialization loop inside count_stream; if a later
    # version removes this helper, its time shows in count_stream's
    "ngrams.materialize": [("normfreq.ngrams", "_materialize")],
    "ngrams.classify": [
        ("normfreq.ngrams", "classify_checkpoints"),
    ],
    "experiments.census": [
        ("normfreq.experiments", name)
        for name in (
            "small_lambda_census",
            "divisor_preimage_census",
            "small_value_census",
            "thin_preimage_census",
            "growth_hypothesis_check",
            "extremal_ratio_report",
        )
    ],
    "reports.json": [("normfreq.reports", "canonical_json")],
}

HOT = {"arith.factorize", "arith.value_stream", "words.digits", "words.classify"}

_TABLE_METHODS = {"phi_table", "sigma_table", "lambda_table"}


def _resolve(path: str, modules: dict):
    module, _, cls = path.partition(":")
    owner = modules[module]
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span bookkeeping for one operation at a time.

    `clear` starts a fresh operation; `snapshot` returns its per-layer
    calls, self times and counters.
    """

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # the wrappers close over these containers: `clear` empties them
        # in place and nothing rebinds them
        self.stats: dict[str, list[int]] = {name: [0, 0] for name in TARGETS}
        self.counters: dict[str, int] = {}
        self.records: list[tuple[int, int, str, int, int]] = []
        self._stack: list[list[int]] = [[0, 0]]  # per open span: [child ns, span id]
        self._next_id = 1
        self._tables_seen: list[object] = []

    def clear(self) -> None:
        """Zero every accumulator before the next operation."""
        for stat in self.stats.values():
            stat[0] = stat[1] = 0
        self.counters.clear()
        self.records.clear()
        del self._stack[1:]
        self._stack[0][0] = 0
        self._next_id = 1
        self._tables_seen.clear()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def snapshot(self) -> dict:
        return {
            "calls": {name: s[0] for name, s in self.stats.items()},
            "self_ns": {name: s[1] for name, s in self.stats.items()},
            "counters": dict(self.counters),
        }

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, fn, after=None):
        stat = self.stats[layer]
        stack = self._stack
        records = None if layer in HOT else self.records
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, 0]
            if records is not None:
                frame[1] = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur - frame[0]
                parent[0] += dur
                if records is not None:
                    records.append((frame[1], parent[1], layer, start, end))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_generator(self, layer: str, fn):
        """Time every step of a returned iterator as one span."""
        stat = self.stats[layer]
        stack = self._stack

        class Steps:
            __slots__ = ("_it",)

            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                frame = [0, 0]
                parent = stack[-1]
                stack.append(frame)
                start = _now()
                try:
                    return next(self._it)
                finally:
                    dur = _now() - start
                    stack.pop()
                    stat[0] += 1
                    stat[1] += dur - frame[0]
                    parent[0] += dur

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return Steps(fn(*args, **kwargs))

        return wrapper

    # -- counters read from arguments and results ------------------------------

    def _after_spf(self, spf):
        self.count("arith.sieve_builds")
        self.count("arith.sieve_entries", len(spf))
        self.peak("arith.spf_limit", len(spf) - 1)

    def _wrap_prime_sieve(self, fn):
        tracer = self

        @functools.wraps(fn)
        def method(engine, limit):
            before = engine._prime_limit
            out = fn(engine, limit)
            if engine._prime_limit != before:
                tracer.count("arith.sieve_builds")
                tracer.count("arith.sieve_entries", engine._prime_limit + 1)
            return out

        return self._wrap("arith.prime_sieve", method)

    def _after_table(self, table):
        # a table method hands back the engine's cached array unless it
        # had to build one, so a new array object marks a build
        if not any(table is seen for seen in self._tables_seen):
            self._tables_seen.append(table)
            self.count("arith.table_builds")
            self.count("arith.table_entries", len(table))

    def _after_count_stream(self, report):
        self.count("ngrams.windows", report.window_count)
        self.count(
            "ngrams.report_entries",
            len(report.counts)
            + len(report.complete_counts)
            + len(report.boundary_counts)
            + len(report.tail_counts),
        )

    def _after_json(self, text):
        self.count("reports.json_bytes", len(text))

    # -- install / uninstall -------------------------------------------------

    def install(self, modules: dict) -> None:
        """Patch every target present in `modules` (import name -> module)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, places in TARGETS.items():
            for path, attr in places:
                owner = _resolve(path, modules)
                original = owner.__dict__.get(attr)
                if original is None:
                    if f"{path}.{attr}" not in self.missing:
                        self.missing.append(f"{path}.{attr}")
                    continue
                if layer == "arith.value_stream":
                    wrapped = self._wrap_generator(layer, original)
                elif layer == "arith.prime_sieve":
                    wrapped = self._wrap_prime_sieve(original)
                elif layer == "arith.spf_sieve":
                    wrapped = self._wrap(layer, original, self._after_spf)
                elif layer == "arith.table" and attr in _TABLE_METHODS:
                    wrapped = self._wrap(layer, original, self._after_table)
                elif layer == "ngrams.count_stream":
                    wrapped = self._wrap(layer, original, self._after_count_stream)
                elif layer == "reports.json":
                    wrapped = self._wrap(layer, original, self._after_json)
                else:
                    wrapped = self._wrap(layer, original)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
