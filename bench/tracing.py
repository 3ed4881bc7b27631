"""In-memory spans around cirelax's public functions, for the traced run.

Each public function is replaced, for the duration of a traced pass, in the
module namespace that calls it: ``cirelax.implication.is_polymatroid`` is the
name ``_verify_refutation`` looks up, ``cirelax.lp.simplex_solve`` the one
``optimal_lambda`` looks up.  The benchmark itself calls the entry points
through the ``cirelax`` package, so those are patched there.  Nothing inside
``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


def _entropic_name(args, kwargs) -> str:
    dist = args[0] if args else kwargs["d"]
    return "distributions.entropic_table." + ("exact" if dist.exact else "float")


# (module that looks the name up, attribute, span name or a function of the call)
PATCHES = (
    ("cirelax", "parse_dag", "core.parse"),
    ("cirelax", "parse_ci_lines", "core.parse"),
    ("cirelax", "check_recursive", "implication.check_recursive"),
    ("cirelax", "check_marginal", "implication.check_marginal"),
    ("cirelax", "validate_bound", "implication.validate_bound"),
    ("cirelax", "optimal_lambda", "lp.optimal_lambda"),
    ("cirelax.implication", "d_separated", "dag.d_separated"),
    ("cirelax.implication", "implies_positive", "atoms.implies_positive"),
    ("cirelax.implication", "parity_refutation", "implication.parity_refutation"),
    ("cirelax.implication", "is_polymatroid", "polymatroids.is_polymatroid"),
    ("cirelax.lp", "is_polymatroid", "polymatroids.is_polymatroid"),
    ("cirelax.implication", "entropic_table", _entropic_name),
    ("cirelax.implication", "random_distribution", "distributions.random_distribution"),
    ("cirelax.lp", "simplex_solve", "lp.simplex_solve"),
    ("cirelax.lp", "elemental_inequalities", "lp.elemental_inequalities"),
)

# Counts read off a call's return value, keyed by span name.
RESULT_COUNTS = {"lp.simplex_solve": ("lp.simplex_solve.pivots", lambda r: len(r.pivots))}


class Tracer:
    """Spans as ``[name, query, parent, start_ns, end_ns, child_ns]``.

    ``query`` is the identifier shared by every span of one request;
    ``parent`` is the index of the enclosing span, or -1.  ``child_ns`` is
    the total duration of direct children, so self time is
    ``end - start - child_ns``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.query = -1
        self._open: list[int] = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            parent = self._open[-1] if self._open else -1
            record = [label, self.query, parent, perf_counter_ns(), 0, 0]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter_ns()
                self._open.pop()
                if parent >= 0:
                    self.spans[parent][5] += record[4] - record[3]
            counter = RESULT_COUNTS.get(label)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Install the wrappers, and restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per span name: number of calls, total duration and self time (ns)."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for name, _, _, start, end, child in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child
        return calls, total, own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "query", "parent", "start_ns", "end_ns"],
                 "spans": [s[:5] for s in self.spans]},
                fh,
            )
