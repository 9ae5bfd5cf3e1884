"""Span tracing from outside the program.

The traced run replaces public functions at the module attributes where the
pipeline looks them up (``fourblocks.decomposition.finalize`` and so on),
so the spans follow whatever orchestration the pipeline has, and nothing in
``src/`` is edited. ``patched`` restores every attribute on exit, so an
untraced operation never runs a wrapper.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from fourblocks import decomposition, digraph, hamiltonian, witness
from fourblocks.errors import BudgetExceeded


@dataclass
class Span:
    op: int  # spans of one operation share this id
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "op": self.op,
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    """Keeps spans and counters in memory; nothing is written while tracing."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._op = -1

    @contextmanager
    def span(self, name: str, op: Optional[int] = None):
        if op is not None:
            self._op = op
        parent = self._stack[-1].sid if self._stack else None
        s = Span(self._op, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None):
        """fn inside a span; count(result, exc) may bump counters."""

        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except BudgetExceeded as exc:
                    if count is not None:
                        count(None, exc)
                    raise
            if count is not None:
                count(result, None)
            return result

        return traced

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s.sid: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def _bump(tracer: Tracer, key: str, when: Callable):
    def count(result, exc):
        if when(result, exc):
            tracer.counts[key] += 1

    return count


def patch_targets(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """(module, attribute, replacement) for every traced boundary."""
    dec, ham = decomposition, hamiltonian
    c = tracer.counts

    def search_count(result, exc):
        c["witness.search_calls"] += 1
        c["witness.found"] += result is not None

    def chord_count(result, exc):
        c["hamiltonian.chord_violations"] += len(result)

    kernel = witness._kernel
    search_kernel = kernel.search_cycle_subdivision

    def counted_kernel(*args):
        status, payload, nodes = search_kernel(*args)
        c["witness.search_nodes"] += nodes
        return status, payload, nodes

    w = tracer.wrap
    return [
        (digraph, "parse_digraph", w("digraph.parse", digraph.parse_digraph)),
        (dec, "color_strong_digraph", w("decomposition.pipeline", dec.color_strong_digraph)),
        (dec, "is_strongly_connected", w("digraph.strong", dec.is_strongly_connected)),
        (dec, "spanning_out_tree", w("outtree.bfs", dec.spanning_out_tree)),
        (dec, "finalize", w("outtree.finalize", dec.finalize)),
        (dec, "level_classes", w("decomposition.level_classes", dec.level_classes)),
        (dec, "arc_partition", w("decomposition.arc_partition", dec.arc_partition)),
        (
            dec,
            "color_d1",
            w(
                "decomposition.color_d1",
                dec.color_d1,
                _bump(tracer, "decomposition.stage_failures.d1",
                      lambda r, e: isinstance(r, dec.WheelCoreFailure)),
            ),
        ),
        (
            dec,
            "color_d2",
            w(
                "decomposition.color_d2",
                dec.color_d2,
                _bump(tracer, "decomposition.stage_failures.d2",
                      lambda r, e: isinstance(r, dec.OutDegreeFailure)),
            ),
        ),
        (
            dec,
            "color_d3",
            w(
                "decomposition.color_d3",
                dec.color_d3,
                _bump(tracer, "decomposition.stage_failures.d3",
                      lambda r, e: e is not None or isinstance(r, dec.TwoBlockPathWitness)),
            ),
        ),
        (dec, "product_coloring", w("digraph.product", dec.product_coloring)),
        (dec, "find_cycle_subdivision",
         w("witness.search", dec.find_cycle_subdivision, search_count)),
        (dec, "verify_subdivision", w("witness.verify", dec.verify_subdivision)),
        (ham, "color_hamiltonian", w("hamiltonian.color", ham.color_hamiltonian)),
        (ham, "peel_low_degree", w("hamiltonian.peel", ham.peel_low_degree)),
        (ham, "find_cycle_subdivision",
         w("witness.search", ham.find_cycle_subdivision, search_count)),
        (ham, "check_chord_neighbor_bound",
         w("hamiltonian.chord", ham.check_chord_neighbor_bound, chord_count)),
        (kernel, "search_cycle_subdivision", counted_kernel),
    ]


@contextmanager
def patched(targets):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, repl in targets:
            setattr(mod, attr, repl)
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
