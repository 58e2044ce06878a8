"""Span tracing for the benchmark's traced run.

The tracer replaces module attributes that sinksim looks up at call time
(``sinksim.scenario.route``, ``FloodEngine.run_until``, ...) with wrappers
that record one span per call: name, start, end, parent span and the id of
the operation (sweep point or rotation) it belongs to.  Spans stay in memory
until the run ends.  Nothing in ``sinksim`` is edited; the wrappers are
removed again when the ``installed`` block exits.  A target that sinksim no
longer has is an error: the traced run fails rather than report a layer as
free.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from sinksim import energy, flood, routing, scenario

# (owner, attribute, span name).  Both places that look up next_hop_3rule are
# wrapped: route() in routing and the phase-4 walk of run_scenario.
TARGETS = [
    (scenario, "random_graph_point", "scenario.random_graph_point"),
    (scenario, "grid_point", "scenario.grid_point"),
    (scenario, "run_scenario", "scenario.run_scenario"),
    (scenario, "build_udg", "radio.build_udg"),
    (scenario, "init_virtual_coords", "routing.init_virtual_coords"),
    (scenario, "route", "routing.route"),
    (routing, "next_hop_3rule", "routing.next_hop_3rule"),
    (scenario, "next_hop_3rule", "routing.next_hop_3rule"),
    (scenario, "hop_exchange_timeline", "scenario.hop_exchange_timeline"),
    (scenario, "ack_backoff", "mac.ack_backoff"),
    (scenario, "timeline_coverage", "scenario.timeline_coverage"),
    (flood.FloodEngine, "run_until", "flood.FloodEngine.run_until"),
    (energy, "integrate_timeline", "energy.integrate_timeline"),
]

Span = Tuple[str, float, float, int, Optional[str]]


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.op: Optional[str] = None  # set by the caller before each operation
        self.route_hops = 0
        self.route_rounds = 0
        self._stack: List[int] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observe_route if name == "routing.route" else None

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_route(self, result) -> None:
        self.route_hops += result.hops
        self.route_rounds += result.rounds

    @contextmanager
    def installed(self):
        missing = [
            f"{owner.__name__}.{attr}" for owner, attr, _ in TARGETS if attr not in owner.__dict__
        ]
        if missing:
            raise LookupError(f"trace targets not found: {', '.join(missing)}")
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Calls and self time (span minus its child spans) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
        return dict(table)

    def write(self, path: str) -> None:
        """Spans as gzip CSV: index, name, start, end, parent index, op id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op}\n")
