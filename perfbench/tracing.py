"""Span tracing of the program's layers, installed from the benchmark's files.

:meth:`Tracer.install` replaces the public functions of each layer with thin
wrappers: the module attribute in every ``repro`` module that imported the
function, or the method on its class.  Nothing under ``src/`` changes.  A
wrapper records a span only while its thread is *armed* for an operation
(:meth:`Tracer.begin`); otherwise it calls straight through, so the same
process can time disarmed and armed rounds of identical work and report the
difference as the tracing overhead.

A span is ``(op, span_id, parent_id, name, start, end, extra)``.  Spans of one
operation share ``op``; the operation's own root span is named ``op``.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable

#: Wrapped module-level functions: (module, function, span name).
FUNCTIONS = (
    ("repro.core.xycore", "xy_core", "xycore.xy_core"),
    ("repro.core.xycore", "max_xy_core", "xycore.max_xy_core"),
    ("repro.core.exact_core", "core_exact", "driver.core_exact"),
    ("repro.core.exact_dc", "dc_exact", "driver.dc_exact"),
    ("repro.core.fixed_ratio", "maximize_fixed_ratio", "driver.fixed_ratio"),
    ("repro.core.fixed_ratio", "maximize_fixed_ratio_batch", "driver.fixed_ratio"),
    ("repro.core.flow_network", "build_decision_network", "network.build"),
    ("repro.service.planner", "plan_batch", "planner.plan"),
    ("repro.net.protocol", "graph_to_wire", "wire.encode"),
    ("repro.net.protocol", "encode_request", "wire.encode"),
    ("repro.net.protocol", "encode_response", "wire.encode"),
    ("repro.net.protocol", "decode_message", "wire.decode"),
    ("repro.net.protocol", "graph_from_wire", "wire.decode"),
    ("repro.incremental.maintain", "patch_degree_arrays", "update.patch_degrees"),
    ("repro.incremental.maintain", "refresh_cores", "update.refresh_cores"),
    ("repro.incremental.maintain", "migrate_network_cache", "update.patch_networks"),
    ("repro.incremental.maintain", "seed_cache_from", "update.patch_networks"),
    ("repro.incremental.certify", "certify_result", "update.certify"),
    ("repro.graph.generators", "gnm_random_digraph", "graph.build"),
    ("repro.graph.generators", "chung_lu_digraph", "graph.build"),
    ("repro.graph.generators", "powerlaw_digraph", "graph.build"),
    ("repro.graph.generators", "rmat_digraph", "graph.build"),
    ("repro.graph.generators", "planted_dds_digraph", "graph.build"),
    ("repro.graph.generators", "edge_update_stream", "graph.build"),
)

#: Wrapped methods: (module, class, method, span name).
METHODS = (
    ("repro.core.flow_network", "DecisionNetwork", "retune", "network.retune"),
    ("repro.core.flow_network", "DecisionNetwork", "extract_pair", "network.extract"),
    ("repro.flow.engine", "FlowEngine", "min_cut", "flow.min_cut"),
    ("repro.flow.engine", "FlowEngine", "min_cut_batch", "flow.min_cut"),
    ("repro.service.store", "SessionStore", "save_session", "store.save"),
    ("repro.service.store", "SessionStore", "warm_session", "store.warm"),
    ("repro.net.client", "ShardClient", "solve_lane", "client.solve_lane"),
    ("repro.net.daemon", "ShardDaemon", "_op_solve", "daemon.solve"),
    ("repro.session.session", "DDSSession", "apply_updates", "update.apply"),
    ("repro.graph.digraph", "DiGraph", "copy", "graph.build"),
)

_ENGINE_COUNTERS = ("flow_calls", "arcs_pushed", "warm_starts_used", "cold_starts")


def _engine_before(args: tuple) -> tuple[int, ...]:
    engine = args[0]
    return tuple(getattr(engine, name) for name in _ENGINE_COUNTERS)


def _engine_after(args: tuple, before: tuple[int, ...]) -> dict[str, int]:
    engine = args[0]
    return {
        name: getattr(engine, name) - was for name, was in zip(_ENGINE_COUNTERS, before)
    }


#: Span names whose calls also record counters: name -> (before, after).
EXTRAS: dict[str, tuple[Callable, Callable]] = {
    "flow.min_cut": (_engine_before, _engine_after),
}


class Tracer:
    """Collects spans from wrapped layer functions on armed threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def begin(self, op: Any, start: float | None = None) -> None:
        """Arm this thread for operation ``op``; its root span starts now."""
        self._local.op = op
        self._local.root = (next(self._ids), time.perf_counter() if start is None else start)
        self._local.stack = [self._local.root[0]]

    def end(self) -> None:
        """Close the armed operation's root span and disarm this thread."""
        end = time.perf_counter()
        root_id, start = self._local.root
        self.spans.append((self._local.op, root_id, None, "op", start, end, None))
        self._local.stack = None

    def record(self, name: str, start: float, end: float, extra: Any = None) -> None:
        """Add an already-timed span as a child of the current armed span."""
        local = self._local
        self.spans.append((local.op, next(self._ids), local.stack[-1], name, start, end, extra))

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` that records a span named ``name`` when armed."""
        local = self._local
        ids = self._ids
        spans = self.spans
        before_hook, after_hook = EXTRAS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            before = before_hook(args) if before_hook is not None else None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = after_hook(args, before) if after_hook is not None else None
                spans.append((local.op, span_id, parent, name, start, end, extra))

        return traced

    def install(self) -> None:
        """Wrap every layer function named in :data:`FUNCTIONS` and :data:`METHODS`."""
        for module_name, function, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, function)
            traced = self.wrap(name, original)
            # Rebind every alias: modules that did ``from x import f`` hold
            # their own reference, which is the one their code calls.
            for other_name, other in list(sys.modules.items()):
                if other is None or not (other_name == "repro" or other_name.startswith("repro.")):
                    continue
                for attribute, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attribute, traced)
        for module_name, class_name, method, name in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            setattr(cls, method, self.wrap(name, cls.__dict__[method]))
        digraph = importlib.import_module("repro.graph.digraph").DiGraph
        from_edges = digraph.__dict__["from_edges"].__func__
        digraph.from_edges = classmethod(self.wrap("graph.build", from_edges))


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def self_times(spans: list[tuple]) -> list[tuple[Any, str, float, float, Any]]:
    """``(op, name, self_seconds, duration, extra)`` for every span.

    Span ids are unique within one list, so spans gathered from several
    processes must be namespaced by the caller before they are merged.
    """
    child_time: dict[Any, float] = {}
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return [
        (op, name, (end - start) - child_time.get(span_id, 0.0), end - start, extra)
        for op, span_id, _, name, start, end, extra in spans
    ]
