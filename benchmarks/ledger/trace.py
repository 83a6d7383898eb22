"""In-memory span recorder wrapped around the program's layer boundaries.

The program is not edited: :func:`install` rebinds the public entry points
listed in ``TARGETS`` to thin wrappers that open and close a span (name,
layer, start, end, parent, query) on one shared stack. A layer is one of
this repository's packages. Module-level functions are imported *by name*
all over ``repro``, so a function is rebound in every ``repro.*`` module
whose global ``is`` the original. Service operations are wrapped as they
are registered, so :func:`install` must run before ``build_federation``.

Self time of a span is its duration minus the part its children cover; the
benchmark's own per-operation root span belongs to the pseudo-layer
``client``, so the layers' self times add up to the traced wall exactly.
``repro.sphere`` is called too often to wrap; its time lands in its
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Tuple

LAYERS = (
    "sql", "portal", "services", "soap", "transport", "skynode", "db",
    "htm", "zone", "xmatch", "shard", "ingest", "transactions", "tracing",
)
CLIENT = "client"
#: Spans of this many leading queries go to the trace file in full.
FILE_QUERIES = 32

#: (module, dotted attribute, layer). A class attribute is patched on the
#: class; a function is rebound wherever it was imported.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sql.parser", "parse_query", "sql"),
    ("repro.sql.printer", "to_sql", "sql"),
    ("repro.portal.portal", "Portal.submit", "portal"),
    ("repro.portal.decompose", "decompose", "portal"),
    ("repro.portal.planner", "Planner.performance_counts", "portal"),
    ("repro.portal.planner", "Planner.build_plan", "portal"),
    ("repro.portal.executor", "ChainExecutor.execute", "portal"),
    ("repro.portal.cache", "SemanticCache.lookup_exact", "portal"),
    ("repro.portal.cache", "SemanticCache.lookup_fingerprint", "portal"),
    ("repro.portal.cache", "SemanticCache.covering_entry", "portal"),
    ("repro.portal.cache", "SemanticCache.store_result", "portal"),
    ("repro.portal.scheduler", "QueryScheduler.drain", "portal"),
    ("repro.services.client", "ServiceProxy.call", "services"),
    ("repro.services.framework", "WebService.handle_soap", "services"),
    ("repro.soap.envelope", "build_rpc_request", "soap"),
    ("repro.soap.envelope", "build_rpc_response", "soap"),
    ("repro.soap.envelope", "parse_rpc_call", "soap"),
    ("repro.soap.envelope", "parse_rpc_response", "soap"),
    ("repro.soap.xmlparser", "parse_xml", "soap"),
    ("repro.soap.xmlparser", "XMLParser.parse", "soap"),
    ("repro.soap.xmlwriter", "render", "soap"),
    ("repro.soap.encoding", "encode_value", "soap"),
    ("repro.soap.encoding", "decode_value", "soap"),
    ("repro.transport.network", "SimulatedNetwork.request", "transport"),
    ("repro.db.engine", "Database.call_procedure", "skynode"),
    ("repro.db.engine", "Database.execute", "db"),
    ("repro.db.indexes", "batch_spatial_probe", "db"),
    ("repro.db.indexes", "batch_zone_probe", "db"),
    ("repro.db.table", "Table.insert_many", "db"),
    ("repro.db.table", "Table.spatial_arrays", "db"),
    ("repro.db.table", "Table.zone_arrays", "db"),
    ("repro.htm.batch", "batch_cap_covers", "htm"),
    ("repro.htm.cover", "cover", "htm"),
    ("repro.zone.index", "cap_windows", "zone"),
    ("repro.zone.index", "ZoneArrays.build", "zone"),
    ("repro.xmatch.kernel", "batch_match_step", "xmatch"),
    ("repro.xmatch.kernel", "batch_dropout_step", "xmatch"),
    ("repro.xmatch.kernel", "extend_pairs", "xmatch"),
    ("repro.xmatch.zone", "zone_match_step", "xmatch"),
    ("repro.xmatch.zone", "zone_dropout_step", "xmatch"),
    ("repro.xmatch.wire", "tuples_to_payload", "xmatch"),
    ("repro.xmatch.wire", "rowset_to_tuples", "xmatch"),
    ("repro.shard.ownership", "prune_members", "shard"),
    ("repro.shard.ownership", "members_for_tuple", "shard"),
    ("repro.shard.merge", "merge_seed_rows", "shard"),
    ("repro.shard.merge", "merge_match_lists", "shard"),
    ("repro.ingest.client", "IngestClient.ingest_rows", "ingest"),
    ("repro.transactions.coordinator", "TwoPhaseCoordinator.complete", "transactions"),
    ("repro.tracing.tracer", "Tracer.begin", "tracing"),
    ("repro.tracing.tracer", "Tracer.finish", "tracing"),
    ("repro.tracing.tracer", "Tracer.annotate", "tracing"),
    ("repro.tracing.tracer", "Tracer.add_wire_bytes", "tracing"),
    ("repro.tracing.tracer", "Tracer.trace_ids", "tracing"),
    ("repro.tracing.tracer", "Tracer.trace", "tracing"),
)

#: Byte counts read at a wrapped boundary: (target, what to measure).
_BYTE_COUNTS: Dict[str, Callable[[tuple, Any], int]] = {
    "render": lambda args, result: len(result),
    "XMLParser.parse": lambda args, result: len(args[1]),
}


class Recorder:
    """Spans as ``[name, layer, start, end, parent, query]`` rows."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counters: Counter = Counter()
        self.enabled = False
        self.query = -1
        self._patched: List[Tuple[Any, str, Any]] = []
        self._functions: List[Tuple[Callable, Callable]] = []

    # -- the benchmark's own root span per operation -----------------------------

    def open_root(self, name: str) -> int:
        self.query += 1
        index = len(self.spans)
        self.spans.append([name, CLIENT, time.perf_counter(), 0.0, -1, self.query])
        self.stack.append(index)
        return index

    def close_root(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        measure = _BYTE_COUNTS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                counters[name] += measure(args, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _rebind(old: Callable, new: Callable) -> None:
        """Point every ``repro.*`` module global that ``is old`` at ``new``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for global_name, value in list(vars(module).items()):
                if value is old:
                    setattr(module, global_name, new)

    def install(self) -> None:
        """Rebind every target; service operations wrap at registration."""
        for module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        for module_name, dotted, layer in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, attr = dotted.rpartition(".")
            if not owner_name:
                original = getattr(module, attr)
                wrapped = self.wrap(original, dotted, layer)
                self._functions.append((original, wrapped))
                self._rebind(original, wrapped)
                continue
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, dotted, layer))
            else:
                wrapped = self.wrap(raw, dotted, layer)
            self._patch(owner, attr, wrapped)

        from repro.services.framework import WebService

        register = WebService.__dict__["register"]
        recorder = self

        @functools.wraps(register)
        def traced_register(service, op_name, fn, **kwargs):
            package = getattr(fn, "__module__", "").split(".")
            layer = package[1] if len(package) > 1 and package[1] in LAYERS else "services"
            return register(service, op_name, recorder.wrap(fn, op_name, layer), **kwargs)

        self._patch(WebService, "register", traced_register)

    def uninstall(self) -> None:
        """Restore every binding, also in modules imported since install."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for original, wrapped in self._functions:
            self._rebind(wrapped, original)
        self._patched.clear()
        self._functions.clear()

    # -- aggregation ---------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Seconds of self time and number of calls per layer."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                covered[span[4]] += span[3] - span[2]
        seconds: Dict[str, float] = Counter()
        calls: Dict[str, int] = Counter()
        for span, inner in zip(spans, covered):
            seconds[span[1]] += span[3] - span[2] - inner
            calls[span[1]] += 1
        return seconds, calls

    def layer_metrics(self, queries: int) -> Dict[str, Tuple[float, str]]:
        seconds, calls = self.self_times()
        queries = max(queries, 1)
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS + (CLIENT,):
            out[f"{layer}.self_ms_per_query"] = (seconds[layer] * 1e3 / queries, "ms")
        for layer in LAYERS:
            out[f"{layer}.calls_per_query"] = (calls[layer] / queries, "count")
        out["soap.bytes_rendered_per_query"] = (self.counters["render"] / queries, "bytes")
        out["soap.bytes_parsed_per_query"] = (
            self.counters["XMLParser.parse"] / queries,
            "bytes",
        )
        return out

    def top_layers(self, count: int = 3) -> List[Tuple[str, float]]:
        """The ``count`` layers with the largest share of traced self time."""
        seconds, _ = self.self_times()
        total = sum(seconds.values()) or 1.0
        ranked = sorted(seconds.items(), key=lambda item: -item[1])
        return [(layer, value / total) for layer, value in ranked[:count]]

    def write(self, path, *, workload: str, seed: int) -> None:
        """The first ``FILE_QUERIES`` operations' spans, one JSON file."""
        remap: Dict[int, int] = {}
        rows: List[list] = []
        for index, span in enumerate(self.spans):
            if span[5] < FILE_QUERIES:
                remap[index] = len(rows)
                rows.append(span[:4] + [remap.get(span[4], -1), span[5]])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": workload,
                    "seed": seed,
                    "clock": "time.perf_counter seconds",
                    "columns": ["name", "layer", "start", "end", "parent", "query"],
                    "operations_traced": self.query + 1,
                    "operations_in_file": min(self.query + 1, FILE_QUERIES),
                    "spans": rows,
                },
                handle,
            )
