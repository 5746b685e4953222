"""Spans around calls into the entrate modules, recorded from outside them.

``Tracer.install`` replaces each traced public function, in every entrate
module that holds it, by a timed wrapper; the package source is not
touched.  A span is (operation id, span id, parent span id, name, metric,
start, end); each operation is itself a root span named ``op``.  Spans stay in
memory until ``write``.  Times are the process's CPU seconds
(``time.process_time``): on a shared machine the wall time of one
operation can double while its CPU time moves by a few percent.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
import types

# Traced functions: (module, function, span name of the layer metric it
# feeds, whether its peak allocation is measured).
TARGETS = (
    ("qcore", "state_from_json", "qcore.decode", True),
    ("qcore", "matrix_from_json", "qcore.decode", True),
    ("qcore", "matrix_to_json", "qcore.encode", False),
    ("qcore", "state_to_json", "qcore.encode", False),
    ("qcore", "schmidt_decompose", "qcore.schmidt_decompose", False),
    ("rate", "schmidt_block", "rate.schmidt_block", True),
    ("rate", "energy_stats", "rate.energy_stats", True),
    ("rate", "gamma_rate", "rate.gamma_rate", False),
    ("oracle", "fd_rate", "oracle.fd_rate", True),
    ("optimum", "optimal_gamma", "optimum.optimal_gamma", False),
    ("optimum", "build_optimal_hamiltonian", "optimum.build_optimal_hamiltonian", False),
    ("optimum", "brute_force_max_k", "optimum.brute_force_max_k", False),
    ("ancilla", "sup_search", "ancilla.sup_search", False),
    ("ancilla", "recover_g", "ancilla.recover_g", False),
    ("ancilla", "assemble_and_arbitrate", "ancilla.assemble_and_arbitrate", False),
)
MODULES = ("qcore", "rate", "oracle", "optimum", "ancilla", "cli")
SPAN_FIELDS = ("op", "span", "parent", "name", "metric", "start", "end")
# Calls whose arguments and result are kept for the reference checks.
CAPTURED = ("oracle.fd_rate", "optimum.optimal_gamma")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.ops: list[dict] = []
        self.captured: list[tuple] = []
        self.alloc_peak: dict[str, int] = {}
        self.measure_alloc = False
        self._stack: list[int] = []
        self._op = -1

    def install(self, package) -> None:
        """Wrap every traced function and the cli's json calls."""
        mods = [package] + [getattr(package, m) for m in MODULES]
        for mod_name, fn_name, metric, alloc in TARGETS:
            original = getattr(getattr(package, mod_name), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", metric, alloc, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        cli = package.cli
        if isinstance(getattr(cli, "json", None), types.ModuleType):
            proxy = types.SimpleNamespace(**vars(cli.json))
            for fn_name, metric in (("load", "cli.json_load"),
                                    ("dump", "cli.json_dump"),
                                    ("dumps", "cli.json_dump")):
                proxy.__dict__[fn_name] = self._wrap(
                    f"json.{fn_name}", metric, False, getattr(cli.json, fn_name))
            cli.json = proxy

    def _wrap(self, name: str, metric: str, alloc: bool, fn):
        keep = metric in CAPTURED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            track = alloc and self.measure_alloc and not tracemalloc.is_tracing()
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            if track:
                tracemalloc.start()
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                if track:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc_peak[metric] = max(self.alloc_peak.get(metric, 0), peak)
                self._stack.pop()
                self.spans[span_id] = (self._op, span_id, parent, name, metric, start, end)
            if keep:
                self.captured.append((metric, args, kwargs, result))
            return result

        return traced

    def run_op(self, label: str, warmup: bool, call):
        """Run call() as one operation under a root span; return its result."""
        self._op = len(self.ops)
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack = [span_id]
        start = time.process_time()
        try:
            result = call()
        finally:
            end = time.process_time()
            self.spans[span_id] = (self._op, span_id, None, "op", "op", start, end)
            self.ops.append({"op": self._op, "label": label, "warmup": warmup})
            self._stack = []
            self._op = -1
        return result

    def self_by_op(self) -> dict[int, dict[str, float]]:
        """Self seconds per metric in each operation: each span's duration
        less that of the spans directly under it, summed by metric; the root
        span's self time is the cli's (``cli.self``)."""
        own = {span_id: end - start for _, span_id, _, _, _, start, end in self.spans}
        for _, _, parent, _, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[int, dict[str, float]] = {}
        for op, span_id, _, _, metric, _, _ in self.spans:
            name = "cli.self" if metric == "op" else metric
            busy = out.setdefault(op, {})
            busy[name] = busy.get(name, 0.0) + own[span_id]
        return out

    def busy_by_op(self) -> dict[int, dict[str, float]]:
        """Seconds per metric in each operation, plus the cli's self time.

        A metric's busy time sums its spans, nested ones included.
        """
        out: dict[int, dict[str, float]] = {}
        for op, _, parent, _, metric, start, end in self.spans:
            if parent is not None:
                busy = out.setdefault(op, {})
                busy[metric] = busy.get(metric, 0.0) + (end - start)
        for op, own in self.self_by_op().items():
            out.setdefault(op, {})["cli.self"] = own["cli.self"]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op in self.ops:
                fh.write(json.dumps(op) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """A tracer holding the operations and spans ``write`` saved."""
        tracer = cls()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                if "span" in record:
                    tracer.spans.append(tuple(record[k] for k in SPAN_FIELDS))
                else:
                    tracer.ops.append(record)
        return tracer
