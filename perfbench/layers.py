"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions and methods of each layer of
``repro`` with spans (name, start, end, parent, thread) kept in memory,
plus counters filled at the same boundaries. Nothing inside ``src/`` is
changed: wrapping happens on the loaded modules.

Two rules make the counts right:

* Callers bind some names at import time (``from repro.fluid.solver
  import solve``), so wrapping only the defining module's attribute would
  miss them. :meth:`Tracer.install` therefore replaces the original
  function object wherever any loaded ``repro`` module holds it, and
  wraps methods on their classes.
* A layer re-entered on the same thread (``FluidSimulator.run`` calling
  ``solve``; ``HybridKvServer.serve`` calling ``serve_tenants``) records
  one span: nested calls of the same layer pass straight through.

Self time of a span is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], int]

#: Every per-layer metric: (name, unit). ``BENCHMARK.json`` lists the same.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("platform.build_s", "s"),
    ("platform.build_calls", "count"),
    ("transport.compile_s", "s"),
    ("transport.compile_calls", "count"),
    ("transport.memo_hit_ratio", "ratio"),
    ("core.loaded_latency_s", "s"),
    ("core.loaded_latency_calls", "count"),
    ("core.pointer_chase_s", "s"),
    ("core.sim_txns", "count"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.run_calls", "count"),
    ("sim.engine.host_ns_per_txn", "ns"),
    ("sim.engine.sim_ns_per_host_s", "ns/s"),
    ("sim.batch.open_s", "s"),
    ("sim.batch.open_requests", "count"),
    ("sim.batch.host_ns_per_request", "ns"),
    ("sim.batch.closed_s", "s"),
    ("sim.batch.closed_calls", "count"),
    ("fluid.solve_s", "s"),
    ("fluid.solve_calls", "count"),
    ("fluid.coupling_s", "s"),
    ("apps.kvserve.serve_s", "s"),
    ("apps.kvserve.requests", "count"),
    ("apps.kvserve.self_s", "s"),
    ("analysis.stats_s", "s"),
    ("experiments.render_s", "s"),
    ("runner.batch_s", "s"),
    ("runner.cells", "count"),
    ("runner.cell_s", "s"),
    ("runner.overhead_s", "s"),
    ("runner.attempts", "count"),
    ("runner.failed_cells", "count"),
    ("runner.deduped", "count"),
    ("cache.key_s", "s"),
    ("cache.get_s", "s"),
    ("cache.get_calls", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.put_s", "s"),
    ("cache.put_bytes", "bytes"),
    ("service.accept_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.precached_ratio", "ratio"),
    ("service.rejects", "count"),
    ("trace.spans", "count"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        #: ``"cold"`` or ``"warm"``: which pass cache reads belong to.
        self.phase = "cold"
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._seen_paths: Dict[int, Any] = {}
        self._accepted: Dict[str, float] = {}
        self._service: Any = None

    # ------------------------------------------------------------ spans

    def _frames(self) -> List[Tuple[int, str]]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(
        self,
        fn: Callable,
        layer: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one ``layer`` span per outermost call.

        ``before(args, kwargs)`` runs first and its return value is passed
        to ``after(args, kwargs, result, state)`` once ``fn`` returned.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frames = tracer._frames()
            if any(name == layer for __, name in frames):
                return fn(*args, **kwargs)
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = frames[-1][0] if frames else None
            state = before(args, kwargs) if before is not None else None
            frames.append((span_id, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                frames.pop()
                with tracer._lock:
                    tracer.spans.append(
                        (span_id, layer, start, end, parent, threading.get_ident())
                    )
            if after is not None:
                after(args, kwargs, result, state)
            return result

        return traced

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every layer's public entry points (see module doc)."""
        #: id(original function) -> (original, wrapper), for re-pointing.
        replaced: Dict[int, Tuple[Callable, Callable]] = {}

        def patch_function(module_name: str, attr: str, layer: str, **hooks: Any):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self.wrap(original, layer, **hooks)
            replaced[id(original)] = (original, wrapper)
            setattr(module, attr, wrapper)

        def patch_method(module_name: str, cls_name: str, attr: str, layer: str, **hooks: Any):
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, layer, **hooks)))
            else:
                setattr(cls, attr, self.wrap(raw, layer, **hooks))

        patch_method("repro.platform.topology", "Platform", "__init__", "platform.build")
        for name in ("dram_path", "cxl_path", "mmio_read_path", "doorbell_path", "dma_path"):
            patch_method(
                "repro.transport.path", "PathResolver", name, "transport.compile",
                after=self._after_compile,
            )
        patch_method(
            "repro.core.microbench", "MicroBench", "loaded_latency",
            "core.loaded_latency", after=self._after_loaded,
        )
        patch_method(
            "repro.core.microbench", "MicroBench", "pointer_chase",
            "core.pointer_chase", after=self._after_chase,
        )
        patch_method(
            "repro.sim.engine", "Environment", "run", "sim.engine.run",
            before=lambda args, kwargs: args[0].now,
            after=lambda args, kwargs, result, now: self.count(
                "sim.engine.sim_ns", args[0].now - now
            ),
        )
        patch_function(
            "repro.sim.batch", "open_loop_departures", "sim.batch.open",
            after=lambda args, kwargs, result, state: self.count(
                "sim.batch.open_requests", len(result)
            ),
        )
        patch_function("repro.sim.batch", "simulate_closed_loops", "sim.batch.closed")
        patch_function("repro.fluid.solver", "solve", "fluid.solve")
        patch_method("repro.fluid.vectorized", "CompiledProblem", "solve_array", "fluid.solve")
        patch_method("repro.fluid.timeseries", "FluidSimulator", "run", "fluid.solve")
        for name in ("background_utilizations", "effective_service_ns"):
            patch_function("repro.fluid.coupling", name, "fluid.coupling")
        patch_method(
            "repro.apps.kvserve", "HybridKvServer", "serve", "apps.kvserve.serve",
            after=lambda args, kwargs, result, state: self.count(
                "apps.kvserve.requests",
                (args[1] if len(args) > 1 else kwargs["workload"]).requests,
            ),
        )
        patch_method(
            "repro.apps.kvserve", "HybridKvServer", "serve_tenants", "apps.kvserve.serve",
            after=lambda args, kwargs, result, state: self.count(
                "apps.kvserve.requests",
                sum(t.workload.requests for t in (args[1] if len(args) > 1 else kwargs["tenants"])),
            ),
        )
        patch_function("repro.analysis.stats", "percentile", "analysis.stats")
        for name in ("from_samples", "from_sorted", "merge"):
            patch_method("repro.analysis.stats", "LatencyStats", name, "analysis.stats")
        for name in ("extend", "stats"):
            patch_method("repro.analysis.stats", "SampleReservoir", name, "analysis.stats")
        experiments = importlib.import_module("repro.experiments")
        for info in pkgutil.iter_modules(experiments.__path__):
            module_name = f"repro.experiments.{info.name}"
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("render")
                    and inspect.isfunction(value)
                    and value.__module__ == module_name
                ):
                    patch_function(module_name, attr, "experiments.render")
        patch_function("repro.service.registry", "render_results", "experiments.render")
        patch_function(
            "repro.runner", "run_cells_detailed", "runner.batch",
            before=self._before_batch, after=self._after_batch,
        )
        patch_method("repro.cache", "ResultCache", "key_for", "cache.key")
        patch_method("repro.cache", "ResultCache", "get", "cache.get", after=self._after_get)
        patch_method(
            "repro.cache", "ResultCache", "put", "cache.put",
            before=lambda args, kwargs: args[0].bytes_written,
            after=lambda args, kwargs, result, written: self.count(
                "cache.put_bytes", args[0].bytes_written - written
            ),
        )
        self._install_service()

        # Re-point every name a loaded module bound at import time.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def _install_service(self) -> None:
        from repro.service.scheduler import QueueFull
        from repro.service.server import ReproService

        tracer = self
        handle_submit = ReproService._handle_submit
        execute = ReproService._execute

        def submit_after(args, kwargs, result, state):
            service = args[0]
            job_id = f"job-{service._job_counter}"
            record = service.store.get(job_id)
            with tracer._lock:
                tracer._accepted[job_id] = time.perf_counter()
            tracer.count("service.cells", record.cells)
            tracer.count("service.precached", record.precached)

        traced_submit = self.wrap(handle_submit, "service.accept", after=submit_after)

        @functools.wraps(handle_submit)
        def counted_submit(*args: Any, **kwargs: Any) -> Any:
            try:
                return traced_submit(*args, **kwargs)
            except QueueFull:
                tracer.count("service.rejects")
                raise

        @functools.wraps(execute)
        async def tracked_execute(service, job):
            tracer._service = service
            return await execute(service, job)

        ReproService._handle_submit = counted_submit
        ReproService._execute = tracked_execute

    # ------------------------------------------------------------ hooks

    def _after_compile(self, args, kwargs, result, state) -> None:
        with self._lock:
            seen = id(result) in self._seen_paths
            self._seen_paths[id(result)] = result
        self.count("transport.memo_hits", 1.0 if seen else 0.0)

    def _after_loaded(self, args, kwargs, result, state) -> None:
        self.count("core.sim_txns", result.stats.count)

    def _after_chase(self, args, kwargs, result, state) -> None:
        level, stats = result
        if level.name == "DRAM":
            self.count("core.sim_txns", stats.count)

    def _before_batch(self, args, kwargs) -> None:
        service = self._service
        if service is None or not threading.current_thread().name.startswith("repro-job"):
            return None
        accepted = self._accepted.get(service._running_job)
        if accepted is not None:
            self.count("service.queue_wait_s", time.perf_counter() - accepted)
        return None

    def _after_batch(self, args, kwargs, results, state) -> None:
        self.count("runner.cells", len(results))
        self.count("runner.cell_s", sum(r.duration_s for r in results))
        self.count("runner.attempts", sum(r.attempts for r in results))
        self.count("runner.failed_cells", sum(1 for r in results if not r.ok))
        self.count("runner.deduped", sum(1 for r in results if r.deduped))

    def _after_get(self, args, kwargs, result, state) -> None:
        self.count(f"cache.gets.{self.phase}")
        if result[0]:
            self.count(f"cache.hits.{self.phase}")

    # ---------------------------------------------------------- metrics

    def layer_totals(self) -> Dict[str, Tuple[float, int, float]]:
        """{layer: (seconds, spans, self seconds)}."""
        child_time: Dict[int, float] = {}
        for __, __, start, end, parent, __ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: Dict[str, Tuple[float, int, float]] = {}
        for span_id, name, start, end, __, __ in self.spans:
            seconds, calls, own = totals.get(name, (0.0, 0, 0.0))
            duration = end - start
            totals[name] = (
                seconds + duration,
                calls + 1,
                own + duration - child_time.get(span_id, 0.0),
            )
        return totals

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics this pass's spans and counters give."""
        totals = self.layer_totals()
        c = self.counters.get

        def seconds(layer: str) -> float:
            return totals.get(layer, (0.0, 0, 0.0))[0]

        def calls(layer: str) -> float:
            return float(totals.get(layer, (0.0, 0, 0.0))[1])

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "platform.build_s": seconds("platform.build"),
            "platform.build_calls": calls("platform.build"),
            "transport.compile_s": seconds("transport.compile"),
            "transport.compile_calls": calls("transport.compile"),
            "transport.memo_hit_ratio": ratio(
                c("transport.memo_hits", 0.0), calls("transport.compile")
            ),
            "core.loaded_latency_s": seconds("core.loaded_latency"),
            "core.loaded_latency_calls": calls("core.loaded_latency"),
            "core.pointer_chase_s": seconds("core.pointer_chase"),
            "core.sim_txns": c("core.sim_txns", 0.0),
            "sim.engine.run_s": seconds("sim.engine.run"),
            "sim.engine.run_calls": calls("sim.engine.run"),
            "sim.engine.host_ns_per_txn": ratio(
                seconds("sim.engine.run") * 1e9, c("core.sim_txns", 0.0)
            ),
            "sim.engine.sim_ns_per_host_s": ratio(
                c("sim.engine.sim_ns", 0.0), seconds("sim.engine.run")
            ),
            "sim.batch.open_s": seconds("sim.batch.open"),
            "sim.batch.open_requests": c("sim.batch.open_requests", 0.0),
            "sim.batch.host_ns_per_request": ratio(
                seconds("sim.batch.open") * 1e9, c("sim.batch.open_requests", 0.0)
            ),
            "sim.batch.closed_s": seconds("sim.batch.closed"),
            "sim.batch.closed_calls": calls("sim.batch.closed"),
            "fluid.solve_s": seconds("fluid.solve"),
            "fluid.solve_calls": calls("fluid.solve"),
            "fluid.coupling_s": seconds("fluid.coupling"),
            "apps.kvserve.serve_s": seconds("apps.kvserve.serve"),
            "apps.kvserve.requests": c("apps.kvserve.requests", 0.0),
            "apps.kvserve.self_s": totals.get("apps.kvserve.serve", (0.0, 0, 0.0))[2],
            "analysis.stats_s": seconds("analysis.stats"),
            "experiments.render_s": seconds("experiments.render"),
            "runner.batch_s": seconds("runner.batch"),
            "runner.cells": c("runner.cells", 0.0),
            "runner.cell_s": c("runner.cell_s", 0.0),
            "runner.overhead_s": seconds("runner.batch") - c("runner.cell_s", 0.0),
            "runner.attempts": c("runner.attempts", 0.0),
            "runner.failed_cells": c("runner.failed_cells", 0.0),
            "runner.deduped": c("runner.deduped", 0.0),
            "cache.key_s": seconds("cache.key"),
            "cache.get_s": seconds("cache.get"),
            "cache.get_calls": calls("cache.get"),
            "cache.hit_ratio": ratio(
                c("cache.hits.warm", 0.0), c("cache.gets.warm", 0.0)
            ),
            "cache.put_s": seconds("cache.put"),
            "cache.put_bytes": c("cache.put_bytes", 0.0),
            "service.accept_s": seconds("service.accept"),
            "service.queue_wait_s": c("service.queue_wait_s", 0.0),
            "service.precached_ratio": ratio(
                c("service.precached", 0.0), c("service.cells", 0.0)
            ),
            "service.rejects": c("service.rejects", 0.0),
            "trace.spans": float(len(self.spans)),
        }
        return out

    def dump(self, path: str) -> None:
        """Write the spans (seconds from the pass start) as JSON."""
        names = {}
        rows = []
        for span_id, name, start, end, parent, thread in sorted(
            self.spans, key=lambda span: span[2]
        ):
            thread_no = names.setdefault(thread, len(names))
            rows.append([
                span_id, name, start - self.origin, end - self.origin,
                parent, thread_no,
            ])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["id", "name", "start_s", "end_s", "parent", "thread"],
                 "spans": rows},
                handle,
            )
