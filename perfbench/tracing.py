"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each layer of the ``repro``
package (the table in :func:`install_layers`) from the outside: nothing
under ``src/`` is edited.  Every wrapped call records a span -- name,
start, end and the span that was open when it began -- into per-thread
buffers, and some wrappers also add to a count (requests drawn,
intervals simulated, payload bytes).  Spans stay in memory until
:meth:`Tracer.spans` hands them over at the end of the run.

A layer's self time is its span time minus the time of its child spans;
``unattributed.s`` is the traced wall time that no root span covers, so
it stays >= 0 exactly when self times do not double-count.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import threading
import time
import types
from array import array

import numpy as np

#: Every per-layer metric the traced run reports, with its unit.  The
#: order is the order of ``BENCHMARK.json``'s ``per_layer`` list.
PER_LAYER_METRICS = (
    ("core.decide.calls", "count"),
    ("core.decide.s", "s"),
    ("core.observe.s", "s"),
    ("core.phase_switches", "count"),
    ("policies.decide.s", "s"),
    ("policies.observe.s", "s"),
    ("queueing.draw_interval.calls", "count"),
    ("queueing.draw_interval.s", "s"),
    ("queueing.run_drawn.calls", "count"),
    ("queueing.run_drawn.s", "s"),
    ("queueing.run_epoch_drawn.calls", "count"),
    ("queueing.run_epoch_drawn.s", "s"),
    ("queueing.reconfigure.calls", "count"),
    ("queueing.requests", "count"),
    ("workloads.sample_demands.s", "s"),
    ("workloads.reported_latency_ms.s", "s"),
    ("latency.linear_quantile.s", "s"),
    ("hardware.cluster_power_w.calls", "count"),
    ("hardware.cluster_power_w.s", "s"),
    ("hardware.energy_meter.s", "s"),
    ("hardware.tdp_w.calls", "count"),
    ("loadgen.load_at_many.calls", "count"),
    ("loadgen.load_at_many.s", "s"),
    ("records.append.calls", "count"),
    ("records.append.s", "s"),
    ("records.extend.s", "s"),
    ("records.freeze.s", "s"),
    ("records.encode.s", "s"),
    ("records.decode.s", "s"),
    ("records.payload_bytes", "bytes"),
    ("engine.run.calls", "count"),
    ("engine.run.s", "s"),
    ("engine.self.s", "s"),
    ("engine.intervals", "count"),
    ("engine.epoch_intervals", "count"),
    ("engine.epoch_share", "frac"),
    ("batch.iter_run.s", "s"),
    ("batch.dispatch_wait.s", "s"),
    ("batch.specs_dispatched", "count"),
    ("batch.chunks_dispatched", "count"),
    ("batch.pool_spawns", "count"),
    ("batch.memory_hits", "count"),
    ("batch.disk_hits", "count"),
    ("batch.misses", "count"),
    ("batch.cache_load.calls", "count"),
    ("batch.cache_load.s", "s"),
    ("batch.cache_store.s", "s"),
    ("batch.cache_dir_bytes", "bytes"),
    ("supervise.retries", "count"),
    ("supervise.failures", "count"),
    ("scenarios.fingerprint.calls", "count"),
    ("scenarios.fingerprint.s", "s"),
    ("fleet.node_specs.s", "s"),
    ("fleet.balancer.s", "s"),
    ("fleet.lower_faults.s", "s"),
    ("fleet.split_with_timeline.s", "s"),
    ("fleet.aggregate.s", "s"),
    ("packs.compile.s", "s"),
    ("experiments.self.s", "s"),
    ("import.s", "s"),
    ("unattributed.s", "s"),
    ("trace_overhead_frac", "frac"),
)

#: Counts that must repeat exactly across runs at a fixed seed.
EXACT_COUNTS = (
    "engine.intervals",
    "engine.epoch_intervals",
    "queueing.requests",
    "queueing.reconfigure.calls",
    "batch.specs_dispatched",
    "scenarios.fingerprint.calls",
)

#: Self-time metrics and the span metric each one reads.
SELF_TIMES = {
    "engine.self.s": "engine.run.self_s",
    "experiments.self.s": "experiments.self_s",
}


class _Recorder:
    """One thread's span buffers (parallel arrays) and counts."""

    __slots__ = ("names", "parents", "starts", "ends", "stack", "counts")

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = {}


class Tracer:
    """Installs span wrappers and collects what they record."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._recorders: dict[int, _Recorder] = {}
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.get_ident()

    # -- recording -----------------------------------------------------

    def _recorder(self) -> _Recorder:
        with self._lock:
            return self._recorders.setdefault(threading.get_ident(), _Recorder())

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def span(self, name, fn, after=None):
        """``fn`` wrapped to record one span per call.

        ``after(counts, args, result)`` runs once the span is closed, so
        the bookkeeping it does is not charged to the layer.
        """
        nid = self._name_id(name)
        recorders = self._recorders
        get_ident = threading.get_ident
        clock = time.perf_counter_ns
        new = self._recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = recorders.get(get_ident()) or new()
            stack = rec.stack
            idx = len(rec.starts)
            rec.names.append(nid)
            rec.parents.append(stack[-1])
            rec.ends.append(0)
            stack.append(idx)
            rec.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(rec.counts, args, result)
            return result

        return wrapper

    def generator_span(self, name, fn):
        """A generator function wrapped so each resumption is a span.

        Between resumptions the consumer runs, outside the span.
        """
        nid = self._name_id(name)
        recorders = self._recorders
        get_ident = threading.get_ident
        clock = time.perf_counter_ns
        new = self._recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    rec = recorders.get(get_ident()) or new()
                    stack = rec.stack
                    idx = len(rec.starts)
                    rec.names.append(nid)
                    rec.parents.append(stack[-1])
                    rec.ends.append(0)
                    stack.append(idx)
                    rec.starts.append(clock())
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec.ends[idx] = clock()
                        stack.pop()
                    yield item
            finally:
                inner.close()

        return wrapper

    def counter(self, fn, after):
        """``fn`` wrapped to count its results without recording a span."""
        recorders = self._recorders
        get_ident = threading.get_ident
        new = self._recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec = recorders.get(get_ident()) or new()
            after(rec.counts, args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        self.patch(cls, attr, self.span(name, cls.__dict__[attr], after))

    def patch_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module function everywhere ``repro`` bound it by name."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = self.span(name, original)
        for mod_name, module in list(sys.modules.items()):
            if (
                mod_name.split(".")[0] == "repro"
                and module is not None
                and module.__dict__.get(attr) is original
            ):
                self.patch(module, attr, wrapped)

    def install(self) -> None:
        install_layers(self)
        # Pool workers forked from a traced process run untraced: their
        # spans would be lost with them and only slow them down.
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Every recorded span as columns (thread index per span)."""
        cols: dict[str, list] = {
            k: [] for k in ("name", "parent", "start_ns", "end_ns", "thread")
        }
        for t, (ident, rec) in enumerate(sorted(self._recorders.items())):
            cols["name"].append(np.frombuffer(rec.names, dtype=np.int32))
            cols["parent"].append(np.frombuffer(rec.parents, dtype=np.int64))
            cols["start_ns"].append(np.frombuffer(rec.starts, dtype=np.int64))
            cols["end_ns"].append(np.frombuffer(rec.ends, dtype=np.int64))
            main = 0 if ident == self._main else t + 1
            cols["thread"].append(np.full(len(rec.names), main, dtype=np.int32))
        out = {
            k: (np.concatenate(v) if v else np.empty(0, dtype=np.int64))
            for k, v in cols.items()
        }
        out["names"] = np.array(self._names)
        return out

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for rec in self._recorders.values():
            for key, value in rec.counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def span_metrics(self, wall_ns: int) -> dict[str, float]:
        """Per-name ``calls``/``s``/``self_s`` plus ``unattributed.s``.

        ``s`` is inclusive time, skipping spans nested directly inside a
        span of the same name so recursion is not counted twice.
        """
        out: dict[str, float] = {}
        main_root_ns = 0
        for ident, rec in self._recorders.items():
            if not len(rec.names):
                continue
            if rec.stack != [-1]:
                raise RuntimeError("a traced span was left open")
            names = np.frombuffer(rec.names, dtype=np.int32)
            parents = np.frombuffer(rec.parents, dtype=np.int64)
            durs = np.frombuffer(rec.ends, dtype=np.int64) - np.frombuffer(
                rec.starts, dtype=np.int64
            )
            nested = parents >= 0
            child_ns = np.zeros(len(durs), dtype=np.int64)
            np.add.at(child_ns, parents[nested], durs[nested])
            self_ns = durs - child_ns
            same_name = np.zeros(len(durs), dtype=bool)
            same_name[nested] = names[parents[nested]] == names[nested]
            for nid, name in enumerate(self._names):
                mine = names == nid
                if not mine.any():
                    continue
                calls = float(mine.sum())
                incl = float(durs[mine & ~same_name].sum()) / 1e9
                own = float(self_ns[mine].sum()) / 1e9
                out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + calls
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + incl
                out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            if ident == self._main:
                main_root_ns = int(durs[~nested].sum())
        out["unattributed.s"] = (wall_ns - main_root_ns) / 1e9
        return out


# ----------------------------------------------------------------------
# the layer table
# ----------------------------------------------------------------------


def _own_classes(module_names, attr):
    """Classes defined in ``module_names`` that define ``attr`` themselves
    (abstract declarations excluded)."""
    found = []
    for module_name in module_names:
        module = importlib.import_module(module_name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module_name
                and attr in value.__dict__
                and not getattr(value.__dict__[attr], "__isabstractmethod__", False)
            ):
                found.append(value)
    return found


def _add(key, amount):
    def after(counts, args, result):
        counts[key] = counts.get(key, 0) + amount(args, result)

    return after


def _state_bytes(state) -> int:
    return sum(col.nbytes for col in state["cols"].values())


def _after_engine_run(counts, args, result):
    counts["engine.intervals"] = counts.get("engine.intervals", 0) + len(result)
    switches = getattr(args[0].manager, "phase_switches", 0)
    counts["core.phase_switches"] = counts.get("core.phase_switches", 0) + switches


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's entry points; the span names are metric stems."""
    from repro.fleet.aggregate import FleetAccumulator
    from repro.fleet.spec import FleetSpec
    from repro.hardware.power import EnergyMeter
    from repro.hardware.soc import Platform
    from repro.scenarios.spec import ScenarioSpec
    from repro.sim import batch as batch_module
    from repro.sim.batch import BatchRunner
    from repro.sim.engine import IntervalSimulator
    from repro.sim.queueing import DispatchQueue
    from repro.sim.records import ObservationTable
    from repro.sim.supervise import PoolSupervisor

    core = ["repro.core.hipster", "repro.core.heuristic"]
    policies = [
        "repro.policies.base",
        "repro.policies.static",
        "repro.policies.octopusman",
        "repro.policies.table_driven",
    ]
    for layer, modules in (("core", core), ("policies", policies)):
        for attr in ("decide", "observe"):
            for cls in _own_classes(modules, attr):
                tracer.patch_method(cls, attr, f"{layer}.{attr}")

    tracer.patch_method(
        DispatchQueue,
        "draw_interval",
        "queueing.draw_interval",
        _add("queueing.requests", lambda args, drawn: drawn.n),
    )
    for attr in ("run_drawn", "run_epoch_drawn", "reconfigure"):
        tracer.patch_method(DispatchQueue, attr, f"queueing.{attr}")

    workloads = ["repro.workloads.base", "repro.workloads.memcached",
                 "repro.workloads.websearch"]
    for attr in ("sample_demands", "reported_latency_ms"):
        for cls in _own_classes(workloads, attr):
            tracer.patch_method(cls, attr, f"workloads.{attr}")
    tracer.patch_function("repro.sim.latency", "linear_quantile",
                          "latency.linear_quantile")

    for cls in _own_classes(["repro.hardware.power"], "cluster_power_w"):
        tracer.patch_method(cls, "cluster_power_w", "hardware.cluster_power_w")
    for attr in ("record", "record_many"):
        tracer.patch_method(EnergyMeter, attr, "hardware.energy_meter")
    tdp = Platform.__dict__["tdp_w"]
    tracer.patch(
        Platform,
        "tdp_w",
        property(tracer.counter(tdp.fget, _add("hardware.tdp_w.calls",
                                               lambda args, result: 1))),
    )

    loadgen = ["repro.loadgen.traces", "repro.loadgen.diurnal",
               "repro.loadgen.mmpp"]
    for cls in _own_classes(loadgen, "load_at_many"):
        tracer.patch_method(cls, "load_at_many", "loadgen.load_at_many")

    for attr in ("append", "extend", "freeze"):
        tracer.patch_method(ObservationTable, attr, f"records.{attr}")
    # The cache codec is pickle, called by the batch module: it gets a
    # pickle whose dumps/loads are spans.  Pool IPC decodes through
    # multiprocessing's own pickler, so there only the table's
    # __setstate__ below is seen.
    proxy = types.ModuleType("pickle")
    proxy.__dict__.update(pickle.__dict__)
    proxy.dumps = tracer.span("records.encode", pickle.dumps)
    proxy.loads = tracer.span("records.decode", pickle.loads)
    tracer.patch(batch_module, "pickle", proxy)
    tracer.patch_method(
        ObservationTable,
        "__getstate__",
        "records.encode",
        _add("records.payload_bytes", lambda args, state: _state_bytes(state)),
    )
    tracer.patch_method(
        ObservationTable,
        "__setstate__",
        "records.decode",
        _add("records.payload_bytes", lambda args, _: _state_bytes(args[1])),
    )

    tracer.patch_method(IntervalSimulator, "run", "engine.run", _after_engine_run)
    tracer.patch(
        IntervalSimulator,
        "_run_epoch",
        tracer.counter(
            IntervalSimulator.__dict__["_run_epoch"],
            _add("engine.epoch_intervals", lambda args, ran: ran),
        ),
    )

    tracer.patch(BatchRunner, "iter_run",
                 tracer.generator_span("batch.iter_run",
                                       BatchRunner.__dict__["iter_run"]))
    tracer.patch(PoolSupervisor, "events",
                 tracer.generator_span("batch.dispatch_wait",
                                       PoolSupervisor.__dict__["events"]))
    tracer.patch_method(BatchRunner, "_cache_load", "batch.cache_load")
    tracer.patch_method(BatchRunner, "_cache_store_many", "batch.cache_store")

    tracer.patch_method(ScenarioSpec, "fingerprint", "scenarios.fingerprint")

    tracer.patch_method(FleetSpec, "node_specs", "fleet.node_specs")
    for cls in _own_classes(["repro.fleet.balancer"], "split"):
        tracer.patch_method(cls, "split", "fleet.balancer")
    tracer.patch_function("repro.fleet.faults", "lower_faults",
                          "fleet.lower_faults")
    tracer.patch_function("repro.fleet.resilience", "split_with_timeline",
                          "fleet.split_with_timeline")
    for attr in ("add", "finish"):
        tracer.patch_method(FleetAccumulator, attr, "fleet.aggregate")

    tracer.patch_function("repro.packs.compiler", "compile_pack",
                          "packs.compile")

    from repro.experiments import EXPERIMENTS

    for module in EXPERIMENTS.values():
        tracer.patch(module, "run", tracer.span("experiments", module.__dict__["run"]))
        for cls in _own_classes([module.__name__], "render"):
            tracer.patch_method(cls, "render", "experiments")
