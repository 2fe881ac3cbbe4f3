"""Engine micro-benchmark: optimized vs reference intervals/sec.

This module is the single source of truth for the engine performance
trajectory.  It drives the same scenario through the optimized engine
(:mod:`repro.sim.engine`) and the preserved pre-optimization one
(:mod:`repro.sim.engine_reference`) and reports intervals/sec for both,
plus their ratio.

Measurement protocol
--------------------
Runs are *paired* (one reference run immediately followed by one
optimized run) and the headline speedup is the **median of per-pair
ratios**: CPU frequency drift and noisy neighbours hit both sides of a
pair roughly equally, so the ratio is far more stable -- and far more
machine-independent -- than either absolute number.  Absolute
intervals/sec are reported too (best over pairs) but only the ratio is
guarded in CI.

The benchmark points are the production-scale operating points from the
ISSUE: Memcached at its paper calibration (time-dilated replica,
``sim_scale=25``) offered 1k and 10k real arrivals per monitoring
interval, with and without a collocated SPEC batch job -- the regime
where fleet sweeps spend their time and where the interval loop, not the
queue kernel, used to dominate.

Used by ``benchmarks/test_bench_engine.py`` (assertions + CI guard),
``hipster-repro bench`` and ``tools/bench_report.py`` (both write
``BENCH_engine.json`` at the repo root).  All of them measure a point
through :func:`measure` under the one fixed protocol below (run lengths
and pair count), so a gate verdict and a recorded number are always
comparable.  The report also records the host (CPU model and count) and
each point's spread: the interquartile range of its per-pair ratios.
"""

from __future__ import annotations

import json
import os
import platform as platform_module
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.sim.queueing import KERNEL_VERSION

#: The benchmark grid: (real arrivals per interval, collocation).
BENCH_POINTS: tuple[tuple[int, bool], ...] = (
    (1_000, False),
    (1_000, True),
    (10_000, False),
    (10_000, True),
)

#: The epoch fast-path grid: (regime name, real arrivals per interval).
#: Decision-stable workloads where the scalar interval loop is compared
#: against the decision-epoch batched path of the *same* engine: the
#: diurnal-trough regime (tens to low hundreds of real arrivals per
#: interval, where per-interval Python overhead dominates) and the
#: steady mid-rate regime.  High-arrival points are deliberately absent:
#: there the engine's load gate keeps the scalar path (see
#: ``_EPOCH_MIN_INTERVALS`` in :mod:`repro.sim.engine`).
EPOCH_POINTS: tuple[tuple[str, int], ...] = (
    ("trough", 30),
    ("trough", 100),
    ("steady", 1_000),
)

#: The measurement protocol, per benchmark point: run length and pairs.
DEFAULT_INTERVALS = 300
DEFAULT_PAIRS = 5

#: Epoch points use longer runs: the epoch path's fixed per-run costs
#: amortize over whole decision-stable runs, which is exactly the
#: sweep-scale regime it accelerates.
EPOCH_INTERVALS = 2_000

#: Where the committed trajectory lives, relative to the repo root.
BENCH_REPORT_NAME = "BENCH_engine.json"


def point_key(arrivals: int, collocate: bool) -> str:
    """Stable JSON key for one benchmark point."""
    return f"arrivals={arrivals}/collocation={'on' if collocate else 'off'}"


def epoch_point_key(name: str, arrivals: int) -> str:
    """Stable JSON key for one epoch fast-path benchmark point."""
    return f"epoch/{name}/arrivals={arrivals}"


def point_keys() -> tuple[str, ...]:
    """Every benchmark point's key, engine points first."""
    keys = [point_key(a, c) for a, c in BENCH_POINTS]
    keys += [epoch_point_key(n, a) for n, a in EPOCH_POINTS]
    return tuple(keys)


@dataclass(frozen=True)
class BenchPointResult:
    """Measured numbers for one benchmark point."""

    arrivals: int
    collocate: bool
    reference_ips: float
    optimized_ips: float
    speedup: float
    ratio_iqr: float

    def as_json(self) -> dict:
        return _point_json(self)


@dataclass(frozen=True)
class EpochPointResult:
    """Measured numbers for one epoch fast-path point.

    ``reference`` is the scalar interval loop of the *current* engine
    (``EngineConfig(epoch_fast_path=False)``), i.e. the PR 3 optimized
    path; ``optimized`` is the same engine with the decision-epoch
    batched path enabled.  JSON field names match
    :class:`BenchPointResult` so report consumers treat both uniformly.
    """

    name: str
    arrivals: int
    reference_ips: float
    optimized_ips: float
    speedup: float
    ratio_iqr: float

    def as_json(self) -> dict:
        return _point_json(self)


def _point_json(result: BenchPointResult | EpochPointResult) -> dict:
    return {
        "reference_intervals_per_sec": round(result.reference_ips, 1),
        "optimized_intervals_per_sec": round(result.optimized_ips, 1),
        "speedup": round(result.speedup, 2),
        "ratio_iqr": round(result.ratio_iqr, 2),
    }


def _paired(
    reference: Callable[[], float], optimized: Callable[[], float]
) -> tuple[float, float, float, float]:
    """``DEFAULT_PAIRS`` paired runs: (best reference ips, best optimized
    ips, median per-pair ratio, interquartile range of the ratios)."""
    ratios: list[float] = []
    best_ref = 0.0
    best_opt = 0.0
    for _ in range(DEFAULT_PAIRS):
        ref = reference()
        opt = optimized()
        ratios.append(opt / ref)
        best_ref = max(best_ref, ref)
        best_opt = max(best_opt, opt)
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return best_ref, best_opt, statistics.median(ratios), q3 - q1


def _one_run(
    runner: Callable, arrivals: int, collocate: bool, n_intervals: int
) -> float:
    """One timed engine run; returns intervals/sec."""
    from repro.hardware.juno import juno_r1
    from repro.loadgen.traces import ConstantTrace
    from repro.policies.static import static_all_big
    from repro.workloads.memcached import memcached
    from repro.workloads.spec import spec_job_set

    workload = memcached()
    load = arrivals / workload.max_load_rps
    platform = juno_r1()
    manager = static_all_big(platform, collocate_batch=collocate)
    batch = spec_job_set("calculix") if collocate else None
    t0 = time.perf_counter()
    runner(
        platform,
        workload,
        ConstantTrace(load, n_intervals),
        manager,
        batch_jobs=batch,
        seed=3,
    )
    return n_intervals / (time.perf_counter() - t0)


def measure_point(arrivals: int, collocate: bool) -> BenchPointResult:
    """Paired reference/optimized measurement of one benchmark point."""
    from repro.sim.engine import run_experiment
    from repro.sim.engine_reference import run_reference_experiment

    ref, opt, speedup, iqr = _paired(
        lambda: _one_run(
            run_reference_experiment, arrivals, collocate, DEFAULT_INTERVALS
        ),
        lambda: _one_run(run_experiment, arrivals, collocate, DEFAULT_INTERVALS),
    )
    return BenchPointResult(
        arrivals=arrivals,
        collocate=collocate,
        reference_ips=ref,
        optimized_ips=opt,
        speedup=speedup,
        ratio_iqr=iqr,
    )


def _one_epoch_run(arrivals: int, n_intervals: int, *, epoch: bool) -> float:
    """One timed scalar-or-epoch engine run; returns intervals/sec."""
    from repro.hardware.juno import juno_r1
    from repro.loadgen.traces import ConstantTrace
    from repro.policies.static import static_all_big
    from repro.sim.engine import EngineConfig, run_experiment
    from repro.workloads.memcached import memcached

    workload = memcached()
    load = arrivals / workload.max_load_rps
    platform = juno_r1()
    t0 = time.perf_counter()
    run_experiment(
        platform,
        workload,
        ConstantTrace(load, n_intervals),
        static_all_big(platform),
        engine_config=EngineConfig(epoch_fast_path=epoch),
        seed=3,
    )
    return n_intervals / (time.perf_counter() - t0)


def measure_epoch_point(name: str, arrivals: int) -> EpochPointResult:
    """Paired scalar/epoch measurement of one fast-path point."""
    ref, opt, speedup, iqr = _paired(
        lambda: _one_epoch_run(arrivals, EPOCH_INTERVALS, epoch=False),
        lambda: _one_epoch_run(arrivals, EPOCH_INTERVALS, epoch=True),
    )
    return EpochPointResult(
        name=name,
        arrivals=arrivals,
        reference_ips=ref,
        optimized_ips=opt,
        speedup=speedup,
        ratio_iqr=iqr,
    )


def measure(key: str) -> BenchPointResult | EpochPointResult:
    """Measure one point, by its key, under the fixed protocol: the one
    entry point of both the CI gate and the recorder."""
    for arrivals, collocate in BENCH_POINTS:
        if key == point_key(arrivals, collocate):
            return measure_point(arrivals, collocate)
    for name, arrivals in EPOCH_POINTS:
        if key == epoch_point_key(name, arrivals):
            return measure_epoch_point(name, arrivals)
    raise KeyError(f"unknown benchmark point {key!r}")


def measure_all() -> dict[str, BenchPointResult | EpochPointResult]:
    """Measure every benchmark point, keyed by :func:`point_keys`."""
    return {key: measure(key) for key in point_keys()}


def host_fingerprint() -> dict:
    """The measuring host: Python, numpy, CPU model and count."""
    cpu = platform_module.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform_module.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def build_report(
    results: dict[str, BenchPointResult | EpochPointResult],
) -> dict:
    """The ``BENCH_engine.json`` payload for a set of measurements."""
    return {
        "schema": 1,
        "kernel_version": KERNEL_VERSION,
        "benchmark": (
            "interval-engine microbenchmark: memcached (sim_scale=25), "
            "static-big manager, constant load of N real arrivals per "
            "1 s interval; reference = pre-optimization engine "
            "(repro.sim.engine_reference); epoch/* points compare the "
            "current engine's scalar interval loop against its "
            "decision-epoch batched path"
        ),
        "protocol": (
            f"paired runs ({DEFAULT_PAIRS} pairs x {DEFAULT_INTERVALS} "
            f"intervals; epoch/* points {EPOCH_INTERVALS} intervals), "
            "speedup = median of per-pair ratios, ratio_iqr = their "
            "interquartile range, intervals/sec = best over pairs"
        ),
        "environment": host_fingerprint(),
        "points": {key: results[key].as_json() for key in sorted(results)},
    }


def write_report(path: str | Path) -> dict:
    """Measure everything and write the JSON report; returns the payload."""
    report = build_report(measure_all())
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def load_report(path: str | Path) -> dict | None:
    """The committed report, or ``None`` when absent/unreadable."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def render_report(report: dict) -> str:
    """Human-readable summary of a report payload."""
    env = report["environment"]
    header = (
        f"Engine benchmark ({report['kernel_version']}, "
        f"python {env['python']}, numpy {env['numpy']}, "
        f"{env.get('cpu', 'unknown CPU')} x{env.get('nproc', '?')}):"
    )
    lines = [header]
    for key, point in sorted(report["points"].items()):
        spread = point.get("ratio_iqr")
        iqr = "" if spread is None else f", IQR {spread:.2f}"
        lines.append(
            f"  {key}: {point['reference_intervals_per_sec']:.0f} -> "
            f"{point['optimized_intervals_per_sec']:.0f} intervals/s "
            f"({point['speedup']:.2f}x{iqr})"
        )
    return "\n".join(lines)
