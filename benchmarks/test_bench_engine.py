"""Engine micro-benchmark: dense interval loop vs the reference engine.

PR 1 vectorized the queue kernel; this PR removed the per-interval Python
tax around it (string-dict plumbing, per-interval recomputation of
decision invariants, ``rng.choice`` overhead, ``np.quantile`` dispatch).
The benchmark measures end-to-end ``run_experiment`` throughput at the
production-scale operating points (Memcached time-dilated replica, 1k and
10k real arrivals per interval, with and without collocation) against the
preserved pre-optimization engine, exactly the way
``hipster-repro bench`` does.

Guard design: absolute intervals/sec vary ~2x across machines, so CI
asserts the *speedup ratio* (paired runs, median of per-pair ratios --
drift-immune and machine-comparable):

* a hard floor of 2x everywhere (the refactor can never quietly erode);
* the soft regression guard of the committed trajectory: measured
  speedup must not drop more than 25% below the number recorded in
  ``BENCH_engine.json``.

The gate and the recorder (``hipster-repro bench``, which refreshes
``BENCH_engine.json``) measure every point through the same
:func:`repro.sim.bench.measure` call, under one fixed protocol, so a
gate verdict compares like with like.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.sim.bench import (
    BENCH_POINTS,
    BENCH_REPORT_NAME,
    EPOCH_POINTS,
    epoch_point_key,
    load_report,
    measure,
    point_key,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Hard machine-independent floor on the speedup ratio.
MIN_SPEEDUP = 2.0

#: Soft guard: fraction of the committed speedup that must be retained.
REGRESSION_TOLERANCE = 0.75

#: Hard floor on the decision-epoch fast path over the scalar loop,
#: asserted on the steady-config point (the epoch path's weakest regime
#: that still batches; the trough points run well above it).
EPOCH_MIN_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def committed_report():
    return load_report(REPO_ROOT / BENCH_REPORT_NAME)


@pytest.mark.parametrize(
    "arrivals,collocate",
    BENCH_POINTS,
    ids=[point_key(a, c) for a, c in BENCH_POINTS],
)
def test_engine_speedup(arrivals, collocate, committed_report):
    key = point_key(arrivals, collocate)
    result = measure(key)
    print(
        f"\n{key}: {result.reference_ips:.0f} -> {result.optimized_ips:.0f} "
        f"intervals/s ({result.speedup:.2f}x, IQR {result.ratio_iqr:.2f})"
    )
    assert result.speedup >= MIN_SPEEDUP, (
        f"{key}: dense engine only {result.speedup:.2f}x over the reference"
    )
    if committed_report is not None:
        committed = committed_report["points"][key]["speedup"]
        floor = committed * REGRESSION_TOLERANCE
        assert result.speedup >= floor, (
            f"{key}: speedup {result.speedup:.2f}x dropped >25% below the "
            f"committed baseline {committed:.2f}x (floor {floor:.2f}x) -- "
            f"engine hot-path regression"
        )


@pytest.mark.parametrize(
    "name,arrivals",
    EPOCH_POINTS,
    ids=[epoch_point_key(n, a) for n, a in EPOCH_POINTS],
)
def test_epoch_fast_path_speedup(name, arrivals, committed_report):
    """Decision-epoch path vs the scalar loop of the same engine.

    The hard floor applies to the steady-config point only -- trough
    points swing more with machine noise, so they rely on the soft
    guard against the committed trajectory (and on the committed
    numbers being well above the floor).
    """
    key = epoch_point_key(name, arrivals)
    result = measure(key)
    print(
        f"\n{key}: {result.reference_ips:.0f} -> {result.optimized_ips:.0f} "
        f"intervals/s ({result.speedup:.2f}x, IQR {result.ratio_iqr:.2f})"
    )
    if name == "steady":
        assert result.speedup >= EPOCH_MIN_SPEEDUP, (
            f"{key}: epoch fast path only {result.speedup:.2f}x over the "
            f"scalar interval loop"
        )
    else:
        assert result.speedup > 1.0, (
            f"{key}: epoch fast path is not faster than the scalar loop "
            f"({result.speedup:.2f}x)"
        )
    committed = (committed_report or {}).get("points", {}).get(key)
    if committed is not None:
        floor = committed["speedup"] * REGRESSION_TOLERANCE
        assert result.speedup >= floor, (
            f"{key}: speedup {result.speedup:.2f}x dropped >25% below the "
            f"committed baseline {committed['speedup']:.2f}x "
            f"(floor {floor:.2f}x) -- epoch-path regression"
        )


@pytest.mark.benchmark(group="interval-engine")
def test_engine_interval_throughput(benchmark):
    """Absolute intervals/sec of the optimized engine, tracked by
    pytest-benchmark (10k arrivals, collocated -- the heaviest point)."""
    from repro.hardware.juno import juno_r1
    from repro.loadgen.traces import ConstantTrace
    from repro.policies.static import static_all_big
    from repro.sim.engine import run_experiment
    from repro.workloads.memcached import memcached
    from repro.workloads.spec import spec_job_set

    workload = memcached()
    platform = juno_r1()

    def run():
        return run_experiment(
            platform,
            workload,
            ConstantTrace(10_000 / workload.max_load_rps, 200),
            static_all_big(platform, collocate_batch=True),
            batch_jobs=spec_job_set("calculix"),
            seed=3,
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result) == 200
