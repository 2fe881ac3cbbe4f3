"""Differential tests for the per-decision queue and engine paths.

* :meth:`~repro.sim.queueing.DispatchQueue.reconfigure` memoizes each
  distinct speed vector and carries the backlog over on Python floats
  (the migration pool's sum only below ``_SCALAR_SERVER_LIMIT``
  servers).  The numpy expressions it replaced are copied verbatim below as the oracle: seeded random
  sequences of DVFS changes, migrations, server-count changes and
  repeated vectors must leave bit-equal free times, weights and CDF on
  both sides of the limit, and invalid speeds must raise on every call.
* With three or more servers, :meth:`~repro.sim.queueing.DispatchQueue.run_drawn`
  groups requests with one stable sort into contiguous per-server
  segments; the per-server loop it replaced is the bit-exact oracle, and
  the per-request Lindley reference loop bounds it to rounding.
* The engine's interval tail skips the counter-vector work when the
  Juno counter bug is disarmed; with it armed (CPUidle on), runs of a
  migrating manager still match the reference engine bit for bit.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.hipster import hipster_co, hipster_in
from repro.hardware.soc import KernelConfig
from repro.loadgen.traces import StepTrace
from repro.sim.engine import run_experiment
from repro.sim.engine_reference import run_reference_experiment
from repro.sim.queueing import (
    _SCALAR_SERVER_LIMIT,
    DispatchQueue,
    lindley_completion_times_reference,
)
from repro.workloads.memcached import memcached
from repro.workloads.spec import spec_job_set

from test_engine_equivalence import assert_identical


# -- the oracle: the pre-memo reconfigure, verbatim -------------------------


class OracleQueue:
    """The server-set state of the pre-memo ``DispatchQueue``."""

    def __init__(self, balance_exponent: float, migration_penalty_s: float):
        self.balance_exponent = balance_exponent
        self.migration_penalty_s = migration_penalty_s
        self._speeds = np.zeros(0)
        self._free = np.zeros(0)
        self._weights = np.zeros(0)
        self._cdf = np.zeros(0)

    @property
    def n_servers(self) -> int:
        return len(self._speeds)

    def reconfigure(self, speeds, now, *, migration=False):
        new_speeds = np.asarray(speeds, dtype=float)
        if new_speeds.ndim != 1 or len(new_speeds) == 0:
            raise ValueError("need at least one server")
        if np.any(new_speeds <= 0):
            raise ValueError("server speeds must be positive")

        same_count = len(new_speeds) == self.n_servers
        if same_count and not migration:
            if not np.array_equal(new_speeds, self._speeds):
                backlog = np.maximum(self._free - now, 0.0)
                ratio = self._speeds / new_speeds
                self._free = now + np.minimum(self._free - now, 0.0) + backlog * ratio
                self._speeds = new_speeds
                self._set_weights(new_speeds)
            return

        residual_work = 0.0
        if self.n_servers:
            residual_work = float(
                np.sum(np.maximum(self._free - now, 0.0) * self._speeds)
            )
        start = now + (self.migration_penalty_s if migration else 0.0)
        per_server_delay = residual_work / float(np.sum(new_speeds))
        self._speeds = new_speeds
        self._free = np.full(len(new_speeds), start + per_server_delay)
        self._set_weights(new_speeds)

    def _set_weights(self, speeds):
        weights = speeds**self.balance_exponent
        self._weights = weights / weights.sum()
        cdf = np.cumsum(self._weights)
        cdf /= cdf[-1]
        self._cdf = cdf


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _assert_same_state(queue: DispatchQueue, oracle: OracleQueue, where: str):
    assert _bits(queue._free) == _bits(oracle._free), where
    assert _bits(queue._speeds) == _bits(oracle._speeds), where
    assert _bits(queue._weights) == _bits(oracle._weights), where
    assert _bits(queue._cdf) == _bits(oracle._cdf), where


def _speed_pool(rng: random.Random, k: int, size: int) -> list[list[float]]:
    """A few distinct k-server speed vectors, with repeated values inside
    (clusters share an operating point) and a wide dynamic range."""
    levels = [rng.uniform(0.05, 3.0) for _ in range(3)]
    return [
        [rng.choice(levels) * rng.choice((1.0, 0.93, 0.71)) for _ in range(k)]
        for _ in range(size)
    ]


class TestReconfigureMatchesOracle:
    @pytest.mark.parametrize("k", range(1, 11))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequences(self, k, seed):
        rng = random.Random(1000 * k + seed)
        exponent = rng.choice((0.55, 0.7, 1.0))
        penalty = rng.choice((0.0, 0.06))
        queue = DispatchQueue(
            rng=np.random.default_rng(0),
            balance_exponent=exponent,
            migration_penalty_s=penalty,
        )
        oracle = OracleQueue(exponent, penalty)
        # Vectors of this width plus, for server-count changes, the
        # neighbouring widths -- one of which sits across the limit
        # when k is next to it.
        pools = {w: _speed_pool(rng, w, 4) for w in {max(k - 1, 1), k, k + 1}}
        now = 0.0
        for step in range(120):
            roll = rng.random()
            width = k if roll < 0.8 else rng.choice(sorted(pools))
            speeds = rng.choice(pools[width])
            if rng.random() < 0.5:
                speeds = np.array(speeds)
            migration = rng.random() < 0.25
            queue.reconfigure(speeds, now, migration=migration)
            oracle.reconfigure(speeds, now, migration=migration)
            _assert_same_state(queue, oracle, f"step {step}")
            # Stand in for the intervals in between: servers end up
            # idle (free in the past, exactly now) or backlogged.
            free = [
                rng.choice(
                    (now - rng.uniform(0.0, 2.0), now, now + rng.uniform(0.0, 5.0))
                )
                for _ in range(queue.n_servers)
            ]
            queue._free = np.array(free)
            oracle._free = np.array(free)
            if rng.random() < 0.7:
                now += rng.choice((1.0, 0.25, 0.0))

    @pytest.mark.parametrize("k", (_SCALAR_SERVER_LIMIT - 1, _SCALAR_SERVER_LIMIT))
    def test_repeated_vector_is_a_no_op(self, k):
        queue = DispatchQueue(rng=np.random.default_rng(0))
        speeds = [1.0 + 0.1 * j for j in range(k)]
        queue.reconfigure(speeds, 0.0)
        queue._free = np.linspace(0.5, 3.0, k)
        before = queue._free.copy()
        queue.reconfigure(np.array(speeds), 1.0)
        assert _bits(queue._free) == _bits(before)

    def test_memo_ignores_caller_mutation(self):
        queue = DispatchQueue(rng=np.random.default_rng(0))
        speeds = np.array([1.0, 2.0])
        queue.reconfigure(speeds, 0.0)
        speeds[0] = 5.0
        assert queue._speeds.tolist() == [1.0, 2.0]
        queue.reconfigure(speeds, 0.0)
        assert queue._speeds.tolist() == [5.0, 2.0]


class TestInvalidSpeedsRaiseEveryCall:
    @pytest.mark.parametrize(
        "speeds, match",
        [
            ([], "at least one server"),
            ([[1.0, 2.0]], "at least one server"),
            ([1.0, -1.0], "positive"),
            ([0.0], "positive"),
            ([1.0, float("nan")], "positive"),
        ],
    )
    def test_raises_repeatedly(self, speeds, match):
        queue = DispatchQueue(rng=np.random.default_rng(0))
        queue.reconfigure([1.0, 1.0], 0.0)
        state = _bits(queue._free), _bits(queue._cdf)
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                queue.reconfigure(speeds, 1.0)
            assert (_bits(queue._free), _bits(queue._cdf)) == state


# -- the oracle: the per-server kernel loop the segment kernel replaced ---


def per_server_kernel(free, speeds, cdf, drawn, t0, t1):
    """The pre-segment ``run_drawn`` for three or more servers, verbatim
    up to the grouping: (latencies, free times after, utilizations)."""
    free = free.copy()
    k = len(speeds)
    u = drawn.dispatch_u
    last = len(cdf) - 1
    if last > 8:
        assigned = cdf.searchsorted(u, side="right")
    else:
        assigned = (u >= cdf[0]).astype(np.intp)
        for j in range(1, last):
            assigned += u >= cdf[j]
    carried = [max(min(f, t1) - t0, 0.0) for f in free.tolist()]
    latencies = np.empty(drawn.n)
    sums = [0.0] * k
    for j in range(k):
        idx = (assigned == j).nonzero()[0]
        if len(idx) == 0:
            continue
        service = drawn.demands[idx] / speeds[j]
        sums[j] = float(np.add.reduce(service))
        arr_k = drawn.times[idx]
        cum = service.cumsum()
        buf = cum - service
        np.subtract(arr_k, buf, out=buf)
        np.maximum.accumulate(buf, out=buf)
        np.maximum(buf, free[j], out=buf)
        np.add(cum, buf, out=buf)
        free[j] = buf[-1]
        np.subtract(buf, arr_k, out=buf)
        latencies[idx] = buf
    dt = t1 - t0
    if k < _SCALAR_SERVER_LIMIT:
        utils = [min((c + s) / dt, 1.0) for c, s in zip(carried, sums)]
    else:
        utils = np.minimum((np.asarray(carried) + np.asarray(sums)) / dt, 1.0)
        utils = [float(x) for x in utils]
    return latencies, free, utils


class TestSegmentKernel:
    """Three or more servers: the stable-sort segment kernel against the
    per-server loop (bit for bit) and against the per-request Lindley
    reference loop (to rounding: the closed form reassociates)."""

    @pytest.mark.parametrize("k", range(3, 11))
    def test_matches_per_server_loop(self, k):
        rng = np.random.default_rng(k)
        queue = DispatchQueue(rng=rng, balance_exponent=0.55)
        speeds = rng.uniform(0.2, 2.0, size=k)
        queue.reconfigure(speeds, 0.0)

        def sampler(r, n):
            return r.exponential(0.004, size=n)

        for i in range(40):
            t0, t1 = float(i), float(i + 1)
            # Light to saturated, so some servers get no requests.
            rate = float(rng.choice((3.0, 60.0, 400.0, 1500.0)))
            queue._free = t0 + rng.uniform(-0.5, 1.5, size=k)
            drawn = queue.draw_interval(t0, t1, rate, sampler)
            if drawn.n == 0:
                continue
            expected = per_server_kernel(
                queue._free, queue._speeds, queue._cdf, drawn, t0, t1
            )
            free_before = queue._free.copy()
            stats = queue.run_drawn(t0, t1, drawn)
            assert _bits(stats.latencies_s) == _bits(expected[0])
            assert _bits(queue._free) == _bits(expected[1])
            assert list(stats.utilizations) == expected[2]

            assigned = queue._assign(drawn.dispatch_u)
            for j in range(k):
                idx = (assigned == j).nonzero()[0]
                if len(idx) == 0:
                    continue
                completion = lindley_completion_times_reference(
                    drawn.times[idx],
                    drawn.demands[idx] / queue._speeds[j],
                    float(free_before[j]),
                )
                np.testing.assert_allclose(
                    stats.latencies_s[idx],
                    completion - drawn.times[idx],
                    rtol=1e-9,
                    atol=1e-12,
                )


class TestArmedCounterBug:
    """CPUidle on arms the Juno counter bug: the interval tail then reads
    the counter vector (and draws garbage samples) while Hipster migrates
    between configurations."""

    @pytest.mark.parametrize("seed", (3, 8))
    def test_hipster_co_matches_reference(self, platform, seed):
        kwargs = dict(
            batch_jobs=spec_job_set("calculix"),
            kernel=KernelConfig(cpuidle_enabled=True),
            seed=seed,
        )
        trace = StepTrace([(40, 0.01), (40, 0.7), (40, 0.0)])
        new = run_experiment(platform, memcached(), trace, hipster_co(), **kwargs)
        ref = run_reference_experiment(
            platform, memcached(), trace, hipster_co(), **kwargs
        )
        assert new.table.column("counter_garbage").any()
        assert new.migration_events() > 0
        assert_identical(new, ref)

    def test_hipster_in_matches_reference(self, platform):
        kwargs = dict(kernel=KernelConfig(cpuidle_enabled=True), seed=5)
        trace = StepTrace([(30, 0.3), (30, 0.9), (30, 0.0)])
        new = run_experiment(platform, memcached(), trace, hipster_in(), **kwargs)
        ref = run_reference_experiment(
            platform, memcached(), trace, hipster_in(), **kwargs
        )
        assert new.table.column("counter_garbage").any()
        assert new.migration_events() > 0
        assert_identical(new, ref)
