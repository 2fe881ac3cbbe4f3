"""Per-core FCFS queueing with speed-weighted dispatch.

The latency-critical services the paper uses (Memcached, Elasticsearch)
dispatch requests to worker threads pinned one-per-core; load balancing
across heterogeneous cores is imperfect, which is why at very high load the
paper's configuration sweeps (Figure 2) fall back to big-cores-only even
though mixed configurations have more aggregate capacity.  We model each
core as a FCFS single server fed by weighted-random dispatch with weight
``speed ** balance_exponent``: an exponent of 1 is capacity-proportional
(perfect) balancing, 0 is uniform.  Two defaults exist and they are
intentionally different: a bare :class:`DispatchQueue` defaults to 0.7
(a reasonable middle ground for unit tests and standalone use), while
engine-driven runs are governed by
:attr:`repro.sim.engine.EngineConfig.balance_exponent`, whose 0.55 is
the calibrated value that reproduces the paper's imbalance-driven
crossovers (Figure 2).  The engine always passes its own value down, so
``EngineConfig`` owns the knob for every experiment; the class default
here only applies when a queue is constructed directly.

Each server's FCFS backlog evolves by the Lindley recursion
``C_j = max(arrival_j, C_{j-1}) + service_j``; :meth:`DispatchQueue.run_interval`
evaluates it vectorized per server (``np.cumsum`` over service plus a
running maximum over arrival slack) instead of looping per request,
which is what keeps 10k+ arrivals per interval cheap.

The queue state (per-core virtual "free time") carries over between
monitoring intervals, so overload causes multi-interval latency blow-ups
and slow recovery exactly as on real hardware.  Reconfigurations
redistribute residual backlog over the new server set and, when the *core
set* changed (a migration -- not a DVFS change), charge a migration
penalty; this asymmetry between costly migrations and near-free DVFS
transitions is central to the paper's argument (Section 2, citing Rubik).

Hot-path layout
---------------
Per interval, :meth:`DispatchQueue.run_drawn` picks its kernel by server
count: one server runs the Lindley pass directly; two group requests
with one comparison mask; three or more lay every server's requests out
as contiguous segments with one stable sort of the ``uint8`` server
indices, so only the two recurrences (``cumsum``, running maximum) and
the service sums run per server while every elementwise pass runs once.
Below ``_SCALAR_SERVER_LIMIT`` servers the per-server bookkeeping
(utilizations, backlog, shedding) runs on Python floats.  Over a
decision-stable epoch, :meth:`DispatchQueue.run_epoch_drawn` keeps only
the free-time recurrence in a Python loop; service sums, utilizations
and backlog run as whole columns.

Per decision, :meth:`DispatchQueue.reconfigure` is the Mapper's DVFS
write or core migration.  Everything that depends on the speed vector
alone -- validation, the speed sum, dispatch weights and CDF -- sits in
a per-vector memo, so a run pays it once per distinct decision; the
backlog carry-over is the only per-call work.  Every path performs the
identical IEEE operations, in the identical order, as the per-server
numpy loop it replaced, so outputs are bit-identical and
``KERNEL_VERSION`` is unchanged (``tests/test_queue_differential.py``
holds the replaced expressions as its oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

DemandSampler = Callable[[np.random.Generator, int], np.ndarray]

#: Version tag of the queue kernel, folded into scenario fingerprints so
#: cached results are invalidated whenever the hot-path semantics change.
#: The dense/core-indexed engine refactor did NOT bump it: the rng stream
#: and every emitted float are bit-identical to the previous kernel (the
#: equivalence suite against ``repro.sim.engine_reference`` enforces it).
KERNEL_VERSION = "lindley-v1"

#: Below this many servers the per-server bookkeeping (utilizations,
#: carried backlog, shedding) runs in scalar Python instead of numpy:
#: numpy's pairwise summation degenerates to sequential summation under
#: eight elements, so both paths produce bit-identical floats while the
#: scalar one skips ~1 microsecond of dispatch overhead per tiny array
#: op -- the dominant cost at realistic per-interval arrival counts.
_SCALAR_SERVER_LIMIT = 8


def lindley_completion_times(
    arrivals: np.ndarray, service: np.ndarray, free0: float
) -> np.ndarray:
    """Completion times of a FCFS server, vectorized (the queue kernel).

    For requests with sorted ``arrivals`` and per-request ``service``
    times hitting a server that frees up at ``free0``, the Lindley
    recursion is ``C_j = max(arrivals_j, C_{j-1}) + service_j`` (with
    ``C_{-1} = free0``).  Unrolling it gives the closed form

        ``C_j = cumsum(service)_j + max(free0, max_{i<=j}(arrivals_i -
        cumsum(service)_{i-1}))``

    which evaluates in three array passes -- a cumulative sum, a running
    maximum, and an add -- instead of a Python-level loop per request.
    Equivalent to :func:`lindley_completion_times_reference` up to
    floating-point associativity (different summation order).
    """
    cum = service.cumsum()
    buf = cum - service  # shifted cumsum
    np.subtract(arrivals, buf, out=buf)  # arrival slack before running max
    np.maximum.accumulate(buf, out=buf)
    np.maximum(buf, free0, out=buf)
    np.add(cum, buf, out=buf)
    return buf


def lindley_completion_times_reference(
    arrivals: np.ndarray, service: np.ndarray, free0: float
) -> np.ndarray:
    """Per-request reference loop for the Lindley recursion.

    The seed implementation of the FCFS hot path, kept as the oracle for
    the property tests and the old side of the kernel micro-benchmark.
    """
    completion = np.empty(len(arrivals))
    free = free0
    for j in range(len(arrivals)):
        start = arrivals[j] if arrivals[j] > free else free
        free = start + service[j]
        completion[j] = free
    return completion


class DrawnInterval(NamedTuple):
    """One interval's arrival randomness, drawn ahead of evaluation.

    :meth:`DispatchQueue.draw_interval` consumes exactly the rng draws
    the scalar path would (arrival process, then demands, then the
    dispatch uniforms -- nothing when the interval is empty) and parks
    them here, so the epoch fast path can keep drawing *and validating*
    interval by interval while deferring all queue arithmetic to one
    batched pass.
    """

    n: int
    times: np.ndarray
    demands: np.ndarray
    dispatch_u: np.ndarray


class EpochQueueStats(NamedTuple):
    """Per-interval queue outcomes of one decision-stable epoch.

    ``latencies_s`` concatenates the intervals' sojourn times in arrival
    order; interval ``i`` owns the slice ``[offsets[i], offsets[i + 1])``.
    ``backlog_s`` is the queue backlog at each interval's end, *after*
    shedding -- i.e. exactly what :meth:`DispatchQueue.backlog_s` would
    report between intervals on the scalar path.
    """

    latencies_s: np.ndarray
    offsets: np.ndarray
    counts: list[int]
    utilizations: np.ndarray
    mean_utilization: np.ndarray
    shed_work_s: list[float]
    backlog_s: np.ndarray


class IntervalQueueStats(NamedTuple):
    """What happened inside the queue during one monitoring interval.

    A named tuple rather than a frozen dataclass: one is built per
    interval, and tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays.
    """

    latencies_s: np.ndarray
    arrival_times_s: np.ndarray
    arrivals: int
    utilizations: tuple[float, ...]
    shed_work_s: float

    @property
    def mean_utilization(self) -> float:
        """Mean utilization over the interval's servers (0 when empty)."""
        n = len(self.utilizations)
        if n == 0:
            return 0.0
        if n < _SCALAR_SERVER_LIMIT:
            # np.mean's pairwise reduction is plain sequential summation
            # below eight elements, so this is the identical float.  An
            # explicit loop, not sum(): from Python 3.12 on, sum() of
            # floats is compensated and may round differently.
            total = 0.0
            for util in self.utilizations:
                total += util
            return total / n
        return float(np.mean(self.utilizations))


class _ServerSet:
    """One validated speed vector and everything derived from it alone.

    :meth:`DispatchQueue.reconfigure` builds one per distinct vector and
    memoizes it, so the validation, the speed sum and the dispatch
    weights/CDF are paid once per distinct decision rather than once per
    reconfiguration.  ``values`` holds the speeds as Python floats for the
    scalar backlog arithmetic.
    """

    __slots__ = ("speeds", "values", "total", "weights", "cdf")

    def __init__(self, speeds: np.ndarray, balance_exponent: float):
        self.speeds = speeds.copy()
        self.speeds.flags.writeable = False
        self.values = tuple(self.speeds.tolist())
        self.total = float(np.sum(self.speeds))
        weights = self.speeds**balance_exponent
        self.weights = weights / weights.sum()
        # The dispatch CDF, built exactly the way ``Generator.choice``
        # builds it internally (cumsum then renormalize), so the manual
        # inverse-CDF dispatch below reproduces ``rng.choice`` bit for bit.
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        self.cdf = cdf


@dataclass
class DispatchQueue:
    """Heterogeneous per-core FCFS queues with weighted-random dispatch.

    Parameters
    ----------
    rng:
        Source of randomness for arrivals, demands and dispatch.
    balance_exponent:
        Dispatch weight is ``speed ** balance_exponent``; see module
        docstring.
    migration_penalty_s:
        Service blackout charged when the server (core) set changes --
        thread migration plus cold caches.  Expressed in queue time; the
        caller is responsible for dilating it when running a time-scaled
        replica.
    max_backlog_s:
        Upper bound on per-server backlog.  Work beyond the bound is shed
        (clients time out and retry elsewhere); the shed amount is
        reported so experiments can account for it.
    burstiness:
        Mean batch size of arrivals.  1.0 gives plain Poisson arrivals;
        larger values draw burst epochs as a thinned Poisson process with
        geometric batch sizes (a batch Markovian arrival process).  Real
        request streams are bursty -- Memcached multi-gets fan out, search
        front-ends batch -- which is what makes tail latency grow
        *gradually* with utilization instead of cliff-diving only at
        saturation.
    """

    rng: np.random.Generator
    balance_exponent: float = 0.7
    migration_penalty_s: float = 0.0
    max_backlog_s: float | None = None
    burstiness: float = 1.0
    _speeds: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0))
    _free: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0))
    _weights: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0))
    _cdf: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0))
    _servers: _ServerSet | None = field(init=False, default=None)
    #: Memo of every speed vector seen so far, keyed by its bytes; it
    #: holds validated vectors only, so invalid input raises every time.
    _server_sets: dict[bytes, _ServerSet] = field(init=False, default_factory=dict)

    @property
    def n_servers(self) -> int:
        """Number of currently configured servers."""
        return len(self._speeds)

    def backlog_s(self, now: float) -> float:
        """Total queued work across servers, expressed in seconds of delay."""
        k = self.n_servers
        if k == 0:
            return 0.0
        if k < _SCALAR_SERVER_LIMIT:
            total = 0.0
            for f in self._free.tolist():
                if f > now:
                    total += f - now
            return total
        return float(np.sum(np.maximum(self._free - now, 0.0)))

    def reconfigure(
        self, speeds: Sequence[float], now: float, *, migration: bool = False
    ) -> None:
        """Update the server set, carrying residual backlog over.

        Three cases, from cheapest to costliest:

        * identical speeds, no migration -- a no-op; per-server queues are
          untouched (repeating the same decision must not perturb them);
        * same server count, no migration (a DVFS change) -- each server's
          residual *work* is preserved, so its backlog time rescales by
          the speed ratio;
        * a migration (core set changed) -- residual work is pooled and
          spread evenly (in time) over the new servers, and every server
          is blacked out for ``migration_penalty_s``.

        Everything that depends on the speed vector alone lives in a
        per-vector memo (:class:`_ServerSet`), so a decision the run has
        seen before costs one dict lookup plus the backlog carry-over;
        a repeated vector is the memo entry already in place.  The DVFS
        rescale runs on Python floats for every server count (it is
        elementwise); the migration pool's residual-work sum does too
        below ``_SCALAR_SERVER_LIMIT`` servers, where a sequential sum is
        the float numpy's pairwise ``np.sum`` gives.
        """
        new_speeds = np.asarray(speeds, dtype=float)
        if new_speeds.ndim != 1 or len(new_speeds) == 0:
            raise ValueError("need at least one server")
        key = new_speeds.tobytes()
        new = self._server_sets.get(key)
        if new is None:
            if not (new_speeds > 0).all():
                raise ValueError("server speeds must be positive")
            new = self._server_sets[key] = _ServerSet(new_speeds, self.balance_exponent)
        old = self._servers
        k = len(new.values)

        if old is not None and len(old.values) == k and not migration:
            if new is old:
                return
            # Elementwise, no reduction: the same IEEE operations, in the
            # same order, as ``now + minimum(free - now, 0) + maximum(free
            # - now, 0) * (old / new)`` on arrays, for any server count.
            free = []
            for f, o, s in zip(self._free.tolist(), old.values, new.values):
                d = f - now
                backlog = d if d > 0.0 else 0.0
                free.append(now + (d if d < 0.0 else 0.0) + backlog * (o / s))
            self._free = np.array(free)
            self._adopt(new)
            return

        residual_work = 0.0
        if old is not None:
            if len(old.values) < _SCALAR_SERVER_LIMIT:
                for f, s in zip(self._free.tolist(), old.values):
                    residual_work += (f - now if f > now else 0.0) * s
            else:
                residual_work = float(
                    np.sum(np.maximum(self._free - now, 0.0) * old.speeds)
                )
        start = now + (self.migration_penalty_s if migration else 0.0)
        self._free = np.full(k, start + residual_work / new.total)
        self._adopt(new)

    def _adopt(self, servers: _ServerSet) -> None:
        self._servers = servers
        self._speeds = servers.speeds
        self._weights = servers.weights
        self._cdf = servers.cdf

    def _dispatch(self, n: int) -> np.ndarray:
        """Server index per request: ``rng.choice`` without its overhead.

        ``Generator.choice(k, size=n, p=w)`` draws ``random(n)`` and
        counts, per draw, how many CDF entries it clears.  Doing that
        count with one vectorized comparison per server (there are at
        most a handful) skips ``choice``'s per-call validation and its
        binary search, consumes the identical rng stream, and returns
        the identical assignment -- the equivalence is pinned by a test.
        """
        return self._assign(self.rng.random(n))

    def _assign(self, u: np.ndarray) -> np.ndarray:
        """Server index per already-drawn dispatch uniform (see
        :meth:`_dispatch`; separated so the epoch path can assign a whole
        epoch's stored uniforms with the identical comparisons).

        Up to nine servers the indices come back as ``uint8``: the
        comparison count fits, and it is the key type the grouping sort
        of :meth:`run_drawn` handles with a radix sort."""
        cdf = self._cdf
        last = len(cdf) - 1  # cdf[-1] == 1.0 > u always, never counted
        if last == 0:
            return np.zeros(len(u), dtype=np.intp)
        if last > 8:
            return cdf.searchsorted(u, side="right")
        assigned = (u >= cdf[0]).astype(np.uint8)
        for j in range(1, last):
            assigned += u >= cdf[j]
        return assigned

    def draw_interval(
        self,
        t0: float,
        t1: float,
        arrival_rate: float,
        demand_sampler: DemandSampler,
    ) -> DrawnInterval:
        """Consume one interval's randomness without evaluating the queue.

        Draw order matches :meth:`run_interval` exactly -- arrival
        process, then (only when requests arrived) demands and the
        dispatch uniforms -- so ``run_drawn(t0, t1, draw_interval(...))``
        is byte-identical to ``run_interval(...)``.
        """
        if self.n_servers == 0:
            raise RuntimeError("reconfigure() must be called before run_interval()")
        if t1 <= t0:
            raise ValueError("interval must have positive duration")
        if arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        n, times = self._draw_arrivals(arrival_rate, t0, t1)
        if n == 0:
            empty = np.empty(0)
            return DrawnInterval(0, times, empty, empty)
        demands = demand_sampler(self.rng, n)
        u = self.rng.random(n)
        return DrawnInterval(n, times, demands, u)

    def run_interval(
        self,
        t0: float,
        t1: float,
        arrival_rate: float,
        demand_sampler: DemandSampler,
    ) -> IntervalQueueStats:
        """Simulate Poisson arrivals over ``[t0, t1)``.

        Returns per-request latencies (sojourn times) for every request
        *arriving* in the interval, per-server utilizations, and the
        amount of work shed to the backlog bound.
        """
        return self.run_drawn(t0, t1, self.draw_interval(t0, t1, arrival_rate, demand_sampler))

    def run_drawn(
        self, t0: float, t1: float, drawn: DrawnInterval
    ) -> IntervalQueueStats:
        """Evaluate one interval whose randomness was already drawn."""
        dt = t1 - t0
        n_servers = self.n_servers
        scalar = n_servers < _SCALAR_SERVER_LIMIT
        n = drawn.n
        if scalar:
            free_list = self._free.tolist()
            carried_busy = [max(min(f, t1) - t0, 0.0) for f in free_list]
        else:
            carried_busy = np.maximum(np.minimum(self._free, t1) - t0, 0.0)
        if n == 0:
            if scalar:
                utils = tuple(min(c / dt, 1.0) for c in carried_busy)
            else:
                utils = tuple(float(u) for u in np.minimum(carried_busy / dt, 1.0))
            shed = self._shed(t1)
            return IntervalQueueStats(
                latencies_s=np.empty(0),
                arrival_times_s=np.empty(0),
                arrivals=0,
                utilizations=utils,
                shed_work_s=shed,
            )

        arrivals = drawn.times
        demands = drawn.demands
        service_sums = [0.0] * n_servers
        free = self._free
        speeds = self._speeds
        # The kernels below are lindley_completion_times inlined (same six
        # array ops per server), so the kernel pays no call overhead at
        # interval rates of ~10k/s.
        maximum = np.maximum
        if n_servers == 1:
            # Single server: no grouping work at all (the dispatch draw
            # still happened, keeping the stream aligned).
            service = demands / speeds[0]
            service_sums[0] = float(np.add.reduce(service))
            cum = service.cumsum()
            buf = cum - service
            np.subtract(arrivals, buf, out=buf)
            maximum.accumulate(buf, out=buf)
            maximum(buf, free[0], out=buf)
            np.add(cum, buf, out=buf)
            free[0] = buf[-1]
            latencies = np.subtract(buf, arrivals, out=buf)
        elif n_servers == 2:
            # Two servers -- the platform's big-cores-only configurations
            # -- group from one comparison mask without materializing the
            # assignment array.
            mask = drawn.dispatch_u >= self._cdf[0]
            latencies = np.empty(n)
            groups = ((~mask).nonzero()[0], mask.nonzero()[0])
            for k, idx in enumerate(groups):
                if len(idx) == 0:
                    continue
                service = demands[idx] / speeds[k]
                service_sums[k] = float(np.add.reduce(service))
                arr_k = arrivals[idx]
                cum = service.cumsum()
                buf = cum - service
                np.subtract(arr_k, buf, out=buf)
                maximum.accumulate(buf, out=buf)
                maximum(buf, free[k], out=buf)
                np.add(cum, buf, out=buf)
                free[k] = buf[-1]
                np.subtract(buf, arr_k, out=buf)
                latencies[idx] = buf
        else:
            # Three or more servers: one stable sort of the server indices
            # lays every server's requests out as a contiguous segment in
            # arrival order.  Only the two recurrences (cumsum and running
            # maximum) and the service sum must run per segment; every
            # elementwise pass runs once over all requests, with the
            # per-server speed and free time repeated along the segments.
            # Each element sees the identical IEEE operations as in a
            # per-server loop, so the floats are bit-identical.
            assigned = self._assign(drawn.dispatch_u)
            order = assigned.argsort(kind="stable")
            counts_arr = np.bincount(assigned, minlength=n_servers)
            arr = arrivals[order]
            service = demands[order]
            np.divide(service, speeds.repeat(counts_arr), out=service)
            free_rep = free.repeat(counts_arr)
            cum = np.empty(n)
            segments = []
            lo = 0
            for k, c in enumerate(counts_arr.tolist()):
                if c:
                    hi = lo + c
                    seg = service[lo:hi]
                    service_sums[k] = float(np.add.reduce(seg))
                    seg.cumsum(out=cum[lo:hi])
                    segments.append((k, lo, hi))
                    lo = hi
            buf = cum - service
            np.subtract(arr, buf, out=buf)
            for _, lo, hi in segments:
                seg = buf[lo:hi]
                maximum.accumulate(seg, out=seg)
            maximum(buf, free_rep, out=buf)
            np.add(cum, buf, out=buf)
            for k, _, hi in segments:
                free[k] = buf[hi - 1]
            np.subtract(buf, arr, out=buf)
            latencies = np.empty(n)
            latencies[order] = buf

        if scalar:
            utils = tuple(
                [min((c + s) / dt, 1.0) for c, s in zip(carried_busy, service_sums)]
            )
        else:
            utils = tuple(
                float(u)
                for u in np.minimum((carried_busy + np.asarray(service_sums)) / dt, 1.0)
            )
        shed = self._shed(t1)
        return IntervalQueueStats(
            latencies_s=latencies,
            arrival_times_s=arrivals,
            arrivals=n,
            utilizations=utils,
            shed_work_s=shed,
        )

    def run_epoch_drawn(
        self,
        t0s: Sequence[float],
        t1s: Sequence[float],
        drawn: Sequence[DrawnInterval],
    ) -> EpochQueueStats:
        """Evaluate a run of pre-drawn intervals in one batched pass.

        The caller guarantees the server set is untouched for the whole
        epoch (no :meth:`reconfigure` between the intervals) -- exactly
        the decision-stable regime of the engine's epoch fast path.

        Byte-identity with per-interval :meth:`run_drawn` calls rests on
        three observations, each pinned by the differential tests:

        * ``cumsum``/``maximum.accumulate`` along ``axis=1`` of a padded
          per-server ``(epoch, max_requests)`` matrix run the identical
          sequential recurrences per row as the scalar path's 1-D kernel
          (padding sits *after* the valid entries and its outputs are
          never read), while per-interval reductions -- service sums,
          the latency mean -- use exact-length row slices because
          numpy's pairwise summation tree depends on the operand length;
        * the only cross-interval coupling is each server's free time,
          whose per-boundary update ``free' = cum_last + max(free,
          runmax_last)`` and shed clamp are the scalar path's own two
          scalar operations, evaluated in a cheap Python scan;
        * the rest of the per-interval bookkeeping (carried busy time,
          utilizations, backlog) replicates the scalar branch of
          :meth:`run_drawn` expression by expression, evaluated as whole
          columns over the epoch once the scan has fixed every
          interval's free times, which is why the epoch path requires
          ``n_servers < _SCALAR_SERVER_LIMIT``.
        """
        k = self.n_servers
        if k == 0:
            raise RuntimeError("reconfigure() must be called before run_epoch_drawn()")
        if k >= _SCALAR_SERVER_LIMIT:
            raise ValueError(
                "the epoch kernel replicates the scalar per-server "
                f"bookkeeping and needs n_servers < {_SCALAR_SERVER_LIMIT}"
            )
        n_epoch = len(drawn)
        counts = [d.n for d in drawn]
        total = sum(counts)
        offsets = np.zeros(n_epoch + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])

        if total:
            times_all = np.concatenate([d.times for d in drawn])
            demands_all = np.concatenate([d.demands for d in drawn])
            u_all = np.concatenate([d.dispatch_u for d in drawn])
            interval_of = np.repeat(np.arange(n_epoch, dtype=np.intp), counts)
            if k == 1:
                assigned = None
            elif k == 2:
                # Matches run_drawn's two-server mask grouping: server 0 takes
                # ~mask, server 1 takes mask.
                assigned = (u_all >= self._cdf[0]).astype(np.intp)
            else:
                assigned = self._assign(u_all)
        speeds = self._speeds

        # Per-server padded matrices: row i holds interval i's requests
        # for that server (valid entries first), so the row-wise Lindley
        # recurrences below are the scalar kernel verbatim.
        per_server: list[tuple | None] = []
        for s in range(k):
            if not total:
                per_server.append(None)
                continue
            if assigned is None:
                sel = np.arange(total, dtype=np.intp)
            else:
                sel = np.flatnonzero(assigned == s)
            if not len(sel):
                per_server.append(None)
                continue
            rows = interval_of[sel]
            cnt = np.bincount(rows, minlength=n_epoch)
            width = int(cnt.max())
            starts = np.zeros(n_epoch, dtype=np.intp)
            np.cumsum(cnt[:-1], out=starts[1:])
            pos = np.arange(len(sel), dtype=np.intp) - starts[rows]
            dem = np.zeros((n_epoch, width))
            dem[rows, pos] = demands_all[sel]
            arr = np.zeros((n_epoch, width))
            arr[rows, pos] = times_all[sel]
            service = dem / speeds[s]
            cum = service.cumsum(axis=1)
            buf = cum - service
            np.subtract(arr, buf, out=buf)
            np.maximum.accumulate(buf, axis=1, out=buf)
            last_col = cnt - 1
            nz = np.flatnonzero(cnt)
            runmax_last = np.zeros(n_epoch)
            cum_last = np.zeros(n_epoch)
            runmax_last[nz] = buf[nz, last_col[nz]]
            cum_last[nz] = cum[nz, last_col[nz]]
            per_server.append(
                (sel, rows, pos, cnt, service, cum, buf, arr, runmax_last, cum_last)
            )

        # Cross-interval scan: carry each server's free time across the
        # epoch with the scalar path's own per-boundary operations.  Only
        # this recurrence (and the shed clamp, which feeds it) is
        # sequential, so only it runs as a Python loop, on plain floats
        # hoisted out through tolist(): per-element ndarray indexing would
        # cost more than the whole batched kernel.
        sums = np.zeros((n_epoch, k))
        scan: list[tuple[int, list[int], list[float], list[float]]] = []
        for s in range(k):
            data = per_server[s]
            if data is None:
                continue
            cnt, service = data[3], data[4]
            if service.shape[1] < _SCALAR_SERVER_LIMIT:
                # Narrow rows reduce sequentially (no pairwise split) and
                # the pads only ever add +0.0 to a positive running sum,
                # so the padded row sums are the exact per-row reduces.
                sums[:, s] = service.sum(axis=1)
            else:
                # Wide rows reduce pairwise, where the tree shape depends
                # on the operand length: batch rows of equal request count
                # so each row still sums exactly its own c-length slice
                # (an axis-1 sum runs the same pairwise routine per row
                # as the scalar kernel's 1-D reduce).
                for c in np.unique(cnt):
                    if c:
                        rows_c = np.flatnonzero(cnt == c)
                        sums[rows_c, s] = service[rows_c, :c].sum(axis=1)
            scan.append((s, cnt.tolist(), data[8].tolist(), data[9].tolist()))
        free = self._free
        free_l = free.tolist()
        free_rows: list[list[float]] = []
        shed_work: list[float] = []
        max_backlog = self.max_backlog_s
        for i in range(n_epoch):
            free_rows.append(free_l.copy())
            for s, cnt_l, runmax_l, cum_l in scan:
                if cnt_l[i]:
                    free_l[s] = cum_l[i] + max(free_l[s], runmax_l[i])
            shed = 0.0
            if max_backlog is not None:
                bound = t1s[i] + max_backlog
                for s in range(k):
                    f = free_l[s]
                    if f > bound:
                        shed += f - bound
                        free_l[s] = bound
            shed_work.append(shed)
        free_start = np.array(free_rows)
        # Each interval's end state is the next one's start state.
        free_end = np.concatenate((free_start[1:], [free_l]))
        free[:] = free_l

        # Everything else in the scalar branch of run_drawn is
        # elementwise given the free times, so it runs over the epoch as
        # whole columns: numpy's min, max and arithmetic on float64 are
        # the IEEE operations Python's are, and the per-server sums below
        # accumulate column by column in server order, as sequentially as
        # the scalar path's loops.
        t0a = np.asarray(t0s)
        t1a = np.asarray(t1s)
        dta = t1a - t0a
        carried = np.maximum(np.minimum(free_start, t1a[:, None]) - t0a[:, None], 0.0)
        utils = np.minimum((carried + sums) / dta[:, None], 1.0)
        util_sum = utils[:, 0].copy()
        backlog = np.maximum(free_end[:, 0] - t1a, 0.0)
        for s in range(1, k):
            util_sum += utils[:, s]
            backlog += np.maximum(free_end[:, s] - t1a, 0.0)
        mean_utilization = util_sum / k

        # Completion times and sojourn latencies, batched per server with
        # the scalar kernel's remaining three elementwise passes.
        latencies = np.empty(total)
        for s in range(k):
            data = per_server[s]
            if data is None:
                continue
            sel, rows, pos, _, _, cum, buf, arr, _, _ = data
            np.maximum(buf, free_start[:, s].reshape(n_epoch, 1), out=buf)
            np.add(cum, buf, out=buf)
            np.subtract(buf, arr, out=buf)
            latencies[sel] = buf[rows, pos]
        return EpochQueueStats(
            latencies_s=latencies,
            offsets=offsets,
            counts=counts,
            utilizations=utils,
            mean_utilization=mean_utilization,
            shed_work_s=shed_work,
            backlog_s=backlog,
        )

    def _draw_arrivals(
        self, arrival_rate: float, t0: float, t1: float
    ) -> tuple[int, np.ndarray]:
        """Arrival times for one interval: Poisson or geometric bursts."""
        dt = t1 - t0
        if self.burstiness <= 1.0:
            n = int(self.rng.poisson(arrival_rate * dt))
            times = self.rng.uniform(t0, t1, size=n)
            times.sort()
            return n, times
        mean_batch = self.burstiness
        n_bursts = int(self.rng.poisson(arrival_rate * dt / mean_batch))
        if n_bursts == 0:
            return 0, np.empty(0)
        sizes = self.rng.geometric(1.0 / mean_batch, size=n_bursts)
        epochs = self.rng.uniform(t0, t1, size=n_bursts)
        epochs.sort()
        times = epochs.repeat(sizes)
        return int(times.size), times

    def _shed(self, now: float) -> float:
        """Clamp backlog to the bound; return seconds of delay shed."""
        if self.max_backlog_s is None:
            return 0.0
        bound = now + self.max_backlog_s
        free = self._free
        if len(free) < _SCALAR_SERVER_LIMIT:
            shed = 0.0
            clamp = False
            for f in free.tolist():
                if f > bound:
                    shed += f - bound
                    clamp = True
            if clamp:
                np.minimum(free, bound, out=free)
            return shed
        excess = np.maximum(free - bound, 0.0)
        if np.any(excess > 0):
            np.minimum(free, bound, out=free)
        return float(np.sum(excess))
