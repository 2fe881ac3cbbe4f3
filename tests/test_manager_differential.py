"""Differential tests for Hipster's per-interval step.

* The dense :class:`~repro.core.table.LookupTable` against the
  dictionary-backed table it replaced, copied verbatim below as the
  oracle: seeded random operation sequences must give bit-equal floats,
  identical actions and identical ``ValueError`` messages.
* Algorithm 1 exists once: :func:`~repro.core.rewards.compute_reward`
  (validated inputs, a breakdown) and the scalar
  :func:`~repro.core.rewards.reward_terms` that ``Hipster.observe`` calls
  give bit-equal totals and leave the rng in the same state.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import pytest

from repro.core.buckets import DEFAULT_BUCKET_SIZE, LoadBucketizer
from repro.core.hipster import hipster_co, hipster_in
from repro.core.rewards import RewardInputs, compute_reward, reward_terms
from repro.core.table import DEFAULT_ALPHA, DEFAULT_GAMMA, LookupTable
from repro.policies.base import ManagerContext
from repro.workloads.memcached import memcached


# -- the oracle: the dictionary-backed table, verbatim ----------------------


@dataclass
class DictLookupTable:
    """``R(w, c)`` over (load bucket, configuration index).

    ``n_actions`` is the size of the configuration space; action indices
    are the caller's concern (Hipster uses the index into its enumerated
    configuration tuple).
    """

    n_actions: int
    alpha: float = DEFAULT_ALPHA
    gamma: float = DEFAULT_GAMMA
    alpha_schedule: str = "fixed"
    alpha_min: float = 0.10
    _table: dict[tuple[int, int], float] = field(default_factory=dict)
    _visits: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_actions <= 0:
            raise ValueError("n_actions must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be within (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be within [0, 1)")
        if self.alpha_schedule not in ("fixed", "decay"):
            raise ValueError("alpha_schedule must be 'fixed' or 'decay'")
        if not 0.0 < self.alpha_min <= 1.0:
            raise ValueError("alpha_min must be within (0, 1]")

    def value(self, state: int, action: int) -> float:
        """``R(w, c)``; unvisited entries are 0 (Algorithm 2, line 4)."""
        self._check(state, action)
        return self._table.get((state, action), 0.0)

    def visited(self, state: int, action: int) -> bool:
        """Whether the entry has ever been updated."""
        self._check(state, action)
        return (state, action) in self._table

    def state_visited(self, state: int) -> bool:
        """Whether any action has been tried in this state."""
        if state < 0:
            raise ValueError("state must be non-negative")
        return any((state, a) in self._table for a in range(self.n_actions))

    def best_action(
        self, state: int, *, tie_break: Iterable[int] | None = None
    ) -> tuple[int, float]:
        """``argmax_c R(w, c)`` with its value (Algorithm 2, line 7).

        Unvisited entries count as 0, exactly as in the paper.  Ties are
        broken by ``tie_break`` order (e.g. the heuristic ladder, so equal
        scores prefer lower-power configurations) or by index.
        """
        order = list(tie_break) if tie_break is not None else range(self.n_actions)
        best_action, best_value = None, float("-inf")
        for action in order:
            self._check(state, action)
            value = self.value(state, action)
            if value > best_value:
                best_action, best_value = action, value
        assert best_action is not None
        return best_action, best_value

    def max_value(self, state: int) -> float:
        """``max_d R(w, d)`` -- the bootstrap term of the update."""
        return max(self.value(state, a) for a in range(self.n_actions))

    def update(
        self, state: int, action: int, reward: float, next_state: int
    ) -> float:
        """Apply Algorithm 1's line 16; returns the new ``R(w, c)``."""
        self._check(state, action)
        self._check(next_state, 0)
        old = self.value(state, action)
        alpha = self._effective_alpha(state, action)
        new = old + alpha * (
            reward + self.gamma * self.max_value(next_state) - old
        )
        self._table[(state, action)] = new
        self._visits[(state, action)] = self._visits.get((state, action), 0) + 1
        return new

    def _effective_alpha(self, state: int, action: int) -> float:
        """Learning rate for the next update of an entry.

        ``fixed`` is the paper's constant alpha.  ``decay`` uses the
        stochastic-approximation schedule ``1 / (n + 1) ** 0.6`` floored
        at ``alpha_min``: the first visit of an entry jumps directly to
        its bootstrap target (eliminating stale values from earlier in
        the run, when the value scale was still growing), and subsequent
        visits average measurement noise away while the floor preserves
        adaptivity to drift.
        """
        if self.alpha_schedule == "fixed":
            return self.alpha
        n = self._visits.get((state, action), 0)
        return max(self.alpha_min, 1.0 / (n + 1) ** 0.6)

    def visit_count(self, state: int, action: int) -> int:
        """How many times the entry has been updated."""
        self._check(state, action)
        return self._visits.get((state, action), 0)

    def __len__(self) -> int:
        return len(self._table)

    def snapshot(self) -> dict[tuple[int, int], float]:
        """A copy of the populated entries (for inspection/tests)."""
        return dict(self._table)

    def _check(self, state: int, action: int) -> None:
        if state < 0:
            raise ValueError("state must be non-negative")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action must be within [0, {self.n_actions})")


# -- dense table vs oracle ---------------------------------------------------


def bits(value: float) -> bytes:
    """Exact float identity: tells -0.0 from 0.0 and NaN payloads apart."""
    return struct.pack("<d", value)


def exact(value):
    """Normalize a result for bit-level comparison."""
    if isinstance(value, float):
        return ("f", bits(value))
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    return value


def outcome(call):
    """A call's exact result, or its ``ValueError`` message."""
    try:
        return "ok", exact(call())
    except ValueError as error:
        return "ValueError", str(error)


def random_ops(rng: random.Random, n_states: int, n_actions: int, n_ops: int):
    """(name, args, kwargs) triples over valid and invalid indices.

    States stay below ``n_states`` (the oracle accepts any non-negative
    state) but go negative; actions go out of range on both sides.
    Rewards come from a small pool half the time so that values tie.
    """

    def state():
        if rng.random() < 0.1:
            return rng.randrange(-1, n_states)
        return rng.randrange(n_states)

    def action():
        if rng.random() < 0.1:
            return rng.randrange(-1, n_actions + 1)
        return rng.randrange(n_actions)

    for _ in range(n_ops):
        op = rng.choice(
            ("update", "update", "update", "best_action", "visited",
             "visit_count", "state_visited", "max_value", "value",
             "snapshot", "len")
        )
        if op == "update":
            reward = (
                rng.choice((-2.0, -0.0, 0.0, 0.5, 1.0, 3.0))
                if rng.random() < 0.5
                else rng.uniform(-5.0, 5.0)
            )
            yield op, (state(), action(), reward, state()), {}
        elif op == "best_action":
            kind = rng.random()
            if kind < 0.25:
                yield op, (state(),), {}
            elif kind < 0.8:
                order = list(range(n_actions))
                rng.shuffle(order)
                yield op, (state(),), {"tie_break": order}
            else:
                order = [action() for _ in range(rng.randrange(1, n_actions + 2))]
                yield op, (state(),), {"tie_break": order}
        elif op in ("visited", "visit_count", "value"):
            yield op, (state(), action()), {}
        elif op in ("state_visited", "max_value"):
            yield op, (state(),), {}
        else:
            yield op, (), {}


def call(table, op, args, kwargs):
    if op == "snapshot":
        return table.snapshot
    if op == "len":
        return lambda: len(table)
    return lambda: getattr(table, op)(*args, **kwargs)


@pytest.mark.parametrize("schedule", ["fixed", "decay"])
@pytest.mark.parametrize("seed", range(12))
def test_dense_table_matches_dict_oracle(seed, schedule):
    rng = random.Random(seed * 2 + (schedule == "decay"))
    n_states = rng.randrange(1, 7)
    n_actions = rng.randrange(1, 7)
    params = {"alpha_schedule": schedule}
    if rng.random() < 0.3:
        params.update(alpha=1.0, gamma=0.0)  # values equal rewards: many ties
    elif rng.random() < 0.5:
        params.update(alpha=rng.uniform(0.05, 1.0), gamma=rng.uniform(0.0, 0.99))
    dense = LookupTable(n_actions=n_actions, n_states=n_states, **params)
    oracle = DictLookupTable(n_actions=n_actions, **params)
    for step, (op, args, kwargs) in enumerate(
        random_ops(rng, n_states, n_actions, 400)
    ):
        got = outcome(call(dense, op, args, kwargs))
        want = outcome(call(oracle, op, args, kwargs))
        assert got == want, f"step {step}: {op}{args} {kwargs}"
    assert exact(dense.snapshot()) == exact(oracle.snapshot())


def test_dense_table_rejects_states_beyond_the_bucketizer():
    n_states = LoadBucketizer(0.09).n_buckets
    table = LookupTable(n_actions=3, n_states=n_states)
    for op in (
        lambda: table.value(n_states, 0),
        lambda: table.state_visited(n_states),
        lambda: table.max_value(n_states),
        lambda: table.best_action(n_states),
        lambda: table.update(0, 0, 1.0, n_states),
        lambda: table.update(n_states, 0, 1.0, 0),
    ):
        with pytest.raises(ValueError, match="n_states"):
            op()
    assert len(table) == 0


# -- one reward path ---------------------------------------------------------

#: Tail latencies against a 10 ms target: below the danger zone (0.85),
#: inside it (the stochastic band) and violating.
BANDS = {"safe": 4.0, "danger": 9.2, "violated": 13.5}


@pytest.mark.parametrize("batch", [False, True], ids=["power", "throughput"])
@pytest.mark.parametrize("band", sorted(BANDS))
def test_compute_reward_and_scalar_path_agree(band, batch):
    inputs = RewardInputs(
        qos_curr_ms=BANDS[band],
        qos_target_ms=10.0,
        power_w=1.7,
        tdp_w=3.1,
        batch_present=batch,
        big_ips=2.3e9,
        small_ips=0.7e9,
        max_ips_big=4.1e9,
        max_ips_small=1.9e9,
    )
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    breakdown = compute_reward(inputs, rng_a)
    total, qos_part, stochastic, objective = reward_terms(
        inputs.qos_curr_ms,
        inputs.qos_target_ms,
        inputs.power_w,
        inputs.tdp_w,
        inputs.batch_present,
        inputs.big_ips,
        inputs.small_ips,
        inputs.max_ips_big + inputs.max_ips_small,
        rng_b,
        0.85,
    )
    assert bits(breakdown.total) == bits(total)
    assert breakdown.qos_part == qos_part
    assert breakdown.stochastic_penalty == stochastic
    assert breakdown.objective_part == objective
    assert breakdown.violated == (band == "violated")
    assert (stochastic > 0.0) == (band == "danger")
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@dataclass(frozen=True)
class _Observation:
    """The fields of an interval observation Hipster reads."""

    measured_load: float
    tail_latency_ms: float
    power_w: float
    big_ips: float
    small_ips: float
    qos_met: bool
    duration_s: float
    decision: object


@pytest.mark.parametrize("variant", ["in", "co"])
@pytest.mark.parametrize("band", sorted(BANDS))
def test_hipster_observe_applies_compute_reward(platform, band, variant):
    """One learning-phase step: the table entry Hipster writes is the
    oracle's update with :func:`compute_reward`'s total, and both
    consume the rng identically."""
    workload = memcached()
    manager = hipster_in() if variant == "in" else hipster_co()
    manager.start(
        ManagerContext(
            platform=platform,
            workload=workload,
            interval_s=1.0,
            rng=np.random.default_rng(3),
            batch_present=variant == "co",
        )
    )
    decision = manager.decide()
    tail = BANDS[band] / 10.0 * workload.target_latency_ms
    observation = _Observation(
        measured_load=0.42,
        tail_latency_ms=tail,
        power_w=1.37,
        big_ips=1.1e9,
        small_ips=0.4e9,
        qos_met=tail <= workload.target_latency_ms,
        duration_s=1.0,
        decision=decision,
    )
    manager.observe(observation)

    rng = np.random.default_rng(3)
    expected = compute_reward(
        RewardInputs(
            qos_curr_ms=tail,
            qos_target_ms=workload.target_latency_ms,
            power_w=observation.power_w,
            tdp_w=platform.tdp_w,
            batch_present=decision.run_batch,
            big_ips=observation.big_ips,
            small_ips=observation.small_ips,
            max_ips_big=platform.big.max_microbench_ips(),
            max_ips_small=platform.small.max_microbench_ips(),
        ),
        rng,
    )
    oracle = DictLookupTable(
        n_actions=len(manager.configurations), alpha_schedule="decay"
    )
    action = manager.configurations.index(decision.config)
    bucketizer = LoadBucketizer(DEFAULT_BUCKET_SIZE[workload.name])
    next_state = bucketizer.bucket(observation.measured_load)
    want = oracle.update(0, action, expected.total, next_state)
    assert decision.run_batch == (variant == "co")
    assert bits(manager.table.value(0, action)) == bits(want)
    assert manager.ctx.rng.bit_generator.state == rng.bit_generator.state
