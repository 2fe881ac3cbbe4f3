"""The columnar observation store: table <-> row round-trips, slim
versioned cache payloads, legacy-payload rejection, and the pinned
cache keys of the storage-format bump.

The struct-of-arrays :class:`~repro.sim.records.ObservationTable`
replaced the tuple-of-dataclasses result representation
(``SCHEMA_VERSION`` 1 -> 2); these tests pin the contract that made the
swap safe:

* a table materializes back into exactly the rows that built it
  (property-tested over adversarial float values);
* pickled payloads carry columns (small, fast to decode), never
  per-interval dataclass objects, and are stamped with
  ``STORAGE_VERSION`` -- foreign-version payloads raise on load and the
  outcome cache treats them as misses;
* the fingerprint (cache-key) change of the format bump is pinned in
  both directions, so a silent ``SCHEMA_VERSION`` drift cannot
  resurrect stale cache entries.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.spec import FleetSpec
from repro.hardware.topology import Configuration
from repro.policies.base import Decision
from repro.scenarios import ScenarioSpec, TraceSpec
from repro.sim.batch import BatchRunner, DiskCache
from repro.sim.records import (
    BOOL_FIELDS,
    FLOAT_FIELDS,
    INT_FIELDS,
    STORAGE_VERSION,
    ExperimentResult,
    IntervalObservation,
    ObservationRowView,
    ObservationTable,
)

DECISIONS = (
    Decision(
        config=Configuration(2, 0, 1.15, None),
        big_freq_ghz=1.15,
        small_freq_ghz=0.65,
        run_batch=False,
    ),
    Decision(
        config=Configuration(0, 4, None, 0.65),
        big_freq_ghz=1.15,
        small_freq_ghz=0.65,
        run_batch=True,
    ),
)

LABELS = ("2B-1.15", "4S-0.65", "2B2S-0.90")

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)


@st.composite
def observations(draw, index: int = 0) -> IntervalObservation:
    fields: dict = {name: draw(finite_floats) for name in FLOAT_FIELDS}
    for name in INT_FIELDS:
        fields[name] = draw(st.integers(min_value=-(2**53), max_value=2**53))
    for name in BOOL_FIELDS:
        fields[name] = draw(st.booleans())
    fields["index"] = index
    fields["decision"] = draw(st.sampled_from(DECISIONS))
    fields["config_label"] = draw(st.sampled_from(LABELS))
    return IntervalObservation(**fields)


def sample_result(n: int = 7, seed: int = 0) -> ExperimentResult:
    """A deterministic hand-built result (no engine run needed)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        fields: dict = {name: float(rng.normal()) for name in FLOAT_FIELDS}
        for name in INT_FIELDS:
            fields[name] = int(rng.integers(0, 1000))
        for name in BOOL_FIELDS:
            fields[name] = bool(rng.random() < 0.5)
        fields["index"] = i
        fields["t_start_s"] = float(i)
        fields["decision"] = DECISIONS[i % len(DECISIONS)]
        fields["config_label"] = LABELS[i % len(LABELS)]
        rows.append(IntervalObservation(**fields))
    return ExperimentResult(
        rows,
        workload_name="memcached",
        manager_name="static-big",
        target_latency_ms=500.0,
        interval_s=1.0,
    )


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_table_row_round_trip_is_exact(self, data):
        """Property: from_observations . rows == identity, bit for bit
        (dataclass equality plus exact reprs, which see -0.0 and every
        last ulp)."""
        n = data.draw(st.integers(min_value=1, max_value=12))
        rows = tuple(
            data.draw(observations(index=i), label=f"row{i}") for i in range(n)
        )
        table = ObservationTable.from_observations(rows)
        back = table.rows()
        assert back == rows
        for a, b in zip(back, rows):
            for name in FLOAT_FIELDS + INT_FIELDS + BOOL_FIELDS:
                assert repr(getattr(a, name)) == repr(getattr(b, name))
            assert a.decision is b.decision
            assert a.config_label is b.config_label

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_pickle_round_trip_is_exact(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        rows = tuple(
            data.draw(observations(index=i), label=f"row{i}") for i in range(n)
        )
        table = ObservationTable.from_observations(rows)
        clone = pickle.loads(pickle.dumps(table, pickle.HIGHEST_PROTOCOL))
        assert clone.rows() == rows

    def test_row_views_read_python_scalars(self):
        result = sample_result()
        view = result.table.view(3)
        assert isinstance(view, ObservationRowView)
        row = result.observations[3]
        for name in FLOAT_FIELDS:
            value = getattr(view, name)
            assert type(value) is float and value == getattr(row, name)
        for name in INT_FIELDS:
            assert type(getattr(view, name)) is int
        for name in BOOL_FIELDS:
            assert type(getattr(view, name)) is bool
        assert view.decision is row.decision
        assert view.config_label == row.config_label
        assert view.materialize() == row


class TestTableBehaviour:
    def test_pools_dictionary_encode(self):
        result = sample_result(n=9)
        table = result.table
        assert len(table.decision_pool) == len(DECISIONS)
        assert len(table.label_pool) == len(LABELS)
        assert table.labels() == result.config_labels

    def test_columns_are_read_only_views(self):
        result = sample_result()
        for accessor in ("tails_ms", "powers_w", "loads", "times_s"):
            column = getattr(result, accessor)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        # ...and repeated access returns the same buffer, not a rebuild.
        assert result.tails_ms is result.tails_ms

    def test_capacity_is_enforced(self):
        table = ObservationTable(1)
        row = sample_result(n=2).observations
        table.append_observation(row[0])
        with pytest.raises(IndexError, match="capacity"):
            table.append_observation(row[1])

    def test_pickling_a_live_table_does_not_freeze_it(self):
        """Snapshotting (pickle/deepcopy) a mid-build table must not
        mutate the source: later appends still work and the snapshot
        holds only the rows appended so far."""
        import copy

        rows = sample_result(n=3).observations
        table = ObservationTable(3)
        table.append_observation(rows[0])
        snapshot = pickle.loads(pickle.dumps(table))
        deep = copy.deepcopy(table)
        table.append_observation(rows[1])  # must not raise
        table.append_observation(rows[2])
        assert snapshot.rows() == rows[:1]
        assert deep.rows() == rows[:1]
        assert table.freeze().rows() == rows

    def test_frozen_table_rejects_appends(self):
        result = sample_result(n=2)
        with pytest.raises(RuntimeError, match="frozen"):
            result.table.append_observation(result.observations[0])

    def test_partial_fill_freezes_to_length(self):
        rows = sample_result(n=5).observations
        table = ObservationTable(10)
        for row in rows[:3]:
            table.append_observation(row)
        table.freeze()
        assert len(table) == 3
        assert table.rows() == rows[:3]

    def test_take_preserves_rows_and_pools(self):
        result = sample_result(n=8)
        taken = result.table.take(np.array([1, 5, 2]))
        assert taken.rows() == tuple(
            result.observations[i] for i in (1, 5, 2)
        )

    def test_slice_matches_row_filtering(self):
        result = sample_result(n=8)
        sliced = result.slice(2.0, 6.0)
        assert sliced.observations == tuple(
            o for o in result.observations if 2.0 <= o.t_start_s < 6.0
        )
        with pytest.raises(ValueError, match="at least one interval"):
            result.slice(1e9)

    def test_empty_result_rejected_in_both_forms(self):
        meta = dict(
            workload_name="x",
            manager_name="y",
            target_latency_ms=1.0,
            interval_s=1.0,
        )
        with pytest.raises(ValueError, match="at least one interval"):
            ExperimentResult([], **meta)
        with pytest.raises(ValueError, match="at least one interval"):
            ExperimentResult(ObservationTable(0), **meta)


class TestVersionedPayloads:
    def test_payload_is_columnar_not_per_interval_objects(self):
        """The cache payload must never contain pickled per-interval
        dataclasses again -- that is the decode bottleneck the format
        bump removed."""
        result = sample_result(n=50)
        payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        assert b"IntervalObservation" not in payload
        clone = pickle.loads(payload)
        assert clone.observations == result.observations
        assert clone.workload_name == result.workload_name
        assert clone.interval_s == result.interval_s

    def test_materialized_rows_are_not_pickled(self):
        """Touching ``observations`` before pickling must not fatten the
        payload with the memoized dataclass rows."""
        result = sample_result(n=50)
        cold = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        result.observations  # materialize the memo
        warm = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        assert len(warm) == len(cold)

    def test_legacy_result_payload_rejected(self):
        """A pre-columnar pickle (instance ``__dict__`` with an
        ``_observations`` tuple) must raise on load, not resurrect a
        half-compatible object."""
        legacy_state = {
            "_observations": sample_result(n=2).observations,
            "workload_name": "memcached",
            "manager_name": "static-big",
            "target_latency_ms": 500.0,
            "interval_s": 1.0,
        }

        class LegacyPickle:
            """Pickles exactly like a pre-bump ExperimentResult: new the
            object, then BUILD with the legacy state dict."""

            def __reduce__(self):
                return (
                    ExperimentResult.__new__,
                    (ExperimentResult,),
                    legacy_state,
                )

        payload = pickle.dumps(LegacyPickle())
        with pytest.raises(ValueError, match="storage"):
            pickle.loads(payload)
        with pytest.raises(ValueError, match="storage"):
            ExperimentResult.__new__(ExperimentResult).__setstate__(legacy_state)

    def test_foreign_table_version_rejected(self):
        table = sample_result(n=2).table
        state = table.__getstate__()
        state["storage"] = STORAGE_VERSION + 1
        with pytest.raises(ValueError, match="storage format"):
            ObservationTable.__new__(ObservationTable).__setstate__(state)

    def test_cache_treats_legacy_payload_as_miss_and_deletes_it(self, tmp_path):
        """End to end: a legacy payload planted under a current cache
        key is rejected on decode, deleted from the index (its bytes
        quarantined), and recomputed."""
        spec = ScenarioSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.5, 10.0),
            manager="static-big",
        )
        fresh = spec.run()
        legacy_state = {
            "_observations": fresh.result.observations,
            "workload_name": fresh.result.workload_name,
            "manager_name": fresh.result.manager_name,
            "target_latency_ms": fresh.result.target_latency_ms,
            "interval_s": fresh.result.interval_s,
        }

        class LegacyPickle:
            def __reduce__(self):
                return (
                    ExperimentResult.__new__,
                    (ExperimentResult,),
                    legacy_state,
                )

        key = spec.fingerprint()
        DiskCache(tmp_path).store_many([(key, pickle.dumps(LegacyPickle()))])
        runner = BatchRunner(cache_dir=tmp_path, memory_entries=0)
        assert runner._cache_load(key) is None
        assert runner.disk.corrupt_entries == 1
        assert key not in runner.disk._load_pack_index(), (
            "rejected legacy record must leave the lookup path"
        )
        (outcome,) = runner.run([spec])
        assert runner.cache_misses == 1
        assert outcome.result.observations == fresh.result.observations


class TestCacheKeyPins:
    """Cache keys pinned on both sides of the storage-format bump.

    ``SCHEMA_VERSION`` folds into every fingerprint, so the bump retired
    every pre-columnar cache entry by key; these pins catch both a
    silent future format change (v2 keys drift) and an accidental
    rollback that would resurrect stale v1 entries (v2 keys collide
    with the retired v1 values)."""

    STEADY = dict(
        workload="memcached",
        trace=TraceSpec.constant(0.6, 15.0),
        manager="static-big",
    )
    COLLOCATION = dict(
        workload="websearch",
        trace=TraceSpec.diurnal(120.0),
        manager="hipster-co",
        batch_jobs="spec:lbm",
        seed=3,
    )

    #: (v2 key, retired v1 key) per pinned spec.  Scenario cache keys
    #: carry the version-legible ``s<schema>-<kernel>-`` prefix (which
    #: compaction uses to reclaim stranded records); the FleetSpec
    #: fingerprint is an identity, not a disk cache key, so it stays a
    #: bare hash.
    PINS = {
        "steady": (
            "s2-lindley-v1-49ff010b94a1bb1b5038e1c3",
            "71101f51e204f4070109d4c6",
        ),
        "collocation": (
            "s2-lindley-v1-4c9ce613370ea460dff8697b",
            "7f151e656e67b499cd7150d1",
        ),
        # Re-pinned for FLEET_SCHEMA_VERSION 1 -> 2 (workload_mix +
        # faults joined the fingerprint payload); the retired slot
        # holds the fleet-schema-1 key.  Node-level *cache* keys below
        # are unchanged by the bump.
        "fleet": (
            "8fe464a0205a745695a3e711",
            "b91ee0f506f0096b3f97c3a0",
        ),
        "fleet-node0": (
            "s2-lindley-v1-d53db36b5296c1b4aa15fcfc",
            "11ca0d69383a171f740f30f7",
        ),
    }

    def _fingerprints(self) -> dict[str, str]:
        fleet = FleetSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.6, 12.0),
            manager="static-big",
            n_nodes=3,
            seed=5,
        )
        return {
            "steady": ScenarioSpec(**self.STEADY).fingerprint(),
            "collocation": ScenarioSpec(**self.COLLOCATION).fingerprint(),
            "fleet": fleet.fingerprint(),
            "fleet-node0": fleet.node_specs()[0].fingerprint(),
        }

    def test_v2_keys_pinned(self):
        for name, key in self._fingerprints().items():
            assert key == self.PINS[name][0], (
                f"{name}: cache key drifted without a documented "
                "SCHEMA_VERSION bump"
            )

    def test_v1_keys_retired(self):
        for name, key in self._fingerprints().items():
            assert key != self.PINS[name][1], (
                f"{name}: cache key collides with the retired "
                "pre-columnar (v1) key -- stale entries would resurrect"
            )
