"""The benchmark's workloads, as one process runs them.

Each workload is set up (specs built or packs compiled, batch runner
opened) and then run; the run returns the text the matching CLI command
would print.  The runner is a :class:`RecordingRunner`, which keeps
every outcome it serves so the checks can digest them afterwards,
outside the timed region.

``--seed`` maps onto the inputs as follows:

* ``paper-quick``: ``all --quick --seed S``;
* ``hipster-fleet``: ``fleet --quick --nodes 64 --seed S`` with
  ``hipster-in`` behind round-robin (node seeds and capacities follow S);
* ``fault-drill``: the two shipped packs with every entry's diurnal
  trace seed set to S.  The fleet seeds, and with them the fault
  schedules, stay as the packs pin them.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path

import yaml

from repro import packs as pack_api
from repro.experiments import EXPERIMENTS
from repro.scenarios import DEFAULT_REGISTRY
from repro.scenarios.spec import ScenarioOutcome
from repro.sim.batch import BatchRunner
from repro.sim.records import POOLED_FIELDS, SCALAR_FIELDS

FLEET_NODES = 64
FAULT_PACKS = ("packs/failure-drill.yaml", "packs/rack-outage.yaml")


class RecordingRunner(BatchRunner):
    """A batch runner that keeps every outcome it serves."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.served: list = []

    def iter_run(self, specs, **kwargs):
        for index, outcome in super().iter_run(specs, **kwargs):
            self.served.append(outcome)
            yield index, outcome


def _paper_quick(runner, seed: int) -> str:
    """The stdout of ``all --quick --seed S``."""
    parts = []
    for name in sorted(EXPERIMENTS):
        module = EXPERIMENTS[name]
        args = ("memcached",) if "workload" in inspect.signature(module.run).parameters else ()
        result = module.run(*args, quick=True, seed=seed, runner=runner)
        parts.append(f"\n=== {name} ===\n{result.render()}\n")
    return "".join(parts)


def _fleet_spec(seed: int):
    return DEFAULT_REGISTRY.build(
        "fleet-diurnal",
        workload="memcached",
        manager="hipster-in",
        n_nodes=FLEET_NODES,
        balancer="round-robin",
        quick=True,
        seed=seed,
    )


def _compile_packs(root: Path, seed: int) -> list:
    packs = []
    for name in FAULT_PACKS:
        data = yaml.safe_load((root / name).read_text())
        for entry in data["scenarios"]:
            for kind in ("fleet", "scenario"):
                trace = entry.get(kind, {}).get("trace")
                if isinstance(trace, dict):
                    trace["seed"] = seed
        # Through the package attribute, so the traced run sees it.
        packs.append(
            pack_api.compile_pack(pack_api.parse_pack(data, source=name), quick=True)
        )
    return packs


def setup(workload: str, seed: int, root: Path, *, jobs: int, cache_dir=None):
    """Build the workload's inputs and open its runner.

    Returns ``(runner, run)``: ``run()`` executes the workload, closes
    the runner and returns ``(stdout_text, summary_text)``.
    """
    if workload == "fault-drill":
        packs = _compile_packs(root, seed)
    elif workload == "hipster-fleet":
        fleet = _fleet_spec(seed)
    elif workload != "paper-quick":
        raise ValueError(f"unknown workload {workload!r}")
    runner = RecordingRunner(jobs=jobs, cache_dir=cache_dir)

    def run() -> tuple[str, str]:
        with runner:
            if workload == "paper-quick":
                return _paper_quick(runner, seed), ""
            if workload == "hipster-fleet":
                return fleet.run(runner).render() + "\n", ""
            text, summaries = [], []
            for pack in packs:
                result = pack_api.run_pack(pack, runner=runner)
                text.append(result.render() + "\n\n")
                summaries.append(result.summary())
            return "".join(text), json.dumps(summaries, sort_keys=True)

    return runner, run


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def unique_outcomes(runner) -> dict:
    """The runner's served outcomes by fingerprint (failures dropped)."""
    return {
        outcome.spec.fingerprint(): outcome
        for outcome in runner.served
        if isinstance(outcome, ScenarioOutcome)
    }


def outcome_digest(outcome) -> str:
    """Hash of everything a run produced: every column, both pools and
    the manager statistics, keyed by the spec fingerprint."""
    h = hashlib.sha256(outcome.spec.fingerprint().encode())
    table = outcome.result.table
    for field in SCALAR_FIELDS + POOLED_FIELDS:
        h.update(field.encode())
        h.update(table.column(field).tobytes())
    h.update(repr((table.decision_pool, table.label_pool)).encode())
    h.update(repr(outcome.manager_stats).encode())
    return h.hexdigest()


def digests(text: str, summary: str, outcomes: dict) -> dict[str, str]:
    """The output digests one pass is checked by."""
    h = hashlib.sha256()
    for key in sorted(outcomes):
        h.update(outcome_digest(outcomes[key]).encode())
    out = {
        "stdout": hashlib.sha256(text.encode()).hexdigest(),
        "outcomes": h.hexdigest(),
    }
    if summary:
        out["summary"] = hashlib.sha256(summary.encode()).hexdigest()
    return out


def sim_metrics(outcomes: dict) -> dict[str, float]:
    """Share of node-intervals meeting QoS, and total energy, simulated."""
    met = intervals = 0
    energy_j = 0.0
    for key in sorted(outcomes):
        result = outcomes[key].result
        met += int(result.table.column("qos_met").sum())
        intervals += len(result)
        energy_j += result.total_energy_j()
    return {
        "sim_qos_pct": 100.0 * met / intervals if intervals else 0.0,
        "sim_energy_kj": energy_j / 1000.0,
        "intervals": intervals,
    }


def runner_stats(runner, cache_dir) -> dict[str, int]:
    """The runner's counters under their per-layer metric names."""
    size = 0
    if cache_dir is not None:
        size = sum(p.stat().st_size for p in Path(cache_dir).rglob("*") if p.is_file())
    return {
        "batch.specs_dispatched": runner.specs_dispatched,
        "batch.chunks_dispatched": runner.chunks_dispatched,
        "batch.pool_spawns": runner.pool_spawns,
        "batch.memory_hits": runner.memory_hits,
        "batch.disk_hits": runner.disk_hits,
        "batch.misses": runner.cache_misses,
        "batch.cache_dir_bytes": size,
        "supervise.retries": runner.chunk_retries,
        "supervise.failures": runner.worker_crashes
        + runner.spec_timeouts
        + runner.specs_failed,
    }
