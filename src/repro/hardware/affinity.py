"""Core-assignment bookkeeping: ``sched_setaffinity`` and job control.

The paper's Mapper Module pins the latency-critical workload to cores with
``sched_setaffinity``, hands leftover cores to batch jobs, and parks batch
jobs with ``SIGSTOP``/``SIGCONT`` when no core is available for them.  This
module provides the same mechanics over the simulated platform and counts
core migrations, because migrations (unlike DVFS changes) are the expensive
transitions whose cost drives the paper's central QoS argument.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.hardware.soc import Platform
from repro.hardware.topology import Configuration, validate_configuration

#: A configuration's placement layout: the LC core tuple, the same cores
#: as a frozenset, and the cores left over, in platform order.
_Layout = tuple[tuple[str, ...], frozenset[str], tuple[str, ...]]


class Role(str, enum.Enum):
    """What a core is currently running."""

    LATENCY_CRITICAL = "lc"
    BATCH = "batch"
    IDLE = "idle"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Placement:
    """Result of applying a configuration: who runs where.

    ``batch_assignment`` maps core id to the index of the batch job running
    there; batch jobs not present in the mapping are suspended (SIGSTOP).
    """

    lc_cores: tuple[str, ...]
    batch_assignment: dict[str, int]
    migrated_cores: int
    migration_event: bool

    @property
    def idle_cores_of(self) -> frozenset[str]:  # pragma: no cover - helper
        return frozenset(self.batch_assignment)


@dataclass
class AffinityManager:
    """Tracks which cores the latency-critical and batch workloads occupy.

    Latency-critical cores are always the lowest-numbered cores of each
    cluster, which keeps placement deterministic and makes migration
    counting meaningful (a ``2B2S -> 2B2S`` redecision moves nothing).
    """

    platform: Platform
    _lc_cores: frozenset[str] = field(init=False, default_factory=frozenset)
    _migrated_cores_total: int = field(init=False, default=0)
    _migration_events: int = field(init=False, default=0)
    #: Per-configuration layout memo.  Only valid configurations are
    #: stored, so an invalid one raises every time.
    _layouts: dict[Configuration, _Layout] = field(init=False, default_factory=dict)

    def _layout(self, config: Configuration) -> _Layout:
        layout = self._layouts.get(config)
        if layout is None:
            validate_configuration(self.platform, config)
            lc_cores = (
                self.platform.big.core_ids[: config.n_big]
                + self.platform.small.core_ids[: config.n_small]
            )
            lc_set = frozenset(lc_cores)
            remaining = tuple(
                cid for cid in self.platform.core_ids if cid not in lc_set
            )
            layout = self._layouts[config] = (lc_cores, lc_set, remaining)
        return layout

    def lc_core_ids(self, config: Configuration) -> tuple[str, ...]:
        """Deterministic core ids for a configuration (big first)."""
        return self._layout(config)[0]

    def apply(
        self,
        config: Configuration,
        *,
        n_batch_jobs: int = 0,
    ) -> Placement:
        """Pin the latency-critical workload and distribute batch jobs.

        Batch jobs are assigned one per remaining core (the paper runs as
        many batch program instances as there are cores left over); if
        there are fewer jobs than free cores the extras stay idle, and if
        there are more jobs than cores the surplus jobs are suspended.
        """
        lc_cores, new_lc, remaining = self._layout(config)
        moved = len(new_lc.symmetric_difference(self._lc_cores))
        event = moved > 0 and bool(self._lc_cores)
        if event:
            self._migration_events += 1
            self._migrated_cores_total += moved
        self._lc_cores = new_lc

        batch_assignment = {
            core_id: job for job, core_id in enumerate(remaining[:n_batch_jobs])
        }
        return Placement(
            lc_cores=lc_cores,
            batch_assignment=batch_assignment,
            migrated_cores=moved,
            migration_event=event,
        )

    def role_of(self, core_id: str, placement: Placement) -> Role:
        """Role of a core under a given placement."""
        if core_id in placement.lc_cores:
            return Role.LATENCY_CRITICAL
        if core_id in placement.batch_assignment:
            return Role.BATCH
        if core_id not in self.platform.core_ids:
            raise KeyError(f"unknown core id {core_id!r}")
        return Role.IDLE

    @property
    def migration_events(self) -> int:
        """Number of intervals whose reconfiguration moved at least one core."""
        return self._migration_events

    @property
    def migrated_cores_total(self) -> int:
        """Total count of cores that entered or left the LC set."""
        return self._migrated_cores_total
