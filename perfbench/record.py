"""Record ``expected.json``: output digests and exact counts per workload.

Usage (from the root of a checkout, on a commit whose outputs are
trusted)::

    python3 perfbench/record.py

Runs the traced mode of every workload at the default seed and at one
held-out seed, without checking against a previous recording, and
writes what the untraced reference pass produced.  hipster-fleet's
reference pass is serial, so its jobs=2 passes are checked against
serial output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import HERE, WORKLOADS, collect, host_fingerprint
from tracing import EXACT_COUNTS

#: The repository's default experiment seed, and a held-out one.
SEEDS = {"default": 2017, "held_out": 1}


def main() -> int:
    root = Path.cwd()
    recorded = {"host": host_fingerprint(), "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        for seed in SEEDS.values():
            metrics, checks, _ = collect(root, workload, seed, 0, True, expected=False)
            if checks.problems or checks.failed:
                print(f"{workload} seed {seed}: {checks.problems}", file=sys.stderr)
                return 1
            recorded["workloads"].setdefault(workload, {})[str(seed)] = {
                "digests": checks.digests,
                "counts": {name: int(metrics[name][0]) for name in EXACT_COUNTS},
            }
            print(f"{workload} seed {seed}: recorded", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(recorded, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
