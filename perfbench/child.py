"""One benchmark pass in a fresh process (started by ``run.py``).

Usage::

    python3 perfbench/child.py MODE WORKLOAD SEED OUT \
        --t0 UNIX_TIME [--jobs N] [--cache-dir DIR] [--spans FILE]

``MODE`` is ``pass`` (set up, run, check), ``setup`` (set up only) or
``traced`` (a ``pass`` with the span tracer installed).  ``--t0`` is the wall-clock time at which the
parent started this process, so ``setup_s`` includes interpreter start.
The result is written to ``OUT`` as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["pass", "setup", "traced"])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))

    t_import = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - t_import

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t_traced = time.perf_counter_ns()
    runner, run = workloads.setup(
        args.workload, args.seed, root, jobs=args.jobs, cache_dir=args.cache_dir
    )
    setup_s = time.time() - args.t0
    if args.mode == "setup":
        runner.close()
        Path(args.out).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    from repro.errors import ExecutionError

    t_run = time.perf_counter()
    error = None
    try:
        text, summary = run()
    except ExecutionError as err:  # counted as failed specs, not a crash
        text, summary, error = "", "", f"{type(err).__name__}: {err}"
    wall_s = time.perf_counter() - t_run
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "import_s": import_s,
        "error": error,
        "failed_specs": runner.specs_failed,
    }
    if tracer is not None:
        traced_ns = time.perf_counter_ns() - t_traced
        tracer.uninstall()
        result["spans"] = tracer.span_metrics(traced_ns)
        result["counts"] = tracer.counts()
        if args.spans:
            import numpy as np

            np.savez(args.spans, **tracer.spans())
    result["peak_rss_mb"] = _peak_rss_mb()

    outcomes = workloads.unique_outcomes(runner)
    result["digests"] = workloads.digests(text, summary, outcomes)
    result["sim"] = workloads.sim_metrics(outcomes)
    result["specs"] = len(outcomes)
    result["runner"] = workloads.runner_stats(runner, args.cache_dir)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
