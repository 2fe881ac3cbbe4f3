"""The repository's end-to-end benchmark, with a per-layer traced mode.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hipster-fleet --seed 3 --seconds 30 --trace 0

With ``--trace 0`` the workload runs, untraced, in fresh processes (one
per pass) until ``--seconds`` have gone by, and the end-to-end metrics
are the medians over the passes.  Host times are scaled by the
host-speed reference of ``calibrate.py``, timed before the first pass
and after every process, so they read as seconds on the sizing host in
its usual state whatever phase the shared host is in.  With
``--trace 1`` it runs once untraced and once under the span tracer
(``tracing.py``), each in one process with one worker so every layer's
calls are seen, and the per-layer metrics come from the traced process.
``hipster-fleet`` adds a traced ``jobs=2`` run for its parent-side
dispatch metrics.

Every pass is checked: digests must repeat across passes, match the
digests in ``expected.json`` for the seeds recorded there, and agree
between serial and parallel and between untraced and traced runs.
A mismatch fails every spec of the pass.  The last line of stdout is
the result object; ``workloads.json`` documents the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from calibrate import REFERENCE_S, kernel_s  # noqa: E402
from tracing import EXACT_COUNTS, PER_LAYER_METRICS, SELF_TIMES  # noqa: E402

#: Worker processes of the untraced passes (the hipster-fleet fleet fans
#: out over nproc of the 2-CPU host the workloads were sized on).
JOBS = {"paper-quick": 1, "hipster-fleet": 2, "fault-drill": 1}
WORKLOADS = tuple(JOBS)

#: Set-ups measured per run at least (passes first, then set-up probes).
MIN_SETUPS = 5

CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def host_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Session:
    """Runs child processes for one benchmark invocation."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._n = 0
        self.log: list[dict] = []  # every child's result, spans aside

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_dir(self) -> Path:
        self._n += 1
        return self.work / f"cache-{self._n}"

    def child(self, mode: str, *, jobs: int = 1, cache_dir=None, spans=None) -> dict:
        self._n += 1
        out = self.work / f"child-{self._n}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, self.workload,
               str(self.seed), str(out), "--jobs", str(jobs)]
        if cache_dir is not None:
            cmd += ["--cache-dir", str(cache_dir)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--t0", repr(time.time())]
        proc = subprocess.Popen(
            cmd, cwd=self.root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} pass of {self.workload} timed out") from None
        finally:
            # The child's pool workers share its process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} pass of {self.workload} exited {proc.returncode}:\n"
                + err[-2000:]
            )
        result = json.loads(out.read_text())
        self.log.append({"mode": mode, "jobs": jobs,
                         **{k: v for k, v in result.items() if k != "spans"}})
        return result


class Checks:
    """Accumulates attempted/failed specs and what went wrong."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict | None = None  # of the first pass

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def add_pass(self, result: dict, reference: dict | None, what: str) -> None:
        """Count one pass; on a digest mismatch all its specs fail."""
        specs = max(result["specs"], 1)
        self.attempted += specs
        if self.digests is None:
            self.digests = result["digests"]
        failed = result["failed_specs"]
        if result["error"]:
            self.problem(f"{what}: {result['error']}")
            failed = specs
        if reference is not None and result["digests"] != reference:
            self.problem(f"{what}: digests {result['digests']} != {reference}")
            failed = specs
        self.failed += min(failed, specs)


def load_expected(workload: str, seed: int) -> dict | None:
    path = HERE / "expected.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["workloads"].get(workload, {}).get(str(seed))


def _prepare(session: Session, checks: Checks):
    """Reference digests and a cache-dir factory for the workload's passes."""
    reference = checks.expected["digests"] if checks.expected else None
    if session.workload == "paper-quick":
        return reference, session.fresh_dir
    return reference, lambda: None


def timed_run(session: Session, seconds: float, checks: Checks) -> dict:
    """The untraced end-to-end run: passes until ``seconds`` elapsed.

    Each process's host times are scaled by ``REFERENCE_S`` over the
    mean of the reference kernel's times just before and just after it,
    which follows a shift of the host's speed within a run.
    """
    jobs = JOBS[session.workload]
    reference, cache_dir = _prepare(session, checks)
    passes, kernels = [], [kernel_s()]
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        result = session.child("pass", jobs=jobs, cache_dir=cache_dir())
        kernels.append(kernel_s())
        checks.add_pass(result, reference, f"pass {len(passes)}")
        # Unrecorded seeds: every pass must repeat the first one.
        reference = reference or result["digests"]
        passes.append(result)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(session.child("setup", jobs=jobs, cache_dir=cache_dir())["setup_s"])
        kernels.append(kernel_s())
    scales = [2.0 * REFERENCE_S / (a + b) for a, b in zip(kernels, kernels[1:])]
    session.log.append({"mode": "host-speed", "kernel_s": kernels})
    sims = {json.dumps(p["sim"], sort_keys=True) for p in passes}
    if len(sims) != 1:
        checks.problem(f"simulated metrics differ across passes: {sims}")
    sim = passes[0]["sim"]
    return {
        "wall_s": (statistics.median(p["wall_s"] * k for p, k in zip(passes, scales)), "s"),
        "setup_s": (statistics.median(x * k for x, k in zip(setups, scales)), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": (1.0 - checks.failed / checks.attempted, "frac"),
        "sim_qos_pct": (sim["sim_qos_pct"], "%"),
        "sim_energy_kj": (sim["sim_energy_kj"], "kJ"),
    }


def layer_metrics(traced: dict) -> dict:
    """The traced process's per-layer metrics under their reported names."""
    spans, counts, runner = traced["spans"], traced["counts"], traced["runner"]
    out = {}
    for name, _unit in PER_LAYER_METRICS:
        # A runner counter, else a wrapper count, else a span metric; a
        # name nothing recorded is a layer that did no work: 0.
        span = spans.get(SELF_TIMES.get(name, name), 0.0)
        out[name] = runner.get(name, counts.get(name, span))
    intervals = out["engine.intervals"]
    out["engine.epoch_share"] = out["engine.epoch_intervals"] / intervals if intervals else 0.0
    out["import.s"] = traced["import_s"]
    out["unattributed.s"] = spans["unattributed.s"]
    return out


def traced_run(session: Session, checks: Checks) -> dict:
    """The per-layer run: untraced and traced processes, one worker."""
    workload = session.workload
    reference, cache_dir = _prepare(session, checks)
    spans_dir = session.root / ".perfbench" / "traces"
    spans_dir.mkdir(parents=True, exist_ok=True)
    kernels = [kernel_s()]
    base = session.child("pass", cache_dir=cache_dir())
    kernels.append(kernel_s())
    checks.add_pass(base, reference, "untraced pass")
    reference = base["digests"]
    traced = session.child("traced", cache_dir=cache_dir(),
                           spans=spans_dir / f"{workload}.npz")
    kernels.append(kernel_s())
    checks.add_pass(traced, reference, "traced pass")
    metrics = layer_metrics(traced)
    if workload == "hipster-fleet":
        parallel = session.child("traced", jobs=JOBS[workload],
                                 spans=spans_dir / f"{workload}-jobs2.npz")
        checks.add_pass(parallel, reference, "traced jobs=2 pass")
        dispatch = layer_metrics(parallel)
        for name in ("batch.dispatch_wait.s", "batch.chunks_dispatched",
                     "batch.pool_spawns", "records.decode.s", "records.payload_bytes"):
            metrics[name] = dispatch[name]
    # Both passes scaled by the host-speed reference around them.
    metrics["trace_overhead_frac"] = (
        traced["wall_s"] / (kernels[1] + kernels[2])
        / (base["wall_s"] / (kernels[0] + kernels[1])) - 1.0
    )

    if metrics["unattributed.s"] < 0:
        checks.problem(f"unattributed.s < 0: {metrics['unattributed.s']}")
    for name in ("batch.specs_dispatched", "batch.misses"):
        if metrics[name] != base["runner"][name]:
            checks.problem(f"{name}: traced {metrics[name]} != untraced {base['runner'][name]}")
    simulated = {0: 0, base["specs"]: base["sim"]["intervals"]}.get(base["runner"]["batch.misses"])
    if simulated is not None and metrics["engine.intervals"] != simulated:
        checks.problem(f"engine.intervals = {metrics['engine.intervals']}, simulated {simulated}")
    if checks.expected:
        for name in EXACT_COUNTS:
            if metrics[name] != checks.expected["counts"][name]:
                checks.problem(
                    f"{name} = {metrics[name]}, recorded {checks.expected['counts'][name]}"
                )
    units = dict(PER_LAYER_METRICS)
    return {name: (float(metrics[name]), units[name]) for name, _ in PER_LAYER_METRICS}


def collect(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            *, expected: bool = True):
    """Run one benchmark invocation; returns ``(metrics, checks, log)``.

    ``expected=False`` skips the recorded digests and counts (used when
    recording them).
    """
    checks = Checks(load_expected(workload, seed) if expected else None)
    session = Session(root, workload, seed)
    try:
        if trace:
            metrics = traced_run(session, checks)
        else:
            metrics = timed_run(session, seconds, checks)
    finally:
        session.close()
    return metrics, checks, session.log


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/repro/__init__.py", "packs/failure-drill.yaml",
                           "packs/rack-outage.yaml") if not (root / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of the repository (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    try:
        metrics, checks, log = collect(root, args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for problem in checks.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    host = host_fingerprint()
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"host": host, "metrics": metrics, "problems": checks.problems,
                    "children": log}, indent=1)
    )
    print("host " + json.dumps(host, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
