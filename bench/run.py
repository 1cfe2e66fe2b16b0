"""Rectenna benchmark: seeded CLI workloads timed in-process, checked, optionally traced.

Usage, from the repository root:

    python3 bench/run.py --workload design --seed 1 --seconds 35 --trace 0

Each operation goes through ``rectenna.cli.main(argv)`` in this process, in
a closed loop with one client.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes over the input pool and
prints the per-layer metrics.  The last line of stdout is one JSON object;
the lines before it repeat the metrics for people, and
``bench/results/`` receives the run metadata and the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 11  # fresh interpreters timed, spread evenly over the loop
# full-speed time of the reference kernel on the 2-vCPU Xeon VM the bounds were
# measured on; timings are reported as if the kernel took this long
REFERENCE_KERNEL_S = 0.35e-3
_READY_PROBE = "import rectenna.cli, sys; sys.stdout.write('ready'); sys.stdout.flush()"


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


NPROC = cap_threads()

import numpy as np  # noqa: E402  (after the thread cap: pools size themselves at import)
from tracer import EXERCISED, Totals, Tracer  # noqa: E402
from workloads import WORKLOADS, check, make_pool, run_op  # noqa: E402


class HostSpeed:
    """Times a fixed reference kernel between measurements to correct for host speed.

    On a shared 2-vCPU VM each vCPU slows down by ~1.6x for seconds to
    minutes at a time, for reasons outside the program.  The kernel (numpy
    plus interpreter work, no rectenna code) and the operations slow down
    together, so each measurement is scaled by ``REFERENCE_KERNEL_S`` over
    the mean of the kernel runs on both sides of it.
    """

    _X = np.linspace(0.0, 100.0, 4096)

    def __init__(self):
        self.kernel_s: list[float] = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = np.zeros_like(self._X)
        for k in range(1, 9):
            acc += np.cos(k * self._X)
        total = 0.0
        for k in range(1000):
            total += math.cos(k * 1e-3)
        return time.perf_counter() - t0

    def mark(self) -> int:
        """Time the kernel (best of three, so one cold-cache run does not count)."""
        self.kernel_s.append(min(self._kernel() for _ in range(3)))
        return len(self.kernel_s) - 1

    def scale(self, a: int, b: int) -> float:
        """Reference over local speed for a measurement between marks ``a`` and ``b``."""
        return REFERENCE_KERNEL_S / (0.5 * (self.kernel_s[a] + self.kernel_s[b]))

    def at_reference_speed(self, samples: list[tuple[float, int, int]]) -> list[float]:
        """Values of ``(value, mark_before, mark_after)`` scaled to the reference speed."""
        return [v * self.scale(a, b) for v, a, b in samples]


def _current_cpu() -> int | None:
    try:
        return int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def spawn(host: HostSpeed | None = None) -> tuple[float, int, int] | None:
    """Seconds from spawning a fresh interpreter until ``import rectenna.cli`` is done.

    With ``host``, the sample carries the host-speed marks around it.  On a
    shared VM each vCPU slows down on its own, so the kernel runs and the
    child are held on the CPU this process is on.
    """
    cpus = os.sched_getaffinity(0)
    cpu = _current_cpu() if host else None
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        before = host.mark() if host else -1
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _READY_PROBE], cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.read(5)
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        after = host.mark() if host else -1
    finally:
        os.sched_setaffinity(0, cpus)
    if proc.returncode != 0 or ready != b"ready":
        raise RuntimeError(f"fresh-interpreter import failed (exit {proc.returncode})")
    return (elapsed, before, after) if host else None


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly (no git process, no parent dirs)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Runner:
    """Runs one workload's pool through the CLI and keeps each distinct output."""

    def __init__(self, workload: str, pool, cli):
        self.workload, self.pool, self.cli = workload, pool, cli
        self.outcomes: dict[tuple[int, int, tuple], list] = {}
        self.attempted = 0
        self.bytes_out = 0

    def op(self, index: int) -> float:
        """Run pool entry ``index`` once; return its latency in ms."""
        item = self.pool[index]
        t0 = time.perf_counter()
        outcome = run_op(self.cli, self.workload, item)
        elapsed = time.perf_counter() - t0
        key = (index, outcome.code, outcome.texts, outcome.error)
        entry = self.outcomes.setdefault(key, [outcome, 0])
        entry[1] += 1
        self.attempted += 1
        self.bytes_out += outcome.bytes_out
        return 1e3 * elapsed

    def check(self):
        """Check every distinct output.

        Returns (failed ops, max rel err, C = 0 share, first problem).
        """
        failed, worst, zero, solves, first = 0, 0.0, 0, 0, None
        for (index, *_), (outcome, count) in self.outcomes.items():
            verdict = check(self.workload, self.pool[index], outcome)
            worst = max(worst, verdict.max_rel_err)
            if self.workload in ("design", "analytic_trace") and not verdict.problems:
                solves += count
                zero += count if verdict.zero_cap else 0
            if verdict.problems:
                failed += count
                first = first or f"input {index}: {verdict.problems[0]}"
        return failed, worst, (zero / solves if solves else None), first


def closed_loop(runner: Runner, seconds: float, host: HostSpeed):
    """Cycle through the pool in whole passes, ending at the pass boundary nearest ``seconds``.

    Whole passes keep each input's share of the operations the same in every
    run.  Set-up spawns are spread evenly over ``seconds``; any not yet due
    when the loop ends run after it.  Returns latencies (ms) and spawn times
    (s), each with its host-speed marks.
    """
    samples, spawns = [], []
    n = len(runner.pool)
    t0 = time.perf_counter()
    before = host.mark()
    while True:
        elapsed = time.perf_counter() - t0
        passes = len(samples) // n
        if passes and len(samples) % n == 0 and elapsed * (passes + 0.5) / passes > seconds:
            break
        if len(spawns) < SETUP_SAMPLES and elapsed >= len(spawns) * seconds / SETUP_SAMPLES:
            spawns.append(spawn(host))
            before = spawns[-1][2]
        latency = runner.op(len(samples) % n)
        after = host.mark()
        samples.append((latency, before, after))
        before = after
    while len(spawns) < SETUP_SAMPLES:
        spawns.append(spawn(host))
    return samples, spawns


def traced_passes(runner: Runner, seconds: float, workload: str):
    """Alternate untraced and traced passes over the pool while another pair fits in ``seconds``.

    Counts are per operation over whole passes, so they repeat exactly for one
    seed; the spans of the first traced pass are written out.
    """
    tracer, totals = Tracer(), Totals()
    plain, traced, traced_bytes = [], [], 0
    start = time.perf_counter()
    pair = 0.0
    while not traced or time.perf_counter() - start + pair <= seconds:
        t0 = time.perf_counter()
        plain += [runner.op(i) for i in range(len(runner.pool))]
        tracer.reset()
        tracer.install()
        try:
            before = runner.bytes_out
            for i in range(len(runner.pool)):
                tracer.op = len(traced)
                traced.append(runner.op(i))
            traced_bytes += runner.bytes_out - before
        finally:
            tracer.uninstall()
        totals.add(tracer)
        if len(traced) == len(runner.pool):
            RESULTS.mkdir(exist_ok=True)
            tracer.write(RESULTS / f"spans-{workload}.csv.gz")
        pair = time.perf_counter() - t0
    metrics = totals.metrics(len(traced), traced_bytes)
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    unexercised = [layer for layer in EXERCISED[workload] if totals.layer_calls(layer) == 0]
    return metrics, tracer.absent, sorted(tracer.unsized), unexercised, len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rectenna" / "__init__.py").is_file():
        print(f"error: no rectenna sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not args.trace:
        spawn()  # untimed: writes the bytecode caches, as on any installed copy
    import rectenna
    import rectenna.cli as cli

    if Path(rectenna.__file__).resolve().parent != SRC / "rectenna":
        print(f"error: imported rectenna from {rectenna.__file__}", file=sys.stderr)
        return 2

    pool = make_pool(args.workload, args.seed)
    runner = Runner(args.workload, pool, cli)
    runner.op(0)  # warm-up, untimed: lazy imports and first-call costs

    metrics: dict[str, tuple[float, str]] = {}
    notes = []
    if args.trace:
        layer, absent, unsized, unexercised, traced_ops = traced_passes(
            runner, args.seconds, args.workload)
        metrics.update(layer)
        notes.append(f"traced operations: {traced_ops}")
        notes.append(f"absent functions: {', '.join(absent) or 'none'}")
        notes.append(f"unsized functions (points and terms read 0): {', '.join(unsized) or 'none'}")
        notes.append("layer self-check: " + (
            "ok" if not unexercised else "NO CALLS in " + ", ".join(unexercised)))
    else:
        host = HostSpeed()
        timed, setup = closed_loop(runner, args.seconds, host)
        latencies = host.at_reference_speed(timed)
        spawns = host.at_reference_speed(setup)
        tail_ms, tail_pct = tail(latencies)
        metrics["op_p50_ms"] = (statistics.median(latencies), "ms")
        metrics["op_tail_ms"] = (tail_ms, "ms")
        metrics["ops_per_s"] = (1e3 * len(latencies) / sum(latencies), "1/s")
        metrics["setup_s"] = (statistics.median(spawns), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        kernel = np.percentile(host.kernel_s, [10, 50, 90]) * 1e3
        factors = np.percentile([host.scale(a, b) for _, a, b in timed], [10, 50, 90])
        notes.append(f"timed operations: {len(timed)}; reference kernel p10/p50/p90 "
                     f"{kernel[0]:.3f}/{kernel[1]:.3f}/{kernel[2]:.3f} ms; timings scaled to a "
                     f"{REFERENCE_KERNEL_S * 1e3:.2f} ms kernel by p10/p50/p90 "
                     f"{factors[0]:.3f}/{factors[1]:.3f}/{factors[2]:.3f}")
        notes.append(f"op_tail_ms is p{tail_pct:.1f} of {len(latencies)}")
        notes.append("setup_s samples: " + ", ".join(f"{s:.4f}" for s in spawns))

    failed, max_rel_err, zero_share, problem = runner.check()
    error_rate = failed / runner.attempted
    # zero on a correct run, so reported here rather than registered as metrics
    checks = {"error_rate": (error_rate, "ratio")}
    if not args.trace and args.workload != "validate":  # validate prints no voltages to check
        checks["max_rel_err"] = (max_rel_err, "ratio")
    as_json = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "python": platform.python_version(),
        "numpy": np.__version__, "blas_thread_cap": os.environ["OMP_NUM_THREADS"],
        "commit": git_commit(), "pool_size": len(pool), "attempted": runner.attempted,
        "failed": failed, "error_rate": error_rate, "max_rel_err": max_rel_err,
        "share_fc_refines": sum(item.refines for item in pool) / len(pool),
        "share_design_c0_exit": zero_share, "first_failure": problem, "notes": notes,
        "metrics": as_json,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(meta, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  nproc {NPROC}  "
          f"python {meta['python']}  numpy {meta['numpy']}  threads {meta['blas_thread_cap']}  "
          f"commit {meta['commit'][:12]}")
    print(f"inputs {len(pool)}  share fc*4096<1e12 {meta['share_fc_refines']:.2f}"
          + ("" if zero_share is None else f"  share design C=0 exit {zero_share:.2f}"))
    for note in notes:
        print(note)
    for name, (value, unit) in {**metrics, **checks}.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(f"attempted {runner.attempted}  failed {failed}"
          + (f"  first failure: {problem}" if problem else ""))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": as_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
