"""bevalign benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout.  Every workload process is a fresh
`bench/worker.py`, started and waited for one after another.

--trace 0 measures the end-to-end metrics with tracing off: one process
that sets up and repeats the timed unit within S seconds at the default
thread count, min(nproc, 8), with SETUP_SAMPLES set-up-only processes, half
before it and half after.
--trace 1 gives the per-layer metrics: one untraced process at the default
thread count and one at BEVALIGN_THREADS=1 (S/2 seconds each), then one
traced process at BEVALIGN_THREADS=1 that runs a single unit.

Human-readable lines come first; the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  Exit code 1 means no result
could be produced, 2 that this is not a bevalign checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORK = ROOT / ".bench_work"

WORKLOADS = ("robust", "bundle_align")
SETUP_SAMPLES = 4  # plus the set-up of the measuring process
DEADLINE_S = 170.0

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p75_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "recall_trained": ("fraction", "higher"),
}


class BenchError(RuntimeError):
    """A workload process could not produce a result."""


def default_threads() -> int:
    return min(len(os.sched_getaffinity(0)), 8)


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Runner:
    def __init__(self, args, started: float) -> None:
        self.args = args
        self.deadline = started + DEADLINE_S
        self.spawned = 0

    def worker(self, mode: str, seconds: float, threads: int) -> dict:
        self.spawned += 1
        work_dir = WORK / f"{os.getpid()}-{self.spawned}"
        cmd = [
            sys.executable,
            str(WORKER),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--mode", mode,
            "--seconds", repr(seconds),
            "--work-dir", str(work_dir),
        ]
        if self.args.smoke:
            cmd.append("--smoke")
        env = {**os.environ, "BEVALIGN_THREADS": str(threads)}
        timeout = self.deadline - time.monotonic()
        try:
            if timeout <= 0:
                raise BenchError("time budget used up before the next workload process")
            # started-ns is read as late as possible before the process starts
            proc = subprocess.run(
                cmd + ["--started-ns", str(time.perf_counter_ns())],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{mode} process exceeded the time budget") from e
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} process exited with {proc.returncode}")
        result = json.loads(lines[-1])
        if result["units"] and all(u["failed"] == u["attempted"] for u in result["units"]):
            raise BenchError(f"every unit of the {mode} process failed; its errors are above")
        return result


def _check_units(results: list[dict]) -> tuple[int, int, bool, list[str]]:
    """attempted, failed, correct, and notes over every unit of every run."""
    units = [u for r in results for u in r["units"]]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    notes = []
    digests = {u["digest"] for u in units if u["digest"] is not None}
    correct = failed == 0 and attempted > 0
    if len(digests) > 1:
        correct = False
        notes.append(f"metrics.csv differs between repeats or thread counts: {sorted(digests)}")
    recalls = {u["recall_trained"] for u in units if u["recall_trained"] is not None}
    if len(recalls) != 1:
        correct = False
        notes.append(f"trained recall not reproduced across units: {sorted(recalls)}")
    return attempted, failed, correct, notes


def timed_run(r: Runner) -> tuple[dict, list[dict], list[str]]:
    threads = default_threads()
    # set-up samples on both sides of the timed run, so that their median
    # spans the run rather than the machine's speed of a few seconds
    before = SETUP_SAMPLES // 2
    setups = [r.worker("setup", 0.0, threads)["setup_s"] for _ in range(before)]
    res = r.worker("run", r.args.seconds, threads)
    setups.append(res["setup_s"])
    setups += [r.worker("setup", 0.0, threads)["setup_s"] for _ in range(SETUP_SAMPLES - before)]
    units = res["units"]
    ops = res["op_ms"]
    _, p50, p75 = statistics.quantiles(ops, n=4, method="inclusive")
    recall = next(u["recall_trained"] for u in units if u["recall_trained"] is not None)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(u["seconds"] for u in units),
        "op_p50_ms": p50,
        "op_p75_ms": p75,
        "peak_rss_mb": res["peak_rss_mb"],
        "recall_trained": recall,
    }
    beyond = sum(v > p75 for v in ops)
    notes = [
        f"setup_s: median of {len(setups)} processes",
        f"run_s: median of {len(units)} units: " + " ".join(f"{u['seconds']:.3f}" for u in units),
        f"op_p50_ms, op_p75_ms: {len(ops)} operations, {beyond} beyond p75",
    ]
    return metrics, [res], notes


def traced_run(r: Runner) -> tuple[dict, list[dict], list[str]]:
    half = r.args.seconds / 2.0
    default = r.worker("run", half, default_threads())
    single = r.worker("run", half, 1)
    traced = r.worker("trace", 0.0, 1)
    run_default = statistics.median(u["seconds"] for u in default["units"])
    run_single = statistics.median(u["seconds"] for u in single["units"])
    metrics = dict(traced["layers"])
    metrics["experiment.pool_speedup"] = run_single / run_default
    metrics["trace.overhead_frac"] = traced["units"][0]["seconds"] / run_single - 1.0
    total = metrics["trace.traced_s"]
    shares = {
        k: v / total for k, v in metrics.items() if k.endswith("self_s") and total > 0
    }
    notes = [
        f"untraced run_s: {run_default:.3f} s at {default_threads()} threads, "
        f"{run_single:.3f} s at 1 thread",
        "shares of traced time: "
        + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
    ]
    return metrics, [default, single, traced], notes


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description="bevalign benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced input sizes, for the tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "bevalign" / "__init__.py").is_file():
        print(f"no bevalign sources under {ROOT / 'src'}; run from a bevalign checkout", file=sys.stderr)
        return 2

    r = Runner(args, started)
    try:
        metrics, results, notes = (traced_run if args.trace else timed_run)(r)
    except (BenchError, KeyError, ValueError, StopIteration) as e:
        print(f"benchmark failed: {e!r}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    attempted, failed, correct, check_notes = _check_units(results)

    env = {**results[-1]["env"], "commit": commit()}
    digest = next((u["digest"] for u in results[-1]["units"] if u["digest"]), None)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    if digest is not None:
        print(f"metrics.csv sha256 {digest}")
    for note in notes + check_notes:
        print(note)
    print(f"operations attempted {attempted} failed {failed} "
          f"ops_failed_frac {failed / max(attempted, 1):.4f}")
    units = {**{k: u for k, (u, _) in END_TO_END.items()}, **{k: v[0] for k, v in LAYER_METRICS.items()}}
    out = {}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
        out[name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
