"""medlang benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload run_text --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The run writes the workload's inputs from
``--seed`` (several times, to time set-up), starts a worker process that
imports medlang from ``src/``, lets it run and check ops for ``--seconds``
seconds, and prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics. The line before it describes the
machine and the run. Work files go to ``.bench_out/`` in the checkout.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Set-up is timed this many times per run and reported as the median.
SETUP_REPS = 3
#: Every run, set-up included, ends within this many seconds.
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def machine_info() -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level}{kind[0].lower() if kind in ('Data', 'Instruction') else ''}"] = size
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(),
    }


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Worker:
    """One worker process; ``ready`` returns once it has finished its imports."""

    def __init__(self, args, inputs: Path, out: Path, result: Path, spans: Path) -> None:
        command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--inputs", str(inputs), "--out", str(out),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--result", str(result), "--spans", str(spans)]
        self.proc = subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def ready(self) -> bool:
        return self.proc.stdout.readline().strip() == "ready"

    def finish(self, go: bool, timeout: float) -> int:
        """Send "go" (or only end of input) and wait for the worker to exit."""
        try:
            self.proc.communicate(input="go\n" if go else "", timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            return -1
        return self.proc.returncode

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(summary: dict, setup: list[float]) -> dict[str, float]:
    walls = summary["walls"] or [0.0]
    return {
        "wall_s": statistics.median(walls),
        "wall_s_p75": percentile(walls, 0.75),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": summary["maxrss_kb"] / 1024.0,
        "ok_ops": (summary["attempted"] - summary["failed"]) / summary["attempted"],
    }


def per_layer(summary: dict) -> tuple[dict[str, float], list[str]]:
    """Medians over the traced ops, the tracing overhead, and any inconsistency."""
    per_op = summary["layer_metrics"]
    if not per_op:
        return {}, ["no traced op succeeded"]
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    traced = statistics.median(summary["traced_walls"])
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = (traced - statistics.median(summary["walls"])
                                   if summary["walls"] else 0.0)
    problems = [f"{layer}: self time {op[layer + '.self_s']:.6f} s exceeds span time "
                f"{op[layer + '.span_s']:.6f} s"
                for op in per_op for layer in LAYERS
                if op[layer + ".self_s"] > op[layer + ".span_s"] + 1e-9]
    return metrics, problems


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "medlang" / "__init__.py").is_file():
        print(f"bench: no medlang sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    generate = workloads.WORKLOADS[args.workload][0]
    e2e_units, layer_units = declared_metrics()
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs, out = work / "inputs", work / "out"
    result_path, spans_path = work / "result.json", work / "spans.json"

    setup: list[float] = []
    worker = None
    try:
        for rep in range(SETUP_REPS):
            begin = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            inputs.mkdir(parents=True)
            generate(args.seed, inputs)
            worker = Worker(args, inputs, out, result_path, spans_path)
            if not worker.ready():
                print("bench: worker failed to start", file=sys.stderr)
                return 1
            setup.append(time.perf_counter() - begin)
            if rep < SETUP_REPS - 1:
                worker.finish(go=False, timeout=60)
        code = worker.finish(go=True, timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    finally:
        if worker is not None:
            worker.stop()
    if code != 0 or not result_path.is_file():
        print(f"bench: worker exited with {code} and no result", file=sys.stderr)
        return 1
    summary = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(inputs, ignore_errors=True)

    problems = list(summary["errors"])
    if args.trace:
        values, inconsistent = per_layer(summary)
        problems += inconsistent
        units = layer_units
    else:
        values = end_to_end(summary, setup)
        units = e2e_units
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    details = {
        "machine": machine_info(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup,
        "wall_samples": len(summary["walls"]),
        "traced_wall_samples": len(summary["traced_walls"]),
        "problems": problems,
        "spans_file": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }
    (work / "report.json").write_text(json.dumps({**details, "metrics": metrics}, indent=1),
                                      encoding="utf-8")
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
