"""The process that runs one workload's ops; started by bench/run.py.

It imports medlang from the checkout's ``src/``, prints "ready", and waits
for "go" on standard input (end of input makes it exit, which is how
run.py measures start-up without running ops). It then runs op after op
until the next one would end past ``--seconds``, checks every output,
and writes a JSON summary to ``--result``.

With ``--trace 1`` the ops alternate between untraced and traced, so one
run gives both the per-layer metrics and the tracing overhead, and the
spans of every traced op are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)
from tracer import Tracer, op_metrics  # noqa: E402

MAX_ERRORS_KEPT = 5


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_ops(name: str, seed: int, inputs: Path, out: Path, seconds: float, trace: bool) -> dict:
    _, op, check = workloads.WORKLOADS[name]
    tracer = Tracer() if trace else None
    walls: list[float] = []
    traced_walls: list[float] = []
    iteration_s: list[float] = []
    layer_metrics: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    min_ops = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and attempted % 2 == 1
        attempted += 1
        iteration_start = time.perf_counter()
        try:
            restore = tracer.install() if traced else None
            try:
                begin, cpu0 = time.perf_counter(), time.process_time()
                root = tracer.op(op, inputs, out, seed) if traced else op(inputs, out, seed)
                wall, cpu = time.perf_counter() - begin, time.process_time() - cpu0
            finally:
                if restore:
                    restore()
            check(inputs, out)
        except Exception as exc:  # a failed op is counted and reported, never fatal
            failed += 1
            if len(errors) < MAX_ERRORS_KEPT:
                errors.append(f"{type(exc).__name__}: {exc}")
        else:
            if traced:
                traced_walls.append(wall)
                layer_metrics.append(op_metrics(tracer, root, cpu, _bytes_under(out)))
            else:
                walls.append(wall)
        shutil.rmtree(out, ignore_errors=True)
        iteration_s.append(time.perf_counter() - iteration_start)
        if attempted >= min_ops and time.perf_counter() + statistics.median(iteration_s) > deadline:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "walls": walls,
        "traced_walls": traced_walls,
        "layer_metrics": layer_metrics,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.to_json() if tracer else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    summary = run_ops(args.workload, args.seed, Path(args.inputs), Path(args.out),
                      args.seconds, bool(args.trace))
    spans = summary.pop("spans")
    if spans is not None and args.spans:
        Path(args.spans).write_text(json.dumps(spans), encoding="utf-8")
    Path(args.result).write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
