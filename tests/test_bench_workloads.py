"""Every benchmark workload's generate -> op -> check runs once on this tree.

A benchmark op that raises, or whose output fails its check, counts against
the benchmark's ok_ops; running each workload once here turns that into a
test failure. Each op runs a second time under the benchmark's tracer,
whose spans read the results of the functions they wrap. On the topic
workload's corpora, each planted topic must come out as one measured level.
The bench modules are compiled from their source text, so no file under
``bench/`` is written.
"""

import json
import shutil
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SEED = 1


def _load(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text("utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def bench():
    sys.modules["longcases"] = _load("longcases")  # workloads.py imports it by name
    try:
        yield _load("workloads"), _load("tracer")
    finally:
        del sys.modules["longcases"]


@pytest.mark.parametrize(
    "name", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
)
def test_workload_op_passes_its_check(bench, tmp_path, name):
    workloads, tracer_module = bench
    generate, op, check = workloads.WORKLOADS[name]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    generate(SEED, inputs)
    op(inputs, out, SEED)
    check(inputs, out)

    shutil.rmtree(out)
    tracer = tracer_module.Tracer()
    restore = tracer.install()
    try:
        root = tracer.op(op, inputs, out, SEED)
    finally:
        restore()
    check(inputs, out)
    metrics = tracer_module.op_metrics(tracer, root, 0.0, 0)
    assert metrics["cli.span_s"] >= 0.0
    # The traced fit names stay on the call path: one mediator and one
    # outcome fit per mediator, and every bootstrap replicate attempted.
    mediators, n_bootstrap = {
        "run_text": (workloads.MEDIATORS, workloads.RUN_TEXT_BOOTSTRAP),
        "run_long_topics": (workloads.LONG_MEDIATORS, workloads.LONG_BOOTSTRAP),
        "estimate_records": (workloads.MEDIATORS, workloads.ESTIMATE_BOOTSTRAP),
        "simulate_oracle": ((), 0),
    }[name]
    assert metrics["glm.fit_calls"] == 2 * len(mediators)
    assert metrics["mediation.replicates_attempted"] == n_bootstrap * len(mediators)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_planted_topic_maps_to_one_measured_level(bench, tmp_path, seed):
    workloads, _ = bench
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    workloads.generate_run_long_topics(seed, inputs)
    workloads.op_run_long_topics(inputs, out, seed)
    owner = {word: topic for topic, words in enumerate(workloads.longcases.topic_vocabulary())
             for word in words}
    texts = {}
    for line in (inputs / "transcripts.ndjson").read_text("utf-8").splitlines():
        turn = json.loads(line)
        texts[f"{turn['case_id']}:{turn['index']}"] = turn["text"]
    levels: dict[int, set[int]] = {}
    for line in (out / "records.ndjson").read_text("utf-8").splitlines():
        record = json.loads(line)
        planted = {owner[w] for w in texts[record["unit_id"]].split() if w in owner}
        assert len(planted) == 1
        levels.setdefault(planted.pop(), set()).add(record["m"]["topic"])
    assert sorted(levels) == list(range(workloads.longcases.N_TOPICS))
    assert all(len(measured) == 1 for measured in levels.values())
    assert len(set.union(*levels.values())) == len(levels)
