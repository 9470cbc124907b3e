"""The four benchmark workloads: seeded inputs, the timed op, the output check.

Each workload has a ``generate(seed, inputs)`` that writes every input the
op reads, plus what its check needs, into the ``inputs`` directory; an
``op(inputs, out, seed)`` that runs one user-visible medlang command and
writes into ``out``; and a ``check(inputs, out)`` that raises
``CheckFailed`` when the op's output is wrong. Only ``op`` is timed.

Sizes are chosen so that one op takes about a second or less on a 2-core
machine (``run_long_topics`` excepted, see README.md) and each timed run
still holds enough ops to report a median and a tail.
"""

from __future__ import annotations

import json
from contextlib import redirect_stdout
from dataclasses import asdict
from io import StringIO
from pathlib import Path

from medlang import cli, scm
from medlang.corpus import utterance_to_json
from medlang.measure import record_to_json
from medlang.seeding import derive_seed

import longcases

FIXTURE = "two_mediator_scm"
MEDIATORS = ("hedging", "disfluency")

#: An estimate may sit at most this many bootstrap half-widths (the half
#: width of its 90% percentile interval, about 1.6 standard errors) from
#: the exact oracle. Three half-widths is about five standard errors.
SPREAD_MULTIPLE = 3.0
#: Monte Carlo means may sit at most this many standard errors from the
#: exact oracle.
MC_SE_MULTIPLE = 5.0
IDENTITY_TOL = 1e-9

RUN_TEXT_N = 2000
RUN_TEXT_BOOTSTRAP = 100
LONG_CASES = 2
LONG_TURNS = 1200
LONG_BOOTSTRAP = 100
ESTIMATE_N = 3000
ESTIMATE_BOOTSTRAP = 100
SIMULATE_N = 4000
MC_DRAWS = 100_000


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _quiet(fn, *args):
    """Call a command without its console output, which is not measured."""
    with redirect_stdout(StringIO()):
        return fn(*args)


def _read_ndjson(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _oracle(spec) -> dict:
    return {name: asdict(scm.exact_effects(spec, name)) for name in spec.mediator_names}


def _record_key(rec: dict) -> tuple:
    return (rec["unit_id"], rec["t"], tuple(sorted(rec["x"].items())),
            tuple(sorted(rec["m"].items())), rec["y"], rec["fold"])


def check_estimate_invariants(estimates: list[dict], mediators) -> None:
    """te = nde + nie_reversed, and each interval contains its point."""
    _require(sorted(e["mediator"] for e in estimates) == sorted(mediators),
             f"estimates for {[e['mediator'] for e in estimates]}, expected {list(mediators)}")
    for est in estimates:
        name = est["mediator"]
        gap = est["total_effect"] - est["nde"] - est["nie_reversed"]
        _require(abs(gap) <= IDENTITY_TOL, f"{name}: te - nde - nie_reversed = {gap:.3e}")
        for effect in ("nde", "nie"):
            lo, hi = est[f"{effect}_ci"]
            _require(lo <= est[effect] <= hi,
                     f"{name}: {effect} {est[effect]} outside its interval [{lo}, {hi}]")


def check_against_oracle(estimates: list[dict], oracle: dict) -> None:
    """Each nde/nie lies within SPREAD_MULTIPLE bootstrap half-widths of the truth."""
    for est in estimates:
        truth = oracle[est["mediator"]]
        for effect in ("nde", "nie"):
            lo, hi = est[f"{effect}_ci"]
            allowed = SPREAD_MULTIPLE * (hi - lo) / 2.0
            error = abs(est[effect] - truth[f"{effect}_true"])
            _require(error <= allowed,
                     f"{est['mediator']}: {effect} {est[effect]:.6f} is {error:.6f} from the "
                     f"oracle {truth[f'{effect}_true']:.6f}, allowed {allowed:.6f}")


# ---------------------------------------------------------------------------
# run_text: the paper's main path on a rendered structural-model corpus
# ---------------------------------------------------------------------------


def generate_run_text(seed: int, inputs: Path) -> None:
    spec = scm.load_fixture(FIXTURE)
    data = scm.generate(spec, RUN_TEXT_N, seed=seed, fold_seed=derive_seed(seed, "folds"),
                        render=True)
    _write_lines(inputs / "transcripts.ndjson", (utterance_to_json(u) for u in data.utterances))
    _write_lines(inputs / "meta.ndjson", (json.dumps({"case_id": cid, **attrs}, sort_keys=True)
                                          for cid, attrs in sorted(data.case_metadata.items())))
    _write_lines(inputs / "expected_records.ndjson", (record_to_json(r) for r in data.records))
    (inputs / "oracle.json").write_text(json.dumps(_oracle(spec)), encoding="utf-8")


def _run_config(inputs: Path, out: Path, seed: int, **overrides) -> cli.RunConfig:
    return cli.RunConfig(transcripts=str(inputs / "transcripts.ndjson"),
                         meta=str(inputs / "meta.ndjson"), out=str(out), seed=seed,
                         **overrides)


def op_run_text(inputs: Path, out: Path, seed: int) -> None:
    cli.run_pipeline(_run_config(inputs, out, seed, bootstrap=RUN_TEXT_BOOTSTRAP,
                                 mediators=MEDIATORS, confounders=("x0",)))


def check_run_text(inputs: Path, out: Path) -> None:
    got = [_record_key(r) for r in _read_ndjson(out / "records.ndjson")]
    want = [_record_key(r) for r in _read_ndjson(inputs / "expected_records.ndjson")]
    _require(len(got) == len(want), f"{len(got)} records, expected {len(want)}")
    for index, (g, w) in enumerate(zip(got, want)):
        _require(g == w, f"record {index} is {g}, sampled {w}")
    estimates = _read_ndjson(out / "effects.ndjson")
    check_estimate_invariants(estimates, MEDIATORS)
    check_against_oracle(estimates, json.loads((inputs / "oracle.json").read_text()))


# ---------------------------------------------------------------------------
# run_long_topics: few long cases, the topic mediator, planted labels
# ---------------------------------------------------------------------------

LONG_MEDIATORS = ("hedging", "disfluency", "topic")


def generate_run_long_topics(seed: int, inputs: Path) -> None:
    longcases.write_long_cases(inputs, seed, LONG_CASES, LONG_TURNS)


def op_run_long_topics(inputs: Path, out: Path, seed: int) -> None:
    cli.run_pipeline(_run_config(inputs, out, seed, bootstrap=LONG_BOOTSTRAP,
                                 mediators=LONG_MEDIATORS, confounders=("issue_area",),
                                 topics=longcases.N_TOPICS, topic_sweeps=40, topic_burn_in=20))


def check_run_long_topics(inputs: Path, out: Path) -> None:
    planted = json.loads((inputs / "labels.json").read_text())
    records = _read_ndjson(out / "records.ndjson")
    got_ids = sorted(r["unit_id"] for r in records)
    _require(got_ids == sorted(planted),
             f"{len(got_ids)} records, expected the {len(planted)} planted units")
    for rec in records:
        want = planted[rec["unit_id"]]
        got = {"t": rec["t"], "y": rec["y"], "hedging": rec["m"]["hedging"],
               "disfluency": rec["m"]["disfluency"]}
        _require(got == want, f"{rec['unit_id']}: measured {got}, planted {want}")
    check_estimate_invariants(_read_ndjson(out / "effects.ndjson"), LONG_MEDIATORS)


# ---------------------------------------------------------------------------
# estimate_records: the estimator alone, from a records file
# ---------------------------------------------------------------------------


def generate_estimate_records(seed: int, inputs: Path) -> None:
    spec = scm.load_fixture(FIXTURE)
    data = scm.generate(spec, ESTIMATE_N, seed=seed)
    _write_lines(inputs / "records.ndjson", (record_to_json(r) for r in data.records))
    (inputs / "oracle.json").write_text(json.dumps(_oracle(spec)), encoding="utf-8")


def op_estimate_records(inputs: Path, out: Path, seed: int) -> None:
    code = _quiet(cli.main, ["estimate", "--records", str(inputs / "records.ndjson"),
                             "--mediators", ",".join(MEDIATORS),
                             "--bootstrap", str(ESTIMATE_BOOTSTRAP), "--seed", str(seed),
                             "--out", str(out)])
    _require(code == 0, f"medlang estimate exited with {code}")


def check_estimate_records(inputs: Path, out: Path) -> None:
    estimates = _read_ndjson(out / "effects.ndjson")
    check_estimate_invariants(estimates, MEDIATORS)
    check_against_oracle(estimates, json.loads((inputs / "oracle.json").read_text()))
    for est in estimates:
        _require(est["n_units"] == ESTIMATE_N, f"{est['mediator']}: n_units {est['n_units']}")


# ---------------------------------------------------------------------------
# simulate_oracle: rendered simulation, exact oracle, counterfactual Monte Carlo
# ---------------------------------------------------------------------------


def generate_simulate_oracle(seed: int, inputs: Path) -> None:
    (inputs / "oracle.json").write_text(json.dumps(_oracle(scm.load_fixture(FIXTURE))),
                                        encoding="utf-8")


def op_simulate_oracle(inputs: Path, out: Path, seed: int) -> None:
    code = _quiet(cli.main, ["simulate", "--fixture", FIXTURE, "--n", str(SIMULATE_N),
                             "--seed", str(seed), "--render", "--out", str(out)])
    _require(code == 0, f"medlang simulate exited with {code}")
    spec = scm.load_fixture(FIXTURE)
    mc = {name: asdict(scm.monte_carlo_effects(spec, name, n_draws=MC_DRAWS,
                                               seed=derive_seed(seed, f"mc:{name}")))
          for name in spec.mediator_names}
    (out / "monte_carlo.json").write_text(json.dumps(mc), encoding="utf-8")


def check_simulate_oracle(inputs: Path, out: Path) -> None:
    oracle = json.loads((inputs / "oracle.json").read_text())
    with open(out / "records.ndjson", encoding="utf-8") as fh:
        n_records = sum(1 for line in fh if line.strip())
    _require(n_records == SIMULATE_N, f"{n_records} records, expected {SIMULATE_N}")
    _require(json.loads((out / "oracle.json").read_text()) == oracle,
             "oracle.json differs from exact_effects")
    for name, mc in json.loads((out / "monte_carlo.json").read_text()).items():
        for effect in ("nde", "nie", "te"):
            error = abs(mc[effect] - oracle[name][f"{effect}_true"])
            allowed = MC_SE_MULTIPLE * mc[f"{effect}_se"]
            _require(error <= allowed,
                     f"{name}: Monte Carlo {effect} is {error:.6f} from the oracle, "
                     f"allowed {allowed:.6f}")


WORKLOADS = {
    "run_text": (generate_run_text, op_run_text, check_run_text),
    "run_long_topics": (generate_run_long_topics, op_run_long_topics, check_run_long_topics),
    "estimate_records": (generate_estimate_records, op_estimate_records,
                         check_estimate_records),
    "simulate_oracle": (generate_simulate_oracle, op_simulate_oracle, check_simulate_oracle),
}
