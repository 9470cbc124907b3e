"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them). All
tolerances are pinned here, not calibrated elsewhere.
"""

import io
import json
import time
from pathlib import Path

import numpy as np

from conftest import simple_domains
from medlang import scm
from medlang.cli import RunConfig, run_pipeline
from medlang.corpus import extract_units, parse_case_metadata, parse_transcript, utterance_to_json
from medlang.glm import (
    FittedMediatorModel,
    FittedOutcomeModel,
    encode_records,
    fit_mediator_model,
    fit_outcome_model,
)
from medlang.measure import MeasurementSpec, build_records
from medlang.mediation import bootstrap_effects, fit_models, sample_effects
from medlang.seeding import derive_seed
from medlang.topics import fit_topic_model, match_topics


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_oracle_equivalence():
    spec = scm.load_fixture("binary_scm")
    oracle = scm.exact_effects(spec)
    started = time.time()
    result = scm.generate(spec, 50000, seed=20240811)
    coded = result.records
    g = fit_mediator_model(coded)
    f = fit_outcome_model(coded)
    nde, nie, _, _ = sample_effects(coded, g, f)
    elapsed = time.time() - started
    nde_err = abs(nde - oracle.nde_true)
    nie_err = abs(nie - oracle.nie_true)
    ok = nde_err <= 0.01 and nie_err <= 0.01 and elapsed <= 60.0
    _criterion(
        1,
        "oracle equivalence at N=50,000",
        ok,
        f"nde err {nde_err:.4f}, nie err {nie_err:.4f}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_exact_annihilation_and_identity():
    domains = simple_domains(n_x_levels=1)
    from medlang.measure import CausalRecord

    records = encode_records([CausalRecord("u0", 0, {"x0": "0"}, {"hedging": 0}, 0, 0)], domains)
    g_flat = FittedMediatorModel(
        "hedging", domains, np.array([[[[0.7, 0.3]], [[0.7, 0.3]]]]), ()
    )
    f_any = FittedOutcomeModel(
        "hedging", domains, np.array([[[[0.4], [0.7]], [[0.5], [0.9]]]]), ()
    )
    nie_zero = sample_effects(records, g_flat, f_any)[1] == 0.0

    g_any = FittedMediatorModel(
        "hedging", domains, np.array([[[[0.75, 0.25]], [[0.4, 0.6]]]]), ()
    )
    f_flat = FittedOutcomeModel(
        "hedging", domains, np.array([[[[0.41], [0.41]], [[0.77], [0.77]]]]), ()
    )
    nde_zero = sample_effects(records, g_any, f_flat)[0] == 0.0

    # identity on a full fitted run
    spec = scm.load_fixture("two_mediator_scm")
    result = scm.generate(spec, 8000, seed=5)
    coded = result.records
    worst_gap = 0.0
    for name in spec.mediator_names:
        g = fit_mediator_model(coded, name)
        f = fit_outcome_model(coded, name)
        nde, _, nie_reversed, te = sample_effects(coded, g, f)
        gap = abs(te - nde - nie_reversed)
        worst_gap = max(worst_gap, gap)
    ok = nie_zero and nde_zero and worst_gap <= 1e-9
    _criterion(
        2,
        "exact annihilation and decomposition identity",
        ok,
        f"nie-zero {nie_zero}, nde-zero {nde_zero}, identity gap {worst_gap:.2e}",
    )


def test_criterion_3_two_oracle_cross_check():
    worst = 0.0
    details = []
    for fixture in scm.FIXTURE_NAMES:
        spec = scm.load_fixture(fixture)
        for name in spec.mediator_names:
            exact = scm.exact_effects(spec, name)
            mc = scm.monte_carlo_effects(
                spec, name, n_draws=10_000_000, seed=derive_seed(77, f"{fixture}:{name}")
            )
            gaps = (
                abs(mc.nde - exact.nde_true),
                abs(mc.nie - exact.nie_true),
                abs(mc.te - exact.te_true),
            )
            worst = max(worst, *gaps)
            details.append(f"{fixture}/{name} {max(gaps):.5f}")
    ok = worst <= 0.001
    _criterion(3, "enumeration vs 1e7-draw counterfactual simulation", ok,
               f"worst gap {worst:.5f} ({'; '.join(details)})")


def test_criterion_4_bootstrap_coverage():
    # 1,000 datasets: a true coverage of 0.83 passes a 0.85 gate with
    # probability ~0.05, and a true 0.87 fails it with probability ~0.03.
    spec = scm.load_fixture("binary_scm")
    oracle = scm.exact_effects(spec)
    truth = {"nde": oracle.nde_true, "nie": oracle.nie_true}
    started = time.time()
    covered = {"nde": 0, "nie": 0}
    n_reps = 1000
    for rep in range(n_reps):
        result = scm.generate(
            spec,
            5000,
            seed=derive_seed(1234, f"coverage:{rep}"),
            fold_seed=derive_seed(1234, f"coverage-folds:{rep}"),
        )
        coded = result.records
        est = bootstrap_effects(
            coded,
            *fit_models(coded, "hedging"),
            n_bootstrap=200,
            seed=derive_seed(1234, f"coverage-boot:{rep}"),
            ci_level=0.90,
        )
        covered["nde"] += int(est.nde_ci[0] <= truth["nde"] <= est.nde_ci[1])
        covered["nie"] += int(est.nie_ci[0] <= truth["nie"] <= est.nie_ci[1])
    elapsed = time.time() - started
    rates = {effect: count / n_reps for effect, count in covered.items()}
    ok = min(rates.values()) >= 0.85 and elapsed <= 1800.0
    _criterion(
        4,
        "90% interval coverage of the true direct and indirect effects",
        ok,
        ", ".join(f"{effect} coverage {rates[effect]:.3f} ({covered[effect]}/{n_reps})"
                  for effect in ("nde", "nie")) + f", runtime {elapsed:.0f}s",
    )


def test_criterion_5_violation_studies():
    spec = scm.load_fixture("two_mediator_scm")
    grids = {
        "mediator_coupling": [0.0, 0.8, 1.6],
        "temporal_carryover": [0.0, 1.5, 3.0],
        "unmeasured_confounder": [0.0, 0.8, 1.6],
    }
    details = []
    ok = True
    for knob, grid in grids.items():
        rows = scm.violation_study(spec, knob, grid, n=50000, seed=99)
        by_mag = {}
        for r in rows:
            by_mag[r.magnitude] = max(
                by_mag.get(r.magnitude, 0.0), abs(r.nde_bias), abs(r.nie_bias)
            )
        null_err = by_mag[grid[0]]
        top_err = by_mag[grid[-1]]
        knob_ok = null_err <= 0.01 and top_err >= 3.0 * null_err
        ok = ok and knob_ok
        details.append(f"{knob}: null {null_err:.4f}, top {top_err:.4f}")
    _criterion(5, "assumption-violation bias growth", ok, "; ".join(details))


def test_criterion_6_measurement_exactness(paired_transcript_path, paired_meta_path):
    with open(paired_transcript_path, "rb") as fh:
        utterances = parse_transcript(fh)
    with open(paired_meta_path, "rb") as fh:
        meta = parse_case_metadata(fh)
    units = extract_units(utterances, meta)
    build = build_records(
        units, MeasurementSpec.default(), 2, case_utterances=utterances, seed=0
    )
    rec = {r.unit_id.split(":")[0]: r for r in build.records}
    levy, adams = rec["2008-07-636"], rec["2013-12-820"]
    ok = (
        levy.m["hedging"] == 1
        and adams.m["hedging"] == 1
        and levy.m["disfluency"] == 0
        and adams.m["disfluency"] == 1
        and levy.y == 0
        and adams.y == 1
        and levy.t == 0
        and adams.t == 1
    )
    _criterion(
        6,
        "exact labels on the paired-case excerpts",
        ok,
        f"levy (t,h,d,y)=({levy.t},{levy.m['hedging']},{levy.m['disfluency']},{levy.y}) "
        f"adams (t,h,d,y)=({adams.t},{adams.m['hedging']},{adams.m['disfluency']},{adams.y})",
    )


def test_criterion_7_topic_recovery():
    from test_topics import planted_corpus, planted_reference_rows

    texts, _ = planted_corpus(2000, seed=2024)
    model = fit_topic_model(texts, k=2, seed=33, n_sweeps=60, burn_in=30)
    matches = match_topics(model, planted_reference_rows(list(model.vocab)))
    min_cosine = min(c for _, c in matches)
    permutation_ok = {idx for idx, _ in matches} == {0, 1}
    refit = fit_topic_model(texts, k=2, seed=33, n_sweeps=60, burn_in=30)
    deterministic = np.array_equal(model.assignments, refit.assignments) and np.array_equal(
        model.topic_word, refit.topic_word
    )
    ok = min_cosine >= 0.95 and permutation_ok and deterministic
    _criterion(
        7,
        "planted two-topic recovery and seeded determinism",
        ok,
        f"min cosine {min_cosine:.4f}, byte-exact refit {deterministic}",
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    spec = scm.load_fixture("two_mediator_scm")
    result = scm.generate(spec, 300, seed=6, fold_seed=derive_seed(6, "folds"), render=True)
    transcripts = tmp_path / "transcripts.ndjson"
    with open(transcripts, "w", encoding="utf-8") as fh:
        for utt in result.utterances:
            fh.write(utterance_to_json(utt) + "\n")
    meta = tmp_path / "meta.ndjson"
    with open(meta, "w", encoding="utf-8") as fh:
        for cid, attrs in sorted(result.case_metadata.items()):
            fh.write(json.dumps({"case_id": cid, **attrs}, sort_keys=True) + "\n")

    config = RunConfig(
        transcripts=str(transcripts),
        meta=str(meta),
        out=str(tmp_path / "run1"),
        seed=6,
        folds=2,
        bootstrap=100,
        mediators=("hedging", "disfluency"),
        confounders=("x0",),
    )
    manifest1 = run_pipeline(config)

    from dataclasses import replace

    manifest2 = run_pipeline(replace(config, out=str(tmp_path / "run2")))
    same_checksums = manifest1["artifacts"] == manifest2["artifacts"]

    # rerun from the written manifest file
    manifest_path = Path(config.out) / "manifest.json"
    loaded = RunConfig.from_dict(
        json.loads(manifest_path.read_text("utf-8"))["config"]
    )
    manifest3 = run_pipeline(replace(loaded, out=str(tmp_path / "run3")))
    rerun_ok = manifest3["artifacts"] == manifest1["artifacts"]

    byte_equal = all(
        (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run3" / name).read_bytes()
        for name in manifest1["artifacts"]
    )
    ok = same_checksums and rerun_ok and byte_equal
    _criterion(
        8,
        "manifest reruns reproduce artifacts byte-exactly",
        ok,
        f"checksum match {same_checksums}, manifest rerun {rerun_ok}, bytes {byte_equal}",
    )
