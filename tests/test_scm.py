import io
import json
import math

import numpy as np
import pytest

from medlang.corpus import extract_units, parse_transcript, utterance_to_json
from medlang.errors import ConfigError
from medlang.measure import MeasurementSpec, build_records
from medlang.scm import (
    MediatorLaw,
    OutcomeLaw,
    ScmSpec,
    TreatmentLaw,
    exact_effects,
    exact_effects_all,
    generate,
    load_fixture,
    load_scm_spec,
    monte_carlo_effects,
    violation_study,
    with_knob,
)


def toy_spec(
    t_coef_m=0.9,
    t_coef_y=0.8,
    tm=(0.0, -0.5),
    outcome_intercept=-1.0,
    seed=5,
):
    return ScmSpec(
        confounders={"x0": (0.6, 0.4)},
        treatment=TreatmentLaw(intercept=-0.2, confounders={"x0": (0.0, 0.5)}),
        mediators=(
            MediatorLaw(
                name="hedging",
                levels=2,
                intercepts=(-0.4,),
                treatment=(t_coef_m,),
                confounders={"x0": ((0.0, 0.6),)},
            ),
        ),
        outcome=OutcomeLaw(
            intercept=outcome_intercept,
            treatment=t_coef_y,
            mediators={"hedging": (0.0, 0.9)},
            tm_interactions={"hedging": tm},
            confounders={"x0": (0.0, 0.4)},
        ),
        seed=seed,
    )


# -- validation -----------------------------------------------------------------


def test_spec_validation_rejects_bad_probabilities():
    spec = toy_spec()
    bad = ScmSpec(
        confounders={"x0": (0.7, 0.7)},
        treatment=spec.treatment,
        mediators=spec.mediators,
        outcome=spec.outcome,
    )
    with pytest.raises(ConfigError, match="sum"):
        bad.validate()


def test_spec_validation_rejects_shape_mismatch():
    spec = toy_spec()
    bad = ScmSpec(
        confounders=spec.confounders,
        treatment=TreatmentLaw(intercept=0.0, confounders={"x0": (0.0,)}),
        mediators=spec.mediators,
        outcome=spec.outcome,
    )
    with pytest.raises(ConfigError, match="length"):
        bad.validate()


def test_coupling_requires_two_mediators():
    with pytest.raises(ConfigError, match="two mediators"):
        with_knob(toy_spec(), "mediator_coupling", 0.5)


def test_unknown_knob_rejected():
    with pytest.raises(ConfigError, match="unknown knob"):
        with_knob(toy_spec(), "indexical_inversion", 0.5)


def test_json_round_trip():
    spec = load_fixture("two_mediator_scm")
    again = load_scm_spec(spec.to_json())
    assert again == spec


# -- generation -----------------------------------------------------------------


def test_generate_zero_units():
    result = generate(toy_spec(), 0)
    assert len(result.records) == 0


def test_generate_reproducible_bytes():
    spec = toy_spec()
    a = generate(spec, 500, seed=10)
    b = generate(spec, 500, seed=10)
    assert list(a.records) == list(b.records)
    c = generate(spec, 500, seed=11)
    assert list(a.records) != list(c.records)


def test_generate_constant_outcome_rate_concentrates():
    p = 0.3
    spec = toy_spec(
        t_coef_m=0.5,
        t_coef_y=0.0,
        tm=(0.0, 0.0),
        outcome_intercept=math.log(p / (1 - p)),
    )
    # zero out every other outcome dependence
    spec = ScmSpec(
        confounders=spec.confounders,
        treatment=spec.treatment,
        mediators=spec.mediators,
        outcome=OutcomeLaw(
            intercept=math.log(p / (1 - p)),
            treatment=0.0,
            mediators={"hedging": (0.0, 0.0)},
            tm_interactions={},
            confounders={"x0": (0.0, 0.0)},
        ),
        seed=17,
    )
    result = generate(spec, 100000)
    mean_y = float(np.mean([r.y for r in result.records]))
    assert abs(mean_y - p) <= 0.005


def test_generated_records_validate_against_domains():
    from medlang.measure import encode_records

    result = generate(load_fixture("two_mediator_scm"), 200, seed=1)
    for record in result.records:
        encode_records([record], result.records.domains)
    folds = [r.fold for r in result.records]
    assert abs(folds.count(0) - folds.count(1)) <= 1


# -- exact oracle ------------------------------------------------------------------


def test_oracle_zero_nde_when_outcome_ignores_treatment():
    spec = toy_spec(t_coef_y=0.0, tm=(0.0, 0.0))
    result = exact_effects(spec)
    assert result.nde_true == 0.0
    assert result.nie_true > 0.0


def test_oracle_zero_nie_when_mediator_ignores_treatment():
    spec = toy_spec(t_coef_m=0.0)
    result = exact_effects(spec)
    assert result.nie_true == 0.0
    assert result.nde_true > 0.0


def test_oracle_null_spec_all_zero():
    spec = toy_spec(t_coef_m=0.0, t_coef_y=0.0, tm=(0.0, 0.0))
    result = exact_effects(spec)
    assert result.nde_true == 0.0
    assert result.nie_true == 0.0
    assert result.te_true == 0.0


def test_oracle_identity_and_all_mediators():
    spec = load_fixture("two_mediator_scm")
    results = exact_effects_all(spec)
    assert set(results) == {"hedging", "disfluency"}
    for res in results.values():
        assert abs(res.te_true - res.nde_true - res.nie_reversed_true) <= 1e-12
    # the total effect does not depend on which mediator is analyzed
    assert results["hedging"].te_true == pytest.approx(
        results["disfluency"].te_true, abs=1e-12
    )


def test_oracle_requires_clean_knobs():
    spec = with_knob(load_fixture("two_mediator_scm"), "mediator_coupling", 0.7)
    with pytest.raises(ConfigError, match="zero"):
        exact_effects(spec, "hedging")


def test_oracle_marginalizes_unmeasured_confounder():
    spec = with_knob(load_fixture("binary_scm"), "unmeasured_confounder", 0.8)
    res = exact_effects(spec)
    base = exact_effects(load_fixture("binary_scm"))
    assert res.nde_true != pytest.approx(base.nde_true, abs=1e-6)
    assert abs(res.te_true - res.nde_true - res.nie_reversed_true) <= 1e-12


# -- monte carlo cross-check ----------------------------------------------------------


def test_monte_carlo_agrees_with_enumeration_quickly():
    spec = load_fixture("binary_scm")
    exact = exact_effects(spec)
    mc = monte_carlo_effects(spec, n_draws=1_000_000, seed=2)
    assert abs(mc.nde - exact.nde_true) <= max(3 * mc.nde_se, 1e-3)
    assert abs(mc.nie - exact.nie_true) <= max(3 * mc.nie_se, 1e-3)
    assert abs(mc.te - exact.te_true) <= max(3 * mc.te_se, 1e-3)


def test_monte_carlo_deterministic():
    spec = load_fixture("binary_scm")
    a = monte_carlo_effects(spec, n_draws=200_000, seed=3)
    b = monte_carlo_effects(spec, n_draws=200_000, seed=3)
    assert a == b


# -- carryover path consistency ---------------------------------------------------------


def test_sequential_path_matches_vectorized_at_negligible_carryover():
    spec = load_fixture("two_mediator_scm")
    base = generate(spec, 400, seed=6)
    tiny = generate(with_knob(spec, "temporal_carryover", 1e-12), 400, seed=6)
    assert list(base.records) == list(tiny.records)


# -- rendered transcripts ----------------------------------------------------------------


def test_render_round_trip_reproduces_records():
    spec = load_fixture("two_mediator_scm")
    result = generate(spec, 300, seed=8, fold_seed=4242, render=True)

    buf = io.StringIO()
    for utt in result.utterances:
        buf.write(utterance_to_json(utt) + "\n")
    utterances = parse_transcript(buf.getvalue())
    units = extract_units(utterances, result.case_metadata)
    by_case = {}
    for utt in utterances:
        by_case.setdefault(utt.case_id, []).append(utt)
    build = build_records(
        units,
        MeasurementSpec.default(),
        n_folds=2,
        case_utterances=by_case,
        seed=4242,
        confounders=tuple(spec.confounder_names),
    )
    assert build.exclusions == ()
    measured = {r.unit_id: r for r in build.records}
    assert set(measured) == {r.unit_id for r in result.records}
    for rec in result.records:
        got = measured[rec.unit_id]
        assert got.t == rec.t
        assert got.y == rec.y
        assert dict(got.x) == dict(rec.x)
        assert dict(got.m) == dict(rec.m)
        assert got.fold == rec.fold


def test_render_requires_renderable_mediators():
    spec = load_fixture("binary_scm")
    renamed = ScmSpec(
        confounders=spec.confounders,
        treatment=spec.treatment,
        mediators=(
            MediatorLaw(
                name="topic",
                levels=2,
                intercepts=spec.mediators[0].intercepts,
                treatment=spec.mediators[0].treatment,
                confounders=spec.mediators[0].confounders,
            ),
        ),
        outcome=OutcomeLaw(
            intercept=spec.outcome.intercept,
            treatment=spec.outcome.treatment,
            mediators={"topic": spec.outcome.mediators["hedging"]},
            tm_interactions={"topic": spec.outcome.tm_interactions["hedging"]},
            confounders=spec.outcome.confounders,
        ),
    )
    with pytest.raises(ConfigError, match="rendering"):
        generate(renamed, 10, render=True)


# -- violation studies ----------------------------------------------------------------------


def test_violation_study_null_knob_small_bias():
    spec = load_fixture("two_mediator_scm")
    rows = violation_study(spec, "mediator_coupling", [0.0], n=50000, seed=99)
    assert all(abs(r.nde_bias) <= 0.01 and abs(r.nie_bias) <= 0.01 for r in rows)


def test_violation_study_monotone_bias_growth():
    spec = load_fixture("two_mediator_scm")
    rows = violation_study(spec, "unmeasured_confounder", [0.0, 0.8, 1.6], n=50000, seed=99)
    worst = {}
    for r in rows:
        worst[r.magnitude] = max(
            worst.get(r.magnitude, 0.0), abs(r.nde_bias), abs(r.nie_bias)
        )
    assert worst[0.0] <= 0.01
    assert worst[0.8] > worst[0.0]
    assert worst[1.6] > worst[0.8]
    assert worst[1.6] >= 3 * worst[0.0]


def test_violation_study_requires_clean_base():
    spec = with_knob(load_fixture("two_mediator_scm"), "temporal_carryover", 1.0)
    with pytest.raises(ConfigError, match="clean"):
        violation_study(spec, "temporal_carryover", [0.0], n=100, seed=0)
