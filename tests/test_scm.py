import io
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from medlang import scm
from medlang.corpus import extract_units, parse_transcript, utterance_to_json
from medlang.errors import ConfigError, DataError, MedlangError
from medlang.measure import MeasurementSpec, build_records
from medlang.scm import (
    MediatorLaw,
    MonteCarloEffects,
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


def test_validate_rejects_invalid_treatment_probability():
    spec = toy_spec()
    bad = replace(spec, treatment=replace(spec.treatment, intercept=float("nan")))
    with pytest.raises(ConfigError, match="treatment law produced an invalid probability"):
        bad.validate()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_rejects_overflowing_mediator_law():
    spec = toy_spec()
    # 1e308 + 1e308 overflows to inf at t = 1, and the softmax of inf is nan.
    mediator = replace(spec.mediators[0], intercepts=(1e308,), treatment=(1e308,))
    with pytest.raises(ConfigError, match="mediator 'hedging' law is non-finite"):
        replace(spec, mediators=(mediator,)).validate()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_rejects_non_finite_outcome_law():
    spec = toy_spec()
    # Opposite infinite coefficients give nan scores. Finite coefficients can
    # only overflow to +-inf, where the logistic law is still finite.
    outcome = replace(spec.outcome, intercept=float("inf"), treatment=float("-inf"))
    with pytest.raises(ConfigError, match="outcome law is non-finite"):
        replace(spec, outcome=outcome).validate()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_checks_the_carryover_axis():
    spec = toy_spec()
    mediator = replace(spec.mediators[0], intercepts=(1e308,))
    replace(spec, mediators=(mediator,)).validate()
    # Only the cells where the previous unit's outcome is 1 overflow.
    bad = replace(spec, mediators=(mediator,), temporal_carryover=1e308)
    with pytest.raises(ConfigError, match="mediator 'hedging' law is non-finite"):
        bad.validate()


def test_json_round_trip():
    spec = load_fixture("two_mediator_scm")
    again = load_scm_spec(spec.to_json())
    assert again == spec


def _json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _json_paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _json_paths(child, path + (i,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), fixture=st.sampled_from(["binary_scm", "two_mediator_scm"]),
       new=JSON_VALUES)
def test_spec_with_any_subtree_replaced_loads_or_raises_typed_error(data, fixture, new):
    obj = json.loads(load_fixture(fixture).to_json())
    path = data.draw(st.sampled_from(list(_json_paths(obj))))
    try:
        ScmSpec.from_dict(_replaced(obj, path, new))
    except MedlangError:
        pass


def test_spec_type_error_names_the_key():
    obj = json.loads(load_fixture("binary_scm").to_json())
    obj["mediators"][0]["intercepts"] = ["a"]
    with pytest.raises(DataError, match=r"spec\.mediators\[0\]\.intercepts\[0\] must be a number"):
        ScmSpec.from_dict(obj)


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


@pytest.mark.parametrize("n_draws", [0, -5])
def test_monte_carlo_rejects_non_positive_draws(n_draws):
    with pytest.raises(ConfigError, match="n_draws"):
        monte_carlo_effects(load_fixture("binary_scm"), n_draws=n_draws)


def test_negative_seed_is_config_error():
    spec = load_fixture("binary_scm")
    with pytest.raises(ConfigError, match="seed must be non-negative, got -3"):
        generate(spec, 10, seed=-3)
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        generate(replace(spec, seed=-1), 10)
    with pytest.raises(ConfigError, match="seed must be non-negative, got -2"):
        monte_carlo_effects(spec, n_draws=10, seed=-2)


def test_logistic_equals_scipy_expit_bit_for_bit():
    rng = np.random.default_rng(20)
    grid = np.concatenate([
        rng.normal(0.0, 5.0, 50_000),
        rng.uniform(-800.0, 800.0, 50_000),
        [0.0, -0.0, 709.0, -709.0, 710.0, -710.0, 709.78, -709.78, 709.79, -709.79,
         1000.0, -1000.0, 1e308, -1e308, np.inf, -np.inf, np.nan],
    ])
    for shape in (grid.shape, (-1, 3)):
        score = grid.reshape(shape)
        got = scm._logistic(score)
        assert got.shape == score.shape
        assert np.array_equal(got, expit(score), equal_nan=True)
    assert scm._logistic(np.array([-710.0, -np.inf])).tolist() == [0.0, 0.0]
    assert scm._logistic(np.empty((2, 0))).shape == (2, 0)


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


def three_level_hedging_spec() -> ScmSpec:
    """binary_scm with a 3-level hedging mediator, which no marker can render."""
    spec = load_fixture("binary_scm")
    law = spec.mediators[0]
    hedging = replace(
        law, levels=3, intercepts=law.intercepts + (0.2,), treatment=law.treatment + (-0.4,),
        confounders={name: rows + ((0.0, -0.3),) for name, rows in law.confounders.items()},
    )
    outcome = replace(spec.outcome, mediators={"hedging": (0.0, 0.9, 0.5)},
                      tm_interactions={"hedging": (0.0, -0.5, 0.2)})
    return replace(spec, mediators=(hedging,), outcome=outcome)


def test_render_rejects_mediators_with_more_than_two_levels():
    spec = three_level_hedging_spec()
    with pytest.raises(ConfigError, match="2 levels"):
        generate(spec, 200, seed=3, render=True)
    records = generate(spec, 200, seed=3).records
    assert records.domains.mediator_sizes == {"hedging": 3}
    assert (records.m["hedging"] == 2).any()


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


# -- differential checks against direct per-law evaluation --------------------------------
#
# Reference implementations that evaluate every law directly: pointwise for
# the enumeration oracle, per unit for the samplers (one vectorized path,
# one sequential path for temporal carryover, and the counterfactual Monte
# Carlo). The tabulated laws in scm must reproduce their draws exactly and
# their oracle values to within rounding of a sum over the same cells.

ORACLE_TOL = 4.5e-16


def _ref_sample_categorical(probs, eps):
    cum = np.cumsum(np.asarray(probs, dtype=float))
    cum[-1] = 1.0
    return (eps[:, None] >= cum[None, :]).sum(axis=1)


def _ref_mediator_base_scores(spec, j, t, xpos, u):
    ml = spec.mediators[j]
    scores = np.zeros((t.shape[0], ml.levels))
    for k in range(1, ml.levels):
        s = ml.intercepts[k - 1] + ml.treatment[k - 1] * t
        for name in spec.confounders:
            s = s + np.asarray(ml.confounders[name][k - 1])[xpos[name]]
        if ml.u_coeffs is not None:
            s = s + np.asarray(ml.u_coeffs[k - 1])[u]
        scores[:, k] = s
    return scores


def _ref_softmax_sample(scores, eps):
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    cum = np.cumsum(e / e.sum(axis=1, keepdims=True), axis=1)
    cum[:, -1] = 1.0
    return (eps[:, None] >= cum).sum(axis=1)


def _ref_outcome_logit(spec, m, t, xpos, u):
    law = spec.outcome
    score = law.intercept + law.treatment * t.astype(float)
    for ml in spec.mediators:
        score = score + np.asarray(law.mediators[ml.name])[m[ml.name]]
        inter = law.tm_interactions.get(ml.name)
        if inter is not None:
            score = score + np.asarray(inter)[m[ml.name]] * t
    for name in spec.confounders:
        score = score + np.asarray(law.confounders[name])[xpos[name]]
    if law.u_coeffs is not None:
        score = score + np.asarray(law.u_coeffs)[u]
    return score


def _ref_mediator_probs(spec, j, t, xpos, u):
    ml = spec.mediators[j]
    scores = np.zeros(ml.levels)
    for k in range(1, ml.levels):
        s = ml.intercepts[k - 1] + ml.treatment[k - 1] * t
        for value, name in zip(xpos, spec.confounders):
            s += ml.confounders[name][k - 1][value]
        if ml.u_coeffs is not None:
            s += ml.u_coeffs[k - 1][u]
        scores[k] = s
    e = np.exp(scores - scores.max())
    return e / e.sum()


def _ref_outcome_prob(spec, mvec, t, xpos, u):
    law = spec.outcome
    score = law.intercept + law.treatment * t
    for level, ml in zip(mvec, spec.mediators):
        score += law.mediators[ml.name][level]
        inter = law.tm_interactions.get(ml.name)
        if inter is not None:
            score += inter[level] * t
    for value, name in zip(xpos, spec.confounders):
        score += law.confounders[name][value]
    if law.u_coeffs is not None:
        score += law.u_coeffs[u]
    return float(expit(score))


def ref_generate(spec, n, seed):
    """(t, x, m, y) of n units, drawn with the same uniforms as scm.generate."""
    rng = np.random.default_rng(seed)
    eps_x = {name: rng.random(n) for name in spec.confounders}
    eps_u = rng.random(n)
    eps_t = rng.random(n)
    eps_m = {ml.name: rng.random(n) for ml in spec.mediators}
    eps_y = rng.random(n)
    xpos = {name: _ref_sample_categorical(probs, eps_x[name])
            for name, probs in spec.confounders.items()}
    u = (_ref_sample_categorical(spec.u_law, eps_u) if spec.u_law is not None
         else np.zeros(n, dtype=np.int64))
    t_score = np.full(n, spec.treatment.intercept)
    for name in spec.confounders:
        t_score = t_score + np.asarray(spec.treatment.confounders[name])[xpos[name]]
    t = (eps_t < expit(t_score)).astype(np.int64)
    if spec.temporal_carryover == 0.0:
        m = {}
        for j, ml in enumerate(spec.mediators):
            scores = _ref_mediator_base_scores(spec, j, t, xpos, u)
            if spec.mediator_coupling != 0.0 and j == 1:
                scores[:, 1:] += spec.mediator_coupling * m[spec.mediators[0].name][:, None]
            m[ml.name] = _ref_softmax_sample(scores, eps_m[ml.name])
        y = (eps_y < expit(_ref_outcome_logit(spec, m, t, xpos, u))).astype(np.int64)
    else:
        base = [_ref_mediator_base_scores(spec, j, t, xpos, u) for j in range(len(spec.mediators))]
        m = {ml.name: np.zeros(n, dtype=np.int64) for ml in spec.mediators}
        y = np.zeros(n, dtype=np.int64)
        prev_y = first_value = 0
        for i in range(n):
            for j, ml in enumerate(spec.mediators):
                scores = base[j][i].copy()
                scores[1:] += spec.temporal_carryover * prev_y
                if spec.mediator_coupling != 0.0 and j == 1:
                    scores[1:] += spec.mediator_coupling * first_value
                shifted = np.exp(scores - scores.max())
                cum = np.cumsum(shifted / shifted.sum())
                cum[-1] = 1.0
                m[ml.name][i] = level = int((eps_m[ml.name][i] >= cum).sum())
                if j == 0:
                    first_value = level
            xp = tuple(int(xpos[name][i]) for name in spec.confounders)
            mvec = tuple(int(m[ml.name][i]) for ml in spec.mediators)
            y[i] = prev_y = int(eps_y[i] < _ref_outcome_prob(spec, mvec, int(t[i]), xp, int(u[i])))
    x = np.zeros(n, dtype=np.int64)
    for name, probs in spec.confounders.items():
        x = x * len(probs) + xpos[name]
    return t, x, m, y


def ref_exact_effects(spec, mediator_name):
    """(nde, nie, te, nie_reversed) by pointwise enumeration of the (x, u, m) grid."""
    j = spec.mediator_names.index(mediator_name)
    n_mediators = len(spec.mediators)
    u_probs = spec.u_law if spec.u_law is not None else (1.0,)
    level_ranges = [range(ml.levels) for ml in spec.mediators]
    x_items = list(spec.confounders.items())
    y11 = y00 = y_nde_treated = y_nie = 0.0
    for xpos in itertools.product(*(range(len(p)) for _, p in x_items)):
        p_x = 1.0
        for (name, probs), value in zip(x_items, xpos):
            p_x *= probs[value]
        for u, p_u in enumerate(u_probs):
            w = p_x * p_u
            if w == 0.0:
                continue
            probs0 = [_ref_mediator_probs(spec, jj, 0, xpos, u) for jj in range(n_mediators)]
            probs1 = [_ref_mediator_probs(spec, jj, 1, xpos, u) for jj in range(n_mediators)]

            def expected_y(t_out, probs_by_mediator):
                total = 0.0
                for mvec in itertools.product(*level_ranges):
                    weight = 1.0
                    for jj, level in enumerate(mvec):
                        weight *= float(probs_by_mediator[jj][level])
                    if weight == 0.0:
                        continue
                    total += weight * _ref_outcome_prob(spec, mvec, t_out, xpos, u)
                return total

            mixed_nde = [probs0[jj] if jj == j else probs1[jj] for jj in range(n_mediators)]
            mixed_nie = [probs1[jj] if jj == j else probs0[jj] for jj in range(n_mediators)]
            y11 += w * expected_y(1, probs1)
            y00 += w * expected_y(0, probs0)
            y_nde_treated += w * expected_y(1, mixed_nde)
            y_nie += w * expected_y(0, mixed_nie)
    return y_nde_treated - y00, y_nie - y00, y11 - y00, y11 - y_nde_treated


def ref_monte_carlo(spec, mediator_name, n_draws, seed, chunk_size=1_000_000):
    """MonteCarloEffects fields, drawn with the same uniforms as scm.monte_carlo_effects."""
    j = spec.mediator_names.index(mediator_name)
    rng = np.random.default_rng(seed)
    sums = np.zeros(3)
    sq_sums = np.zeros(3)
    done = 0
    while done < n_draws:
        size = min(chunk_size, n_draws - done)
        xpos = {name: _ref_sample_categorical(spec.confounders[name], rng.random(size))
                for name in spec.confounders}
        u = (_ref_sample_categorical(spec.u_law, rng.random(size)) if spec.u_law is not None
             else np.zeros(size, dtype=np.int64))
        m_arm = {0: {}, 1: {}}
        for jj, ml in enumerate(spec.mediators):
            eps = rng.random(size)
            for t_arm in (0, 1):
                scores = _ref_mediator_base_scores(
                    spec, jj, np.full(size, t_arm, dtype=np.int64), xpos, u)
                m_arm[t_arm][ml.name] = _ref_softmax_sample(scores, eps)
        eps_y = rng.random(size)

        def y_of(t_out, m_map):
            t_vec = np.full(size, t_out, dtype=np.int64)
            score = _ref_outcome_logit(spec, m_map, t_vec, xpos, u)
            return (eps_y < expit(score)).astype(np.int64)

        m_nde = {k: (m_arm[0][k] if k == mediator_name else m_arm[1][k]) for k in m_arm[0]}
        m_nie = {k: (m_arm[1][k] if k == mediator_name else m_arm[0][k]) for k in m_arm[0]}
        y_base = y_of(0, m_arm[0])
        diffs = np.stack([y_of(1, m_nde) - y_base, y_of(0, m_nie) - y_base,
                          y_of(1, m_arm[1]) - y_base])
        sums += diffs.sum(axis=1)
        sq_sums += (diffs * diffs).sum(axis=1)
        done += size
    means = sums / n_draws
    ses = np.sqrt(np.maximum(sq_sums / n_draws - means**2, 0.0) / n_draws)
    return MonteCarloEffects(
        mediator_name=spec.mediators[j].name, nde=float(means[0]), nie=float(means[1]),
        te=float(means[2]), nde_se=float(ses[0]), nie_se=float(ses[1]), te_se=float(ses[2]),
        n_draws=n_draws,
    )


def assert_matches_reference(spec, n_units, n_draws, seed):
    records = generate(spec, n_units, seed=seed).records
    t, x, m, y = ref_generate(spec, n_units, seed)
    assert np.array_equal(records.t, t) and np.array_equal(records.x, x)
    assert np.array_equal(records.y, y)
    assert list(records.m) == list(m)
    for name in m:
        assert np.array_equal(records.m[name], m[name])
    if spec.mediator_coupling != 0.0 or spec.temporal_carryover != 0.0:
        return
    for name in spec.mediator_names:
        exact = exact_effects(spec, name)
        got = (exact.nde_true, exact.nie_true, exact.te_true, exact.nie_reversed_true)
        for value, expected in zip(got, ref_exact_effects(spec, name)):
            assert abs(value - expected) <= ORACLE_TOL
        assert monte_carlo_effects(spec, name, n_draws=n_draws, seed=seed) == ref_monte_carlo(
            spec, name, n_draws, seed)


def _knobbed(fixture, knobs):
    spec = load_fixture(fixture)
    for knob, magnitude in knobs:
        spec = with_knob(spec, knob, magnitude)
    return spec


KNOB_SETTINGS = {
    "clean": (),
    "unmeasured": (("unmeasured_confounder", 0.8),),
    "carryover": (("temporal_carryover", 1.5),),
    "coupling": (("mediator_coupling", 0.8),),
    "coupling+carryover": (("mediator_coupling", 1.2), ("temporal_carryover", 3.0)),
}


@pytest.mark.parametrize(
    "fixture, setting",
    [(fixture, setting) for fixture in ("binary_scm", "two_mediator_scm")
     for setting in KNOB_SETTINGS
     if fixture == "two_mediator_scm" or "coupling" not in setting],
)
def test_tables_reproduce_direct_evaluation_on_fixtures(fixture, setting):
    spec = _knobbed(fixture, KNOB_SETTINGS[setting])
    assert_matches_reference(spec, n_units=4000, n_draws=50_000, seed=31)


def test_monte_carlo_reproduces_reference_across_batches():
    spec = load_fixture("binary_scm")
    n_draws = 1_000_003
    assert monte_carlo_effects(spec, n_draws=n_draws, seed=8) == ref_monte_carlo(
        spec, "hedging", n_draws, 8)


@st.composite
def small_specs(draw):
    """Valid specs: 1-2 confounders of 2-3 levels, 1-2 mediators of 2-4 levels, optional U."""
    coef = st.floats(-3.0, 3.0, allow_nan=False)

    def vec(size):
        return tuple(draw(st.lists(coef, min_size=size, max_size=size)))

    def probs(size):
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
        return tuple(r / sum(raw) for r in raw)

    x_levels = {f"x{c}": draw(st.integers(2, 3)) for c in range(draw(st.integers(1, 2)))}
    u_law = probs(2) if draw(st.booleans()) else None
    n_u = len(u_law) if u_law else 1
    mediators = []
    for name in ("hedging", "disfluency")[: draw(st.integers(1, 2))]:
        levels = draw(st.integers(2, 4))
        mediators.append(MediatorLaw(
            name=name, levels=levels, intercepts=vec(levels - 1), treatment=vec(levels - 1),
            confounders={c: tuple(vec(k) for _ in range(levels - 1)) for c, k in x_levels.items()},
            u_coeffs=tuple(vec(n_u) for _ in range(levels - 1)) if u_law else None,
        ))
    return ScmSpec(
        confounders={c: probs(k) for c, k in x_levels.items()},
        treatment=TreatmentLaw(draw(coef), {c: vec(k) for c, k in x_levels.items()}),
        mediators=tuple(mediators),
        outcome=OutcomeLaw(
            intercept=draw(coef),
            treatment=draw(coef),
            mediators={ml.name: vec(ml.levels) for ml in mediators},
            tm_interactions={ml.name: vec(ml.levels) for ml in mediators if draw(st.booleans())},
            confounders={c: vec(k) for c, k in x_levels.items()},
            u_coeffs=vec(n_u) if u_law else None,
        ),
        u_law=u_law,
    )


@settings(max_examples=40, deadline=None)
@given(spec=small_specs(), carryover=st.sampled_from([0.0, 0.7, -2.0]),
       coupling=st.sampled_from([0.0, 1.3]), seed=st.integers(0, 2**32 - 1))
def test_tables_reproduce_direct_evaluation_on_small_specs(spec, carryover, coupling, seed):
    assert_matches_reference(spec, n_units=300, n_draws=3000, seed=seed)
    if len(spec.mediators) < 2:
        coupling = 0.0
    knobbed = replace(spec, temporal_carryover=carryover, mediator_coupling=coupling)
    assert_matches_reference(knobbed, n_units=300, n_draws=3000, seed=seed)


# -- inverse CDF by column ----------------------------------------------------------------


@st.composite
def cdf_tables(draw):
    """CDF rows of 2-5 levels with uniforms to draw from them, including ties and the ends.

    The weights are not normalized, so a row's cumulative sum may pass 1
    before its pinned top, or stay below it.
    """
    levels = draw(st.integers(2, 5))
    n_rows = draw(st.integers(1, 6))
    weights = st.floats(0.0, 0.7, allow_subnormal=False)
    table = scm._cdf(np.array([[draw(weights) for _ in range(levels)] for _ in range(n_rows)]))
    ties = [float(v) for v in table.ravel() if v < 1.0]
    eps = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0 - 2.0**-53] + ties),
                                  st.floats(0.0, 1.0, exclude_max=True)), max_size=40))
    index = draw(st.lists(st.integers(0, n_rows - 1), min_size=len(eps), max_size=len(eps)))
    return table, np.array(eps, dtype=float), np.array(index, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(cdf_tables())
def test_inverse_cdf_by_column_equals_the_broadcast_comparison(args):
    table, eps, index = args
    for row in table:  # one shared 1-D row
        got = scm._inverse_cdf(row, eps)
        want = (eps[:, None] >= row).sum(axis=1)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    want = (eps[:, None] >= table[index]).sum(axis=1)  # a row per draw
    for shaped in (table, table.reshape(len(table), 1, -1)):
        got = scm._inverse_cdf(shaped, eps, index)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_inverse_cdf_when_the_cumulative_sum_passes_one_before_the_pin():
    row = scm._cdf([0.7, 0.7, 0.1])  # [0.7, 1.4, 1.0]
    eps = np.array([0.0, 0.69, 0.7, 0.99, 1.0 - 2.0**-53])
    assert scm._inverse_cdf(row, eps).tolist() == (eps[:, None] >= row).sum(axis=1).tolist()
    assert scm._inverse_cdf(row, eps).tolist() == [0, 0, 1, 1, 1]
