import json
import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import records_from_arrays, simple_domains
from medlang import glm, mediation
from medlang.errors import ConfigError, DataError, NumericalError
from medlang.glm import (
    FittedMediatorModel,
    FittedOutcomeModel,
    encode_records,
    fit_mediator_model,
    fit_outcome_model,
)
from medlang.measure import CausalRecord
from medlang.mediation import (
    EffectEstimate,
    EstimatorConfig,
    _bootstrap_draws,
    bootstrap_effects,
    estimate_all,
    fit_models,
    sample_effects,
)
from medlang import scm


def hand_models(g_rows, f_rows, domains=None):
    """Build fitted models directly from probability tables.

    g_rows: array (n_folds, 2, n_x, K); f_rows: (n_folds, K, 2, n_x).
    """
    domains = domains or simple_domains(n_x_levels=1)
    g = FittedMediatorModel(
        mediator_name="hedging",
        domains=domains,
        table=np.asarray(g_rows, dtype=float),
        diagnostics=(),
    )
    f = FittedOutcomeModel(
        mediator_name="hedging",
        domains=domains,
        table=np.asarray(f_rows, dtype=float),
        diagnostics=(),
    )
    return g, f


def one_unit_record():
    return encode_records(
        [CausalRecord(unit_id="u0", t=0, x={"x0": "0"}, m={"hedging": 0}, y=0, fold=0)],
        simple_domains(n_x_levels=1),
    )


# -- hand-arithmetic oracles ---------------------------------------------------


def test_sa_nde_hand_arithmetic():
    # f(m=0,t=1)=0.7 f(0,0)=0.4 f(1,1)=0.9 f(1,0)=0.5 ; g(1|0)=0.25
    # nde = 0.75*(0.7-0.4) + 0.25*(0.9-0.5) = 0.325
    g, f = hand_models(
        g_rows=[[[[0.75, 0.25]], [[0.4, 0.6]]]],
        f_rows=[[[[0.4], [0.7]], [[0.5], [0.9]]]],
    )
    assert sample_effects(one_unit_record(), g, f)[0] == pytest.approx(0.325, abs=1e-12)


def test_sa_nie_hand_arithmetic():
    # nie = 0.4*(0.4-0.75) + 0.5*(0.6-0.25) = 0.035
    g, f = hand_models(
        g_rows=[[[[0.75, 0.25]], [[0.4, 0.6]]]],
        f_rows=[[[[0.4], [0.7]], [[0.5], [0.9]]]],
    )
    assert sample_effects(one_unit_record(), g, f)[1] == pytest.approx(0.035, abs=1e-12)


def test_total_effect_hand_arithmetic():
    # te = (0.7*0.4 + 0.9*0.6) - (0.4*0.75 + 0.5*0.25) = 0.395
    g, f = hand_models(
        g_rows=[[[[0.75, 0.25]], [[0.4, 0.6]]]],
        f_rows=[[[[0.4], [0.7]], [[0.5], [0.9]]]],
    )
    records = one_unit_record()
    nde, _, nie_rev, te = sample_effects(records, g, f)
    assert te == pytest.approx(0.395, abs=1e-12)
    assert abs(te - nde - nie_rev) <= 1e-9


def test_models_whose_tables_hold_different_fold_counts_are_a_data_error():
    g, f = hand_models(g_rows=[[[[0.75, 0.25]], [[0.4, 0.6]]]] * 2,
                       f_rows=[[[[0.4], [0.7]], [[0.5], [0.9]]]])
    with pytest.raises(DataError, match="different fold counts"):
        sample_effects(one_unit_record(), g, f)


# -- exact annihilation -----------------------------------------------------------


def test_nde_zero_when_outcome_tables_treatment_invariant():
    g, f = hand_models(
        g_rows=[[[[0.7, 0.3]], [[0.2, 0.8]]]],
        f_rows=[[[[0.41], [0.41]], [[0.77], [0.77]]]],
    )
    assert sample_effects(one_unit_record(), g, f)[0] == 0.0


def test_nie_zero_when_mediator_tables_treatment_invariant():
    g, f = hand_models(
        g_rows=[[[[0.7, 0.3]], [[0.7, 0.3]]]],
        f_rows=[[[[0.4], [0.7]], [[0.5], [0.9]]]],
    )
    _, nie, nie_rev, _ = sample_effects(one_unit_record(), g, f)
    assert nie == 0.0
    assert nie_rev == 0.0


@settings(max_examples=40, deadline=None)
@given(
    probs=st.lists(st.floats(0.01, 0.99), min_size=6, max_size=6),
)
def test_annihilation_and_identity_for_arbitrary_tables(probs):
    g1, f00, f01, f10, f11, gshare = probs
    # treatment-invariant g: nie identically zero
    g, f = hand_models(
        g_rows=[[[[1 - gshare, gshare]], [[1 - gshare, gshare]]]],
        f_rows=[[[[f00], [f01]], [[f10], [f11]]]],
    )
    records = one_unit_record()
    assert sample_effects(records, g, f)[1] == 0.0
    # identity holds for arbitrary tables
    g, f = hand_models(
        g_rows=[[[[1 - g1, g1]], [[1 - gshare, gshare]]]],
        f_rows=[[[[f00], [f01]], [[f10], [f11]]]],
    )
    nde, _, nie_rev, te = sample_effects(records, g, f)
    assert abs(te - nde - nie_rev) <= 1e-9


# -- permutation invariance ---------------------------------------------------


def test_estimates_invariant_to_record_order():
    rng = np.random.default_rng(17)
    n = 500
    records = records_from_arrays(
        t=rng.integers(0, 2, n),
        x0=rng.integers(0, 2, n),
        m=rng.integers(0, 2, n),
        y=rng.integers(0, 2, n),
        fold=rng.integers(0, 2, n),
    )
    g = fit_mediator_model(records)
    f = fit_outcome_model(records)
    base = sample_effects(records, g, f)
    rows = list(records)
    shuffled = encode_records([rows[i] for i in rng.permutation(n)], records.domains)
    other = sample_effects(shuffled, g, f)
    assert base == other  # bit-exact


# -- oracle convergence ----------------------------------------------------------


def test_estimates_converge_to_oracle_on_clean_fixture():
    spec = scm.load_fixture("binary_scm")
    oracle = scm.exact_effects(spec)
    result = scm.generate(spec, 50000, seed=301)
    coded = result.records
    g = fit_mediator_model(coded)
    f = fit_outcome_model(coded)
    nde, nie, _, te = sample_effects(coded, g, f)
    assert abs(nde - oracle.nde_true) <= 0.01
    assert abs(nie - oracle.nie_true) <= 0.01
    assert abs(te - oracle.te_true) <= 0.01


def test_two_independent_mediators_match_their_oracles():
    spec = scm.load_fixture("two_mediator_scm")
    result = scm.generate(spec, 50000, seed=302)
    coded = result.records
    for name in spec.mediator_names:
        oracle = scm.exact_effects(spec, name)
        g = fit_mediator_model(coded, name)
        f = fit_outcome_model(coded, name)
        nde, nie, _, _ = sample_effects(coded, g, f)
        assert abs(nie - oracle.nie_true) <= 0.01
        assert abs(nde - oracle.nde_true) <= 0.01


def test_records_over_other_domains_are_rejected():
    result = scm.generate(scm.load_fixture("two_mediator_scm"), 500, seed=3)
    g, f = fit_models(result.records, "hedging")
    (name, levels), *others = result.records.domains.confounders
    wider = replace(result.records.domains,
                    confounders=((name, levels + (str(len(levels)),)), *others))
    records = encode_records(result.records, wider)
    with pytest.raises(DataError, match="different domains"):
        sample_effects(records, g, f)
    with pytest.raises(DataError, match="different domains"):
        bootstrap_effects(records, g, f, 100, seed=0)


# -- marginal x weighting ---------------------------------------------------------


def test_marginal_weighting_equals_unit_weighting_with_single_level_x():
    rng = np.random.default_rng(23)
    n = 400
    records = records_from_arrays(
        t=rng.integers(0, 2, n),
        x0=np.zeros(n, dtype=int),
        m=rng.integers(0, 2, n),
        y=rng.integers(0, 2, n),
        fold=rng.integers(0, 2, n),
    )
    g = fit_mediator_model(records)
    f = fit_outcome_model(records)
    assert sample_effects(records, g, f, x_marginal=False)[0] == sample_effects(
        records, g, f, x_marginal=True
    )[0]


def test_marginal_weighting_runs_and_stays_close_on_fixture():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 20000, seed=9)
    coded = result.records
    g = fit_mediator_model(coded)
    f = fit_outcome_model(coded)
    unit = sample_effects(coded, g, f, x_marginal=False)[0]
    marginal = sample_effects(coded, g, f, x_marginal=True)[0]
    assert abs(unit - marginal) <= 0.02


def test_marginal_weighting_hand_arithmetic():
    # g(m=1 | t, x) = 0 and f(0, 0, x) = 0, so a cell's nde is f(m=0, t=1, x)
    nde_cells = [[0.1, 0.5], [0.3, 0.4]]  # (fold, x)
    g_rows = [[[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]] * 2
    f_rows = [[[[0.0, 0.0], nde_cells[fold]], [[0.5, 0.5], [0.5, 0.5]]] for fold in (0, 1)]
    g, f = hand_models(g_rows, f_rows, domains=simple_domains(n_x_levels=2))
    # fold 0 holds two units with x = 0, fold 1 one unit with x = 1
    records = records_from_arrays(t=[0, 0, 0], x0=[0, 0, 1], m=[0, 0, 0], y=[0, 0, 0],
                                  fold=[0, 0, 1])
    assert sample_effects(records, g, f)[0] == pytest.approx((0.1 + 0.1 + 0.4) / 3, abs=1e-12)
    # marginal: each fold's units spread over the pooled X shares (2/3, 1/3)
    marginal = (2 * (2 / 3 * 0.1 + 1 / 3 * 0.5) + (2 / 3 * 0.3 + 1 / 3 * 0.4)) / 3
    assert sample_effects(records, g, f, x_marginal=True)[0] == pytest.approx(
        marginal, abs=1e-12
    )


# -- bootstrap -------------------------------------------------------------------


def test_bootstrap_same_seed_identical_intervals():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 2000, seed=41)
    coded = result.records
    g, f = fit_models(coded, "hedging")
    a = bootstrap_effects(coded, g, f, 100, seed=5)
    b = bootstrap_effects(coded, g, f, 100, seed=5)
    assert a == b
    c = bootstrap_effects(coded, g, f, 100, seed=6)
    assert a.nde_ci != c.nde_ci


def test_bootstrap_degenerate_data_zero_width_interval():
    # one distinct unit's values repeated: every resample is the same dataset
    n = 60
    records = records_from_arrays(
        t=np.ones(n, dtype=int),
        x0=np.zeros(n, dtype=int),
        m=np.ones(n, dtype=int),
        y=np.ones(n, dtype=int),
        fold=np.arange(n) % 2,
    )
    est = bootstrap_effects(records, *fit_models(records, "hedging"), 100, seed=3)
    assert est.nde_ci[0] == est.nde_ci[1] == est.nde
    assert est.nie_ci[0] == est.nie_ci[1] == est.nie
    assert est.n_dropped_replicates == 0


def test_bootstrap_drops_collapsed_replicates_and_errors_over_threshold():
    # a confounder level carried by a single unit collapses in ~37% of resamples
    rng = np.random.default_rng(8)
    n = 80
    x = np.zeros(n, dtype=int)
    x[0] = 1
    records = records_from_arrays(
        t=rng.integers(0, 2, n),
        x0=x,
        m=rng.integers(0, 2, n),
        y=rng.integers(0, 2, n),
        fold=rng.integers(0, 2, n),
    )
    g, f = fit_models(records, "hedging")
    with pytest.raises(NumericalError, match="dropped"):
        bootstrap_effects(records, g, f, 100, seed=1)


def test_bootstrap_zero_replicates_disables_intervals():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 1000, seed=4)
    coded = result.records
    est = bootstrap_effects(coded, *fit_models(coded, "hedging"), 0, seed=0)
    assert est.n_bootstrap == 0
    assert est.nde_ci == (est.nde, est.nde)


def test_bootstrap_rejects_small_positive_b():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 500, seed=4)
    coded = result.records
    g, f = fit_models(coded, "hedging")
    with pytest.raises(ConfigError):
        bootstrap_effects(coded, g, f, 50, seed=0)


def test_bootstrap_interval_contains_point_estimate():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 3000, seed=77)
    coded = result.records
    est = bootstrap_effects(coded, *fit_models(coded, "hedging"), 100, seed=2)
    assert est.nde_ci[0] <= est.nde <= est.nde_ci[1]
    assert est.nie_ci[0] <= est.nie <= est.nie_ci[1]
    est.validate()


# -- estimate_all -----------------------------------------------------------------


def test_estimate_all_singleton():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 1500, seed=12)
    coded = result.records
    out = estimate_all(coded, [fit_models(coded, "hedging")],
                       EstimatorConfig(n_bootstrap=100, seed=1))
    assert len(out) == 1
    assert out[0].mediator_name == "hedging"


def test_estimate_all_per_mediator_is_independent_of_the_set():
    spec = scm.load_fixture("two_mediator_scm")
    result = scm.generate(spec, 2500, seed=13)
    config = EstimatorConfig(n_bootstrap=100, seed=21)
    coded = result.records
    models = [fit_models(coded, name) for name in ("hedging", "disfluency")]
    both = estimate_all(coded, models, config)
    alone = estimate_all(coded, models[:1], config)
    assert both[0] == alone[0]  # bit-identical
    assert {e.mediator_name for e in both} == {"hedging", "disfluency"}


def test_estimate_all_unknown_mediator_errors():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 500, seed=2)
    coded = result.records
    with pytest.raises(Exception, match="unknown mediators"):
        estimate_all(coded, [fit_models(coded, "topic")], EstimatorConfig())


# -- estimate validation -----------------------------------------------------------


def test_effect_estimate_identity_enforced():
    est = EffectEstimate(
        mediator_name="hedging",
        nde=0.2,
        nie=0.1,
        nie_reversed=0.1,
        total_effect=0.5,  # violates te = nde + nie_reversed
        ci_level=0.9,
        nde_ci=(0.1, 0.3),
        nie_ci=(0.0, 0.2),
        n_units=10,
        n_bootstrap=0,
    )
    with pytest.raises(NumericalError, match="identity"):
        est.validate()


def test_effect_estimate_range_enforced():
    est = EffectEstimate(
        mediator_name="hedging",
        nde=1.5,
        nie=0.0,
        nie_reversed=0.0,
        total_effect=1.5,
        ci_level=0.9,
        nde_ci=(1.4, 1.6),
        nie_ci=(0.0, 0.0),
        n_units=10,
        n_bootstrap=0,
    )
    with pytest.raises(NumericalError, match="outside"):
        est.validate()


# -- batched, count-based bootstrap ---------------------------------------------------


def _sequential_draws(coded, name, n_bootstrap, seed, x_marginal):
    """Reference: each replicate's drawn counts expanded into rows and refitted cold."""
    widths = [len(levels) for _, levels in coded.domains.confounders]
    n_levels = coded.domains.mediator_sizes[name]
    shape = glm.grid_shape(coded.domains, name, coded.n_folds)

    def present(rows):
        parts = [np.bincount(rows.t, minlength=2),
                 np.bincount(rows.m[name], minlength=n_levels)]
        for j, pos in enumerate(np.unravel_index(rows.x, widths)):
            parts.append(np.bincount(pos, minlength=widths[j]))
        return np.concatenate(parts) > 0

    base = present(coded)
    counts = mediation._replicate_counts(coded, name, n_bootstrap, seed)
    draws = np.full((n_bootstrap, 2), np.nan)
    for r in range(n_bootstrap):
        cells = np.repeat(np.arange(counts[r].size), counts[r].ravel())
        fold, m, t, x, y = np.unravel_index(cells, shape)
        resample = glm.CodedRecords(unit_ids=tuple(f"u{i}" for i in range(cells.size)), t=t,
                                    x=x, m={name: m}, y=y, fold=fold, domains=coded.domains)
        if (base & ~present(resample)).any():
            continue
        try:
            g = fit_mediator_model(resample, name)
            f = fit_outcome_model(resample, name)
        except NumericalError:
            continue
        draws[r] = sample_effects(resample, g, f, x_marginal)[:2]
    return draws


def _take(coded, rows):
    """The coded records at ``rows``, repeated rows included."""
    return glm.CodedRecords(
        unit_ids=tuple(coded.unit_ids[i] for i in rows), t=coded.t[rows], x=coded.x[rows],
        m={name: levels[rows] for name, levels in coded.m.items()}, y=coded.y[rows],
        fold=coded.fold[rows], domains=coded.domains,
    )


def _six_level_records(n=1200, seed=31):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, n)
    t = rng.integers(0, 2, n)
    m = np.minimum(rng.integers(0, 5, n) + t * rng.integers(0, 2, n), 5)
    y = (rng.random(n) < 0.3 + 0.08 * m * t / 5 + 0.1 * (x == 2)).astype(int)
    return records_from_arrays(t=t, x0=x, m=m, y=y, fold=np.arange(n) % 2,
                               domains=simple_domains(3, (("hedging", 6),)))


def _sparse_level_records():
    rng = np.random.default_rng(8)
    n = 80
    x = np.zeros(n, dtype=int)
    x[0] = 1
    return records_from_arrays(t=rng.integers(0, 2, n), x0=x, m=rng.integers(0, 2, n),
                               y=rng.integers(0, 2, n), fold=rng.integers(0, 2, n),
                               domains=simple_domains(2))


def _binary_scm_records(n=1500, seed=41):
    return scm.generate(scm.load_fixture("binary_scm"), n, seed=seed).records


@pytest.mark.parametrize(
    "make_coded, x_marginal",
    [
        (_binary_scm_records, False),
        (_binary_scm_records, True),
        (_six_level_records, False),
        (_six_level_records, True),
        (_sparse_level_records, False),
    ],
    ids=["binary_scm", "binary_scm-marginal", "six_levels", "six_levels-marginal",
         "collapsing"],
)
def test_batched_bootstrap_matches_sequential_refits(make_coded, x_marginal):
    coded = make_coded()
    batched = _bootstrap_draws(coded, *fit_models(coded, "hedging"), 100, 17, x_marginal)
    reference = _sequential_draws(coded, "hedging", 100, 17, x_marginal)
    assert np.array_equal(np.isnan(batched), np.isnan(reference))
    kept = ~np.isnan(reference[:, 0])
    assert kept.any()
    assert np.abs(batched[kept] - reference[kept]).max() <= 1e-12


def _fold_gap_records(n=300, seed=12):
    """Records whose folds are {0, 2, 3}: fold 1 holds no units."""
    rng = np.random.default_rng(seed)
    return records_from_arrays(t=rng.integers(0, 2, n), x0=rng.integers(0, 3, n),
                               m=rng.integers(0, 2, n), y=rng.integers(0, 2, n),
                               fold=rng.choice([0, 2, 3], n), domains=simple_domains(3))


@pytest.mark.parametrize("make_coded", [_sparse_level_records, _six_level_records,
                                        _fold_gap_records])
def test_replicate_counts_resample_each_fold_within_its_cells(make_coded):
    coded = make_coded()
    shape = glm.grid_shape(coded.domains, "hedging", coded.n_folds)
    cells = np.bincount(glm.cell_codes(coded, "hedging", coded.fold),
                        minlength=int(np.prod(shape))).reshape(shape)
    counts = mediation._replicate_counts(coded, "hedging", 300, 5)
    assert counts.shape == (300,) + shape
    assert not counts[:, cells == 0].any()  # no cell without units gets a count
    n_fold = np.bincount(coded.fold, minlength=coded.n_folds)
    assert (counts.sum(axis=(2, 3, 4, 5)) == n_fold).all()  # a fold without units draws zeros
    assert not np.array_equal(counts[0], counts[1])
    # on average a replicate holds the data's own counts
    assert np.abs(counts.mean(axis=0) - cells).max() <= 0.5 + 0.2 * np.sqrt(cells.max())


def test_bootstrap_intervals_invariant_to_record_order():
    coded = _binary_scm_records()
    shuffled = _take(coded, np.random.default_rng(3).permutation(len(coded)))
    for x_marginal in (False, True):
        base = bootstrap_effects(coded, *fit_models(coded, "hedging"), 100, seed=7,
                                 x_marginal=x_marginal)
        other = bootstrap_effects(shuffled, *fit_models(shuffled, "hedging"), 100, seed=7,
                                  x_marginal=x_marginal)
        assert base == other  # bit-exact, intervals included


def test_warm_started_refits_match_cold_ones_in_fewer_iterations(monkeypatch):
    coded = _six_level_records()
    g, f = fit_models(coded, "hedging")
    real_batch = glm.fit_categorical_glm_batch
    iterations = []

    def counting_batch(*args, **kwargs):
        fit = real_batch(*args, **kwargs)
        iterations.append(int(fit.iterations.sum()))
        return fit

    monkeypatch.setattr(glm, "fit_categorical_glm_batch", counting_batch)
    warm = _bootstrap_draws(coded, g, f, 100, 17, False)
    warm_iterations = sum(iterations)
    iterations.clear()
    monkeypatch.setattr(mediation, "_restart", lambda model, n_folds: None)
    cold = _bootstrap_draws(coded, g, f, 100, 17, False)
    assert np.array_equal(np.isnan(warm), np.isnan(cold))
    assert np.nanmax(np.abs(warm - cold)) <= 1e-12
    assert warm_iterations < sum(iterations)


_BOOTSTRAP_EVENT = re.compile(
    r"bootstrap for 'hedging': (\d+) replicates, (\d+) dropped \((\d+) lost a level, "
    r"(\d+) failed or unconverged refits, (\d+) invalid tables\); "
    r"(\d+) kept replicates had defaulted cells"
)


def _logged_drops(caplog, coded, g, f, seed):
    """bootstrap_effects' estimate and its one event's (lost, failed, invalid) drop counts."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="medlang"):
        est = bootstrap_effects(coded, g, f, 100, seed=seed)
    (event,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("bootstrap")]
    attempted, dropped, *reasons, defaulted = map(int, _BOOTSTRAP_EVENT.fullmatch(event).groups())
    assert (attempted, dropped) == (100, est.n_dropped_replicates)
    assert sum(reasons) == dropped and defaulted <= attempted - dropped
    return est, reasons


def test_collapsed_replicates_are_dropped_and_counted(monkeypatch, caplog):
    coded = _sparse_level_records()
    draws = _bootstrap_draws(coded, *fit_models(coded, "hedging"), 100, 1, False)
    n_nan = int(np.isnan(draws[:, 0]).sum())
    assert 0 < n_nan < 100
    monkeypatch.setattr(mediation, "MAX_DROPPED_FRACTION", 1.0)
    est, reasons = _logged_drops(caplog, coded, *fit_models(coded, "hedging"), seed=1)
    assert est.n_dropped_replicates == n_nan
    assert reasons == [n_nan, 0, 0]


def test_a_bootstrap_that_drops_every_replicate_logs_it_and_fails(monkeypatch, caplog):
    coded = _binary_scm_records()
    g, f = fit_models(coded, "hedging")
    # every resample loses a level that the data has
    monkeypatch.setattr(mediation, "_levels_present",
                        lambda cells, domains: np.full(cells.shape[:-3] + (1,), cells.ndim == 3))
    assert np.isnan(_bootstrap_draws(coded, g, f, 100, 29, False)).all()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="medlang"):
        with pytest.raises(NumericalError, match="100/100 bootstrap replicates dropped"):
            bootstrap_effects(coded, g, f, 100, seed=29)
    (event,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("bootstrap")]
    assert _BOOTSTRAP_EVENT.fullmatch(event).groups() == ("100", "100", "100", "0", "0", "0")


def test_replicate_draws_depend_only_on_their_own_seed():
    coded = _binary_scm_records()
    g, f = fit_models(coded, "hedging")
    long_run = _bootstrap_draws(coded, g, f, 200, 23, False)
    short_run = _bootstrap_draws(coded, g, f, 100, 23, False)
    assert np.array_equal(long_run[:100], short_run)


def test_one_failed_member_drops_exactly_its_replicate(monkeypatch, caplog):
    coded = _binary_scm_records()
    g, f = fit_models(coded, "hedging")
    clean = _bootstrap_draws(coded, g, f, 100, 29, False)
    assert not np.isnan(clean).any()
    real_batch = glm.fit_categorical_glm_batch

    def fail_member_three(design, counts, *args, **kwargs):
        fit = real_batch(design, counts, *args, **kwargs)
        if counts.shape[0] > coded.n_folds:  # a bootstrap batch, not a point fit
            fit[4][3] = glm.NOT_CONVERGED  # replicate 1, fold 1
        return fit

    monkeypatch.setattr(glm, "fit_categorical_glm_batch", fail_member_three)
    draws = _bootstrap_draws(coded, g, f, 100, 29, False)
    assert np.isnan(draws[1]).all()
    others = np.arange(100) != 1
    assert np.array_equal(draws[others], clean[others])
    est, reasons = _logged_drops(caplog, coded, g, f, seed=29)
    assert est.n_dropped_replicates == 1 and reasons == [0, 1, 0]


def test_invalid_table_drops_exactly_its_replicate(monkeypatch, caplog):
    coded = _binary_scm_records()
    g, f = fit_models(coded, "hedging")
    clean = _bootstrap_draws(coded, g, f, 100, 29, False)
    real_rule = glm.valid_outcome_tables

    def reject_replicate_one(table):
        valid = real_rule(table)
        valid[1, 1] = False  # replicate 1, fold 1
        return valid

    monkeypatch.setattr(glm, "valid_outcome_tables", reject_replicate_one)
    draws = _bootstrap_draws(coded, g, f, 100, 29, False)
    assert np.isnan(draws[1]).all()
    others = np.arange(100) != 1
    assert np.array_equal(draws[others], clean[others])
    est, reasons = _logged_drops(caplog, coded, g, f, seed=29)
    assert est.n_dropped_replicates == 1 and reasons == [0, 0, 1]


def test_clamped_intervals_are_counted(monkeypatch):
    coded = _binary_scm_records()
    g, f = fit_models(coded, "hedging")
    est = bootstrap_effects(coded, g, f, 100, seed=2)
    assert est.n_clamped_intervals == 0
    # every replicate far above both point estimates: both intervals are widened
    monkeypatch.setattr(
        mediation, "_bootstrap_draws", lambda coded, g, f, b, seed, xw: np.full((b, 2), 0.9)
    )
    est = bootstrap_effects(coded, g, f, 100, seed=2)
    assert est.n_clamped_intervals == 2
    assert est.nde_ci == (est.nde, 0.9) and est.nie_ci == (est.nie, 0.9)
    assert est.to_dict()["n_clamped_intervals"] == 2
    assert EffectEstimate.from_dict(json.loads(est.to_json())) == est


def test_from_dict_rejects_missing_keys_and_bad_values():
    coded = _binary_scm_records()
    est = bootstrap_effects(coded, *fit_models(coded, "hedging"), 0, seed=0)
    obj = est.to_dict()
    del obj["nde"]
    with pytest.raises(DataError, match="nde"):
        EffectEstimate.from_dict(obj)
    with pytest.raises(DataError):
        EffectEstimate.from_dict({**est.to_dict(), "nie_ci": 0.5})
    with pytest.raises(DataError):
        EffectEstimate.from_dict([1, 2])
