import json

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
    _models_effects,
    bootstrap_effects,
    estimate_all,
    sa_nde,
    sa_nie,
    sa_nie_reversed,
    total_effect,
)
from medlang import scm
from medlang.seeding import derive_seed


def hand_models(g_rows, f_rows, domains=None, n_folds=1):
    """Build fitted models directly from probability tables.

    g_rows: array (n_folds, 2, n_x, K); f_rows: (n_folds, K, 2, n_x).
    """
    domains = domains or simple_domains(n_x_levels=1)
    g = FittedMediatorModel(
        mediator_name="hedging",
        domains=domains,
        n_folds=n_folds,
        table=np.asarray(g_rows, dtype=float),
        diagnostics=(),
    )
    f = FittedOutcomeModel(
        mediator_name="hedging",
        domains=domains,
        n_folds=n_folds,
        table=np.asarray(f_rows, dtype=float),
        diagnostics=(),
    )
    return g, f


def one_unit_record():
    return [
        CausalRecord(unit_id="u0", t=0, x={"x0": "0"}, m={"hedging": 0}, y=0, fold=0)
    ]


# -- hand-arithmetic oracles ---------------------------------------------------


def test_sa_nde_hand_arithmetic():
    # f(m=0,t=1)=0.7 f(0,0)=0.4 f(1,1)=0.9 f(1,0)=0.5 ; g(1|0)=0.25
    # nde = 0.75*(0.7-0.4) + 0.25*(0.9-0.5) = 0.325
    g, f = hand_models(
        g_rows=[[[[0.75, 0.25]], [[0.4, 0.6]]]],
        f_rows=[[[[0.4], [0.7]], [[0.5], [0.9]]]],
    )
    assert sa_nde(one_unit_record(), g, f) == pytest.approx(0.325, abs=1e-12)


def test_sa_nie_hand_arithmetic():
    # nie = 0.4*(0.4-0.75) + 0.5*(0.6-0.25) = 0.035
    g, f = hand_models(
        g_rows=[[[[0.75, 0.25]], [[0.4, 0.6]]]],
        f_rows=[[[[0.4], [0.7]], [[0.5], [0.9]]]],
    )
    assert sa_nie(one_unit_record(), g, f) == pytest.approx(0.035, abs=1e-12)


def test_total_effect_hand_arithmetic():
    # te = (0.7*0.4 + 0.9*0.6) - (0.4*0.75 + 0.5*0.25) = 0.395
    g, f = hand_models(
        g_rows=[[[[0.75, 0.25]], [[0.4, 0.6]]]],
        f_rows=[[[[0.4], [0.7]], [[0.5], [0.9]]]],
    )
    records = one_unit_record()
    te = total_effect(records, g, f)
    assert te == pytest.approx(0.395, abs=1e-12)
    nde = sa_nde(records, g, f)
    nie_rev = sa_nie_reversed(records, g, f)
    assert abs(te - nde - nie_rev) <= 1e-9


# -- exact annihilation -----------------------------------------------------------


def test_nde_zero_when_outcome_tables_treatment_invariant():
    g, f = hand_models(
        g_rows=[[[[0.7, 0.3]], [[0.2, 0.8]]]],
        f_rows=[[[[0.41], [0.41]], [[0.77], [0.77]]]],
    )
    assert sa_nde(one_unit_record(), g, f) == 0.0


def test_nie_zero_when_mediator_tables_treatment_invariant():
    g, f = hand_models(
        g_rows=[[[[0.7, 0.3]], [[0.7, 0.3]]]],
        f_rows=[[[[0.4], [0.7]], [[0.5], [0.9]]]],
    )
    assert sa_nie(one_unit_record(), g, f) == 0.0
    assert sa_nie_reversed(one_unit_record(), g, f) == 0.0


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
    assert sa_nie(records, g, f) == 0.0
    # identity holds for arbitrary tables
    g, f = hand_models(
        g_rows=[[[[1 - g1, g1]], [[1 - gshare, gshare]]]],
        f_rows=[[[[f00], [f01]], [[f10], [f11]]]],
    )
    te = total_effect(records, g, f)
    nde = sa_nde(records, g, f)
    nie_rev = sa_nie_reversed(records, g, f)
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
    base = (sa_nde(records, g, f), sa_nie(records, g, f), total_effect(records, g, f))
    shuffled = [records[i] for i in rng.permutation(n)]
    other = (sa_nde(shuffled, g, f), sa_nie(shuffled, g, f), total_effect(shuffled, g, f))
    assert base == other  # bit-exact


# -- oracle convergence ----------------------------------------------------------


def test_estimates_converge_to_oracle_on_clean_fixture():
    spec = scm.load_fixture("binary_scm")
    oracle = scm.exact_effects(spec)
    result = scm.generate(spec, 50000, seed=301)
    coded = encode_records(result.records, result.domains)
    g = fit_mediator_model(coded)
    f = fit_outcome_model(coded)
    assert abs(sa_nde(coded, g, f) - oracle.nde_true) <= 0.01
    assert abs(sa_nie(coded, g, f) - oracle.nie_true) <= 0.01
    assert abs(total_effect(coded, g, f) - oracle.te_true) <= 0.01


def test_two_independent_mediators_match_their_oracles():
    spec = scm.load_fixture("two_mediator_scm")
    result = scm.generate(spec, 50000, seed=302)
    coded = encode_records(result.records, result.domains)
    for name in spec.mediator_names:
        oracle = scm.exact_effects(spec, name)
        g = fit_mediator_model(coded, name)
        f = fit_outcome_model(coded, name)
        assert abs(sa_nie(coded, g, f) - oracle.nie_true) <= 0.01
        assert abs(sa_nde(coded, g, f) - oracle.nde_true) <= 0.01


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
    assert sa_nde(records, g, f, x_weighting="unit") == sa_nde(
        records, g, f, x_weighting="marginal"
    )


def test_marginal_weighting_runs_and_stays_close_on_fixture():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 20000, seed=9)
    coded = encode_records(result.records, result.domains)
    g = fit_mediator_model(coded)
    f = fit_outcome_model(coded)
    unit = sa_nde(coded, g, f, x_weighting="unit")
    marginal = sa_nde(coded, g, f, x_weighting="marginal")
    assert abs(unit - marginal) <= 0.02


def test_marginal_weighting_hand_arithmetic():
    # g(m=1 | t, x) = 0 and f(0, 0, x) = 0, so a cell's nde is f(m=0, t=1, x)
    nde_cells = [[0.1, 0.5], [0.3, 0.4]]  # (fold, x)
    g_rows = [[[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]] * 2
    f_rows = [[[[0.0, 0.0], nde_cells[fold]], [[0.5, 0.5], [0.5, 0.5]]] for fold in (0, 1)]
    g, f = hand_models(g_rows, f_rows, domains=simple_domains(n_x_levels=2), n_folds=2)
    # fold 0 holds two units with x = 0, fold 1 one unit with x = 1
    records = records_from_arrays(t=[0, 0, 0], x0=[0, 0, 1], m=[0, 0, 0], y=[0, 0, 0],
                                  fold=[0, 0, 1])
    assert sa_nde(records, g, f) == pytest.approx((0.1 + 0.1 + 0.4) / 3, abs=1e-12)
    # marginal: each fold's units spread over the pooled X shares (2/3, 1/3)
    marginal = (2 * (2 / 3 * 0.1 + 1 / 3 * 0.5) + (2 / 3 * 0.3 + 1 / 3 * 0.4)) / 3
    assert sa_nde(records, g, f, x_weighting="marginal") == pytest.approx(marginal, abs=1e-12)


# -- bootstrap -------------------------------------------------------------------


def test_bootstrap_same_seed_identical_intervals():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 2000, seed=41)
    a = bootstrap_effects(result.records, "hedging", 100, seed=5, domains=result.domains)
    b = bootstrap_effects(result.records, "hedging", 100, seed=5, domains=result.domains)
    assert a == b
    c = bootstrap_effects(result.records, "hedging", 100, seed=6, domains=result.domains)
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
    est = bootstrap_effects(records, "hedging", 100, seed=3)
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
    with pytest.raises(NumericalError, match="dropped"):
        bootstrap_effects(records, "hedging", 100, seed=1)


def test_bootstrap_zero_replicates_disables_intervals():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 1000, seed=4)
    est = bootstrap_effects(result.records, "hedging", 0, seed=0, domains=result.domains)
    assert est.n_bootstrap == 0
    assert est.nde_ci == (est.nde, est.nde)


def test_bootstrap_rejects_small_positive_b():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 500, seed=4)
    with pytest.raises(ConfigError):
        bootstrap_effects(result.records, "hedging", 50, seed=0, domains=result.domains)


def test_bootstrap_interval_contains_point_estimate():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 3000, seed=77)
    est = bootstrap_effects(result.records, "hedging", 100, seed=2, domains=result.domains)
    assert est.nde_ci[0] <= est.nde <= est.nde_ci[1]
    assert est.nie_ci[0] <= est.nie <= est.nie_ci[1]
    est.validate()


# -- estimate_all -----------------------------------------------------------------


def test_estimate_all_singleton():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 1500, seed=12)
    out = estimate_all(result.records, ["hedging"],
                       EstimatorConfig(n_bootstrap=100, seed=1, domains=result.domains))
    assert len(out) == 1
    assert out[0].mediator_name == "hedging"


def test_estimate_all_per_mediator_is_independent_of_the_set():
    spec = scm.load_fixture("two_mediator_scm")
    result = scm.generate(spec, 2500, seed=13)
    config = EstimatorConfig(n_bootstrap=100, seed=21, domains=result.domains)
    both = estimate_all(result.records, ["hedging", "disfluency"], config)
    alone = estimate_all(result.records, ["hedging"], config)
    assert both[0] == alone[0]  # bit-identical
    assert {e.mediator_name for e in both} == {"hedging", "disfluency"}


def test_estimate_all_unknown_mediator_errors():
    spec = scm.load_fixture("binary_scm")
    result = scm.generate(spec, 500, seed=2)
    with pytest.raises(Exception, match="unknown mediators"):
        estimate_all(result.records, ["topic"], EstimatorConfig(domains=result.domains))


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


def _sequential_draws(coded, name, n_bootstrap, seed, x_weighting):
    """Reference: each replicate's resample refitted on its own, row by row."""
    widths = [len(levels) for _, levels in coded.domains.confounders]
    n_levels = coded.domains.mediator_sizes[name]

    def present(rows):
        parts = [np.bincount(coded.t[rows], minlength=2),
                 np.bincount(coded.m[name][rows], minlength=n_levels)]
        for j, pos in enumerate(np.unravel_index(coded.x[rows], widths)):
            parts.append(np.bincount(pos, minlength=widths[j]))
        return np.concatenate(parts) > 0

    base = present(np.arange(coded.n_records))
    fold_rows = [np.nonzero(coded.fold == f)[0] for f in range(coded.n_folds)]
    draws = np.full((n_bootstrap, 2), np.nan)
    for r in range(n_bootstrap):
        rng = np.random.default_rng(derive_seed(seed, f"replicate:{r}"))
        idx = np.concatenate([fr[rng.integers(0, fr.size, size=fr.size)] for fr in fold_rows])
        if (base & ~present(idx)).any():
            continue
        try:
            g = fit_mediator_model(coded, name, rows=idx)
            f = fit_outcome_model(coded, name, rows=idx)
        except NumericalError:
            continue
        draws[r] = _models_effects(coded, g, f, idx, x_weighting)[:2]
    return draws


def _six_level_records(n=1200, seed=31):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, n)
    t = rng.integers(0, 2, n)
    m = np.minimum(rng.integers(0, 5, n) + t * rng.integers(0, 2, n), 5)
    y = (rng.random(n) < 0.3 + 0.08 * m * t / 5 + 0.1 * (x == 2)).astype(int)
    records = records_from_arrays(t=t, x0=x, m=m, y=y, fold=np.arange(n) % 2)
    return encode_records(records, simple_domains(3, (("hedging", 6),)))


def _sparse_level_records():
    rng = np.random.default_rng(8)
    n = 80
    x = np.zeros(n, dtype=int)
    x[0] = 1
    records = records_from_arrays(t=rng.integers(0, 2, n), x0=x, m=rng.integers(0, 2, n),
                                  y=rng.integers(0, 2, n), fold=rng.integers(0, 2, n))
    return encode_records(records, simple_domains(2))


def _binary_scm_records(n=1500, seed=41):
    result = scm.generate(scm.load_fixture("binary_scm"), n, seed=seed)
    return encode_records(result.records, result.domains)


@pytest.mark.parametrize(
    "make_coded, x_weighting",
    [
        (_binary_scm_records, "unit"),
        (_binary_scm_records, "marginal"),
        (_six_level_records, "unit"),
        (_six_level_records, "marginal"),
        (_sparse_level_records, "unit"),
    ],
    ids=["binary_scm", "binary_scm-marginal", "six_levels", "six_levels-marginal",
         "collapsing"],
)
def test_batched_bootstrap_matches_sequential_refits(make_coded, x_weighting):
    coded = make_coded()
    batched = _bootstrap_draws(coded, "hedging", 100, 17, x_weighting)
    reference = _sequential_draws(coded, "hedging", 100, 17, x_weighting)
    assert np.array_equal(np.isnan(batched), np.isnan(reference))
    kept = ~np.isnan(reference[:, 0])
    assert kept.any()
    assert np.abs(batched[kept] - reference[kept]).max() <= 1e-12


def test_collapsed_replicates_are_dropped_and_counted():
    coded = _sparse_level_records()
    draws = _bootstrap_draws(coded, "hedging", 100, 1, "unit")
    n_nan = int(np.isnan(draws[:, 0]).sum())
    assert 0 < n_nan < 100
    est = bootstrap_effects(coded, "hedging", 100, seed=1, max_dropped_fraction=1.0)
    assert est.n_dropped_replicates == n_nan


def test_replicate_draws_depend_only_on_their_own_seed():
    coded = _binary_scm_records()
    long_run = _bootstrap_draws(coded, "hedging", 200, 23, "unit")
    short_run = _bootstrap_draws(coded, "hedging", 100, 23, "unit")
    assert np.array_equal(long_run[:100], short_run)


def test_one_failed_member_drops_exactly_its_replicate(monkeypatch):
    coded = _binary_scm_records()
    clean = _bootstrap_draws(coded, "hedging", 100, 29, "unit")
    assert not np.isnan(clean).any()
    real_batch = glm.fit_categorical_glm_batch

    def fail_member_three(design, counts, *args, **kwargs):
        fit = real_batch(design, counts, *args, **kwargs)
        if counts.shape[0] > coded.n_folds:  # a bootstrap batch, not a point fit
            fit[4][3] = glm.NOT_CONVERGED  # replicate 1, fold 1
        return fit

    monkeypatch.setattr(glm, "fit_categorical_glm_batch", fail_member_three)
    draws = _bootstrap_draws(coded, "hedging", 100, 29, "unit")
    assert np.isnan(draws[1]).all()
    others = np.arange(100) != 1
    assert np.array_equal(draws[others], clean[others])
    assert bootstrap_effects(coded, "hedging", 100, seed=29).n_dropped_replicates == 1


def test_clamped_intervals_are_counted(monkeypatch):
    coded = _binary_scm_records()
    est = bootstrap_effects(coded, "hedging", 100, seed=2)
    assert est.n_clamped_intervals == 0
    # every replicate far above both point estimates: both intervals are widened
    monkeypatch.setattr(
        mediation, "_bootstrap_draws", lambda coded, name, b, seed, xw: np.full((b, 2), 0.9)
    )
    est = bootstrap_effects(coded, "hedging", 100, seed=2)
    assert est.n_clamped_intervals == 2
    assert est.nde_ci == (est.nde, 0.9) and est.nie_ci == (est.nie, 0.9)
    assert est.to_dict()["n_clamped_intervals"] == 2
    assert EffectEstimate.from_dict(json.loads(est.to_json())) == est


def test_from_dict_rejects_missing_keys_and_bad_values():
    est = bootstrap_effects(_binary_scm_records(), "hedging", 0, seed=0)
    obj = est.to_dict()
    del obj["nde"]
    with pytest.raises(DataError, match="nde"):
        EffectEstimate.from_dict(obj)
    with pytest.raises(DataError):
        EffectEstimate.from_dict({**est.to_dict(), "nie_ci": 0.5})
    with pytest.raises(DataError):
        EffectEstimate.from_dict([1, 2])
