import io
import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, softmax, xlogy

from conftest import records_from_arrays
from medlang import glm
from medlang.arrays import reduce_in_order
from medlang.errors import ConfigError, DataError, NumericalError
from medlang.glm import (
    CONVERGED,
    BatchFit,
    FAILED_STEP,
    NOT_CONVERGED,
    encode_records,
    fit_categorical_glm,
    fit_categorical_glm_batch,
    fit_mediator_model,
    fit_outcome_model,
    infer_domains,
    write_mediator_table_csv,
    write_outcome_table_csv,
)
from medlang.measure import Domains
from medlang.mediation import bootstrap_effects, fit_models
from medlang.seeding import assign_folds


# -- cross-fit fold assignment -------------------------------------------------


def test_assign_folds_balance_four_ids():
    folds = assign_folds(["a", "b", "c", "d"], 2, seed=0)
    sizes = sorted(Counter(folds.tolist()).values())
    assert sizes == [2, 2]


def test_assign_folds_balance_five_ids():
    folds = assign_folds(["a", "b", "c", "d", "e"], 2, seed=0)
    sizes = sorted(Counter(folds.tolist()).values())
    assert sizes == [2, 3]


def test_assign_folds_determinism_and_partition():
    ids = [f"u{i}" for i in range(20)]
    a = assign_folds(ids, 4, seed=9)
    assert a.dtype == np.int64 and a.shape == (20,)
    assert np.array_equal(assign_folds(ids, 4, seed=9), a)
    for order in (np.arange(20)[::-1], np.random.default_rng(0).permutation(20)):
        # a permuted input gives the permuted folds
        assert np.array_equal(assign_folds([ids[i] for i in order], 4, seed=9), a[order])
    assert set(a.tolist()) == set(range(4))


def _assign_folds_reference(unit_ids, n_folds, seed):
    """The dict rule assign_folds replaced: the pos-th id of a seeded shuffle of the sorted ids."""
    ids = sorted(set(unit_ids))
    order = np.random.default_rng(seed).permutation(len(ids))
    return {ids[j]: int(pos % n_folds) for pos, j in enumerate(order)}


@settings(max_examples=300, deadline=None)
@given(
    # NULs, non-ASCII and astral characters, and ids that are prefixes of others
    unit_ids=st.lists(st.text(alphabet="ab\x00\xe9\U0001f600", max_size=4), min_size=5,
                      max_size=60, unique=True),
    n_folds=st.integers(2, 5),
    seed=st.integers(0, 2**64 - 1),
)
def test_assign_folds_equals_the_dict_rule(unit_ids, n_folds, seed):
    want = _assign_folds_reference(unit_ids, n_folds, seed)
    assert assign_folds(unit_ids, n_folds, seed).tolist() == [want[u] for u in unit_ids]


def test_assign_folds_rejects_repeated_ids():
    with pytest.raises(ConfigError, match="unique"):
        assign_folds(["a", "b", "a"], 2, seed=0)


def test_assign_folds_too_few_units():
    with pytest.raises(ConfigError, match="too few"):
        assign_folds(["a", "b"], 3, seed=0)
    with pytest.raises(ConfigError):
        assign_folds(["a", "b"], 1, seed=0)


# -- synthetic generators (independent of the scm module) ---------------------


def gen_mediator_independent_of_t(n, seed):
    """M depends on X only; T depends on X. Known law: M独立 of T given X."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n)
    t = (rng.random(n) < expit(-0.3 + 0.8 * x)).astype(int)
    m = (rng.random(n) < expit(-0.5 + 1.0 * x)).astype(int)
    y = (rng.random(n) < 0.4).astype(int)
    fold = np.arange(n) % 2
    return records_from_arrays(t, x, m, y, fold)


def gen_logistic_outcome(n, seed, b0=-1.6, bm=1.1, bt=0.8, bx=0.6, btm=0.0):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=n)
    t = rng.integers(0, 2, size=n)
    m = (rng.random(n) < expit(-0.9 + 0.6 * t + 0.5 * x)).astype(int)
    logit = b0 + bm * m + bt * t + bx * x + btm * t * m
    y = (rng.random(n) < expit(logit)).astype(int)
    fold = np.arange(n) % 2
    return records_from_arrays(t, x, m, y, fold), (b0, bm, bt, bx, btm)


# -- mediator model -----------------------------------------------------------


def test_mediator_independent_of_treatment_has_flat_tables():
    records = gen_mediator_independent_of_t(20000, seed=21)
    model = fit_mediator_model(records)
    assert model.table.shape[0] == 2
    diff = np.abs(model.table[:, 1, :, :] - model.table[:, 0, :, :])
    assert diff.max() <= 0.02


def test_mediator_balanced_toy_is_half_everywhere():
    rng = np.random.default_rng(5)
    n = 4000
    x = rng.integers(0, 2, size=n)
    t = rng.integers(0, 2, size=n)
    m = rng.integers(0, 2, size=n)  # exactly independent fair coin
    y = np.zeros(n, dtype=int)
    records = records_from_arrays(t, x, m, y, np.arange(n) % 2)
    model = fit_mediator_model(records)
    assert np.abs(model.table - 0.5).max() <= 0.05
    # with the construction symmetric by design, tighten on the average
    assert abs(model.table.mean() - 0.5) <= 0.01


def test_single_class_mediator_degenerates_to_one():
    n = 40
    records = records_from_arrays(
        t=np.arange(n) % 2,
        x0=np.zeros(n, dtype=int),
        m=np.ones(n, dtype=int),
        y=np.zeros(n, dtype=int),
        fold=(np.arange(n) // 2) % 2,  # both t arms in every training fold
        domains=Domains((("x0", ("0",)),), (("hedging", 2),)),
    )
    model = fit_mediator_model(records, "hedging")
    assert model.table[:, :, :, 1].min() >= 0.99
    assert model.table[:, :, :, 1].max() <= 1.0


def test_mediator_table_rows_normalized():
    records = gen_mediator_independent_of_t(3000, seed=2)
    model = fit_mediator_model(records)
    assert np.allclose(model.table.sum(axis=3), 1.0, atol=1e-9)
    assert model.table.min() >= 0.0 and model.table.max() <= 1.0


def test_permutation_invariance_is_exact():
    records = gen_mediator_independent_of_t(2000, seed=13)
    rng = np.random.default_rng(99)
    rows = list(records)
    shuffled = encode_records([rows[i] for i in rng.permutation(len(rows))], records.domains)
    a = fit_mediator_model(records)
    b = fit_mediator_model(shuffled)
    assert np.array_equal(a.table, b.table)
    ra, _ = gen_logistic_outcome(2000, seed=14)
    rows = list(ra)
    rb = encode_records([rows[i] for i in rng.permutation(len(rows))], ra.domains)
    fa = fit_outcome_model(ra, "hedging")
    fb = fit_outcome_model(rb, "hedging")
    assert np.array_equal(fa.table, fb.table)


# -- outcome model ------------------------------------------------------------


def test_outcome_independent_of_treatment_is_flat():
    rng = np.random.default_rng(31)
    n = 20000
    x = rng.integers(0, 2, size=n)
    t = rng.integers(0, 2, size=n)
    m = (rng.random(n) < expit(0.3 * t + 0.5 * x)).astype(int)
    y = (rng.random(n) < expit(-0.4 + 0.8 * m + 0.6 * x)).astype(int)  # no t
    records = records_from_arrays(t, x, m, y, np.arange(n) % 2)
    model = fit_outcome_model(records, "hedging")
    diff = np.abs(model.table[:, :, 1, :] - model.table[:, :, 0, :])
    assert diff.max() <= 0.02


def test_constant_outcome_fits_to_one():
    n = 64
    records = records_from_arrays(
        t=np.arange(n) % 2,
        x0=(np.arange(n) // 2) % 2,
        m=(np.arange(n) // 4) % 2,
        y=np.ones(n, dtype=int),
        fold=(np.arange(n) // 8) % 2,  # every (m, t, x) cell lands in both folds
    )
    model = fit_outcome_model(records, "hedging")
    assert model.table.min() >= 0.99
    assert model.table.max() <= 1.0


def test_logistic_recovery_matches_closed_form():
    # fold-averaged tables use every record; the per-fold halves alone are
    # noisier than the 0.01 contract
    records, (b0, bm, bt, bx, btm) = gen_logistic_outcome(50000, seed=68, btm=-0.5)
    avg = fit_outcome_model(records, "hedging").table.mean(axis=0)
    for m in (0, 1):
        for t in (0, 1):
            for ix in (0, 1):
                truth = expit(b0 + bm * m + bt * t + bx * ix + btm * t * m)
                assert abs(avg[m, t, ix] - truth) <= 0.01


def test_zero_interaction_shrinks_fitted_interaction():
    records, (b0, bm, bt, bx, _) = gen_logistic_outcome(50000, seed=1068, btm=0.0)
    avg = fit_outcome_model(records, "hedging").table.mean(axis=0)
    # difference-in-differences of fitted cell means vs the true one
    truth_cell = lambda m, t, ix: expit(b0 + bm * m + bt * t + bx * ix)
    for ix in (0, 1):
        truth_did = (truth_cell(1, 1, ix) - truth_cell(0, 1, ix)) - (
            truth_cell(1, 0, ix) - truth_cell(0, 0, ix)
        )
        fitted_did = (avg[1, 1, ix] - avg[0, 1, ix]) - (avg[1, 0, ix] - avg[0, 0, ix])
        assert abs(fitted_did - truth_did) <= 0.01


# -- smoothing of empty cells ---------------------------------------------------


def test_empty_cells_are_smoothed_and_logged():
    # no records with (t=1, x=1): that grid cell is unobserved in training
    t = np.array([0, 0, 1, 1, 0, 0, 1, 1] * 10)
    x = np.array([0, 1, 0, 0, 0, 1, 0, 0] * 10)
    m = np.array([0, 1, 1, 0, 1, 0, 0, 1] * 10)
    y = np.array([0, 1, 0, 1, 1, 0, 1, 0] * 10)
    records = records_from_arrays(t, x, m, y, np.arange(80) % 2)
    g = fit_mediator_model(records)
    f = fit_outcome_model(records, "hedging")
    n_x = 2
    for fold in range(2):
        assert np.allclose(g.table[fold, 1, 1, :], 0.5)  # uniform default
        assert any(cell == (1, {"x0": "1"}) for cell in g.diagnostics[fold].smoothed_cells)
        assert np.allclose(f.table[fold, :, 1, 1], 0.5)
        assert len(f.diagnostics[fold].smoothed_cells) >= 2


# -- core solver ----------------------------------------------------------------


def test_categorical_glm_multinomial_three_levels():
    rng = np.random.default_rng(8)
    n = 30000
    x = rng.integers(0, 2, size=n)
    t = rng.integers(0, 2, size=n)
    s1 = -0.4 + 0.7 * t + 0.5 * x
    s2 = 0.2 - 0.6 * t + 0.3 * x
    p = np.stack([np.ones(n), np.exp(s1), np.exp(s2)], axis=1)
    p /= p.sum(axis=1, keepdims=True)
    u = rng.random(n)
    m = (u[:, None] >= p.cumsum(axis=1)).sum(axis=1)
    domains = Domains((("x0", ("0", "1")),), (("hedging", 3),))
    records = records_from_arrays(t, x, m, np.zeros(n, dtype=int), np.arange(n) % 2,
                                  domains=domains)
    model = fit_mediator_model(records, "hedging")
    avg = model.table.mean(axis=0)
    for tt in (0, 1):
        for ix in (0, 1):
            scores = np.array([0.0, -0.4 + 0.7 * tt + 0.5 * ix, 0.2 - 0.6 * tt + 0.3 * ix])
            truth = np.exp(scores) / np.exp(scores).sum()
            assert np.abs(avg[tt, ix] - truth).max() <= 0.015


def test_categorical_glm_rejects_single_level():
    with pytest.raises(ConfigError):
        fit_categorical_glm(np.ones((2, 1)), np.ones((2, 1)))


def test_fit_errors_on_unknown_mediator():
    records = gen_mediator_independent_of_t(100, seed=0)
    with pytest.raises(DataError, match="unknown mediator"):
        fit_mediator_model(records, "topic")


def test_refolded_records_fit_over_their_new_folds():
    records = gen_mediator_independent_of_t(100, seed=0)
    assert records.n_folds == 2
    refolded = replace(records, fold=assign_folds(records.unit_ids, 4, seed=3))
    model = fit_mediator_model(refolded, "hedging")
    assert model.table.shape[0] == 4


# -- diagnostics and export -------------------------------------------------------


def test_diagnostics_carry_loglik_and_iterations():
    records = gen_mediator_independent_of_t(500, seed=4)
    model = fit_mediator_model(records)
    for diag in model.diagnostics:
        assert diag.log_likelihood < 0
        assert 1 <= diag.n_iterations <= 100


def test_csv_export_shape_and_values():
    records = gen_mediator_independent_of_t(500, seed=4)
    g = fit_mediator_model(records)
    f = fit_outcome_model(records, "hedging")
    buf = io.StringIO()
    write_mediator_table_csv([g], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "fold,mediator,m,t,x0,value"
    assert len(lines) == 1 + 2 * 2 * 2 * 2  # folds * levels * t * x
    fold, mediator, m, t, x0, value = lines[1].split(",")
    assert mediator == "hedging"
    assert abs(float(value) - g.table[int(fold), int(t), int(x0), int(m)]) < 1e-15
    buf = io.StringIO()
    write_outcome_table_csv([f], buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2 * 2


def test_multi_confounder_grid_round_trip():
    from medlang.measure import CausalRecord

    rng = np.random.default_rng(3)
    domains = Domains(
        confounders=(("x0", ("0", "1")), ("x1", ("a", "b", "c"))),
        mediators=(("hedging", 2),),
    )
    records = [
        CausalRecord(
            unit_id=f"u{i}",
            t=int(rng.integers(0, 2)),
            x={"x0": str(rng.integers(0, 2)), "x1": "abc"[rng.integers(0, 3)]},
            m={"hedging": int(rng.integers(0, 2))},
            y=int(rng.integers(0, 2)),
            fold=i % 2,
        )
        for i in range(3000)
    ]
    coded = encode_records(records, domains)
    for i in (0, 17, 2999):
        assert domains.x_assignment(int(coded.x[i])) == dict(records[i].x)
    model = fit_mediator_model(coded)
    assert model.table.shape == (2, 2, 6, 2)
    model.validate()
    out = fit_outcome_model(coded)
    assert out.table.shape == (2, 2, 2, 6)
    out.validate()


def test_infer_domains_consistency_checks():
    records = list(gen_mediator_independent_of_t(50, seed=1))
    domains = infer_domains({"x0": [r.x["x0"] for r in records]},
                            {"hedging": [r.m["hedging"] for r in records]})
    assert domains.confounder_names == ("x0",)
    assert domains.mediator_sizes == {"hedging": 2}
    coded = encode_records(records, domains)
    assert len(coded) == 50
    assert coded.n_folds == 2


def test_smoothed_cells_log_one_info_event_per_point_fit_fold(caplog):
    t = np.array([0, 0, 1, 1, 0, 0, 1, 1] * 10)
    x = np.array([0, 1, 0, 0, 0, 1, 0, 0] * 10)
    m = np.array([0, 1, 1, 0, 1, 0, 0, 1] * 10)
    y = np.array([0, 1, 0, 1, 1, 0, 1, 0] * 10)
    records = records_from_arrays(t, x, m, y, np.arange(80) % 2)
    with caplog.at_level(logging.INFO, logger="medlang"):
        g = fit_mediator_model(records)
        f = fit_outcome_model(records, "hedging")
    events = [r for r in caplog.records if r.name == "medlang" and r.levelno == logging.INFO]
    assert len(events) == 4  # two models x two folds, each with empty cells
    for model, fold, record in zip(("mediator", "mediator", "outcome", "outcome"),
                                   (0, 1, 0, 1), events):
        fitted = g if model == "mediator" else f
        n_cells = len(fitted.diagnostics[fold].smoothed_cells)
        assert record.getMessage() == (
            f"{model} model for 'hedging', fold {fold}: "
            f"{n_cells} empty cells filled with the default"
        )

    # the point fits log per fold; the bootstrap logs one event, never one per replicate
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="medlang"):
        bootstrap_effects(records, *fit_models(records, "hedging"), 100, seed=0)
    events = [r.getMessage() for r in caplog.records if r.name == "medlang"]
    assert len(events) == 5
    assert events[4].startswith("bootstrap for 'hedging': 100 replicates, ")


def test_batch_fit_members_match_solo_fits_and_fail_alone(monkeypatch):
    design = np.array([[1.0, 0.0], [1.0, 1.0]])
    good_a = np.array([[30.0, 10.0], [12.0, 25.0]])
    good_b = np.array([[5.0, 40.0], [22.0, 19.0]])
    # with no ridge, a member without counts has a zero Hessian
    monkeypatch.setattr(glm, "RIDGE", 0.0)
    counts = np.stack([good_a, np.zeros((2, 2)), good_b])
    probs, coef, iterations, loglik, status, _ = fit_categorical_glm_batch(design, counts)
    assert list(status) == [CONVERGED, FAILED_STEP, CONVERGED]
    assert iterations[1] == 1
    for member, solo_counts in ((0, good_a), (2, good_b)):
        solo = fit_categorical_glm(design, solo_counts)
        assert np.array_equal(probs[member], solo[0])
        assert np.array_equal(coef[member], solo[1])
        assert iterations[member] == solo[2]
        assert loglik[member] == solo[3]
    with pytest.raises(NumericalError, match="step failed"):
        fit_categorical_glm(design, np.zeros((2, 2)))


def test_batch_fit_marks_only_the_unconverged_member(monkeypatch):
    design = np.array([[1.0, 0.0], [1.0, 1.0]])
    balanced = np.array([[20.0, 20.0], [15.0, 15.0]])  # the MLE is the start point
    skewed = np.array([[30.0, 2.0], [3.0, 40.0]])
    monkeypatch.setattr(glm, "MAX_ITERATIONS", 2)
    _, _, iterations, _, status, _ = fit_categorical_glm_batch(
        design, np.stack([balanced, skewed])
    )
    assert list(status) == [CONVERGED, NOT_CONVERGED]
    assert list(iterations) == [1, 2]
    with pytest.raises(NumericalError, match="did not converge"):
        fit_categorical_glm(design, skewed)


def test_batch_fit_slices_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(4)
    design = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    counts = rng.integers(0, 30, size=(7, 4, 3)).astype(float)
    start = rng.normal(0.0, 0.5, size=(7, 2, 3))
    whole = fit_categorical_glm_batch(design, counts)
    warm = fit_categorical_glm_batch(design, counts, start=start)
    monkeypatch.setattr(glm, "BATCH_BYTES", 1)  # one member per slice
    sliced = fit_categorical_glm_batch(design, counts)
    warm_sliced = fit_categorical_glm_batch(design, counts, start=start)
    for a, b in zip(whole + warm, sliced + warm_sliced):
        assert np.array_equal(a, b)
    assert not np.array_equal(whole.iterations, warm.iterations)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(2, 8),
    columns=st.integers(1, 4),
    n_levels=st.integers(2, 9),
    members=st.integers(1, 12),
    warm=st.booleans(),
    ridge=st.sampled_from([0.0, glm.RIDGE]),
    max_iterations=st.sampled_from([1, 2, 3, 4, 5, 6, glm.MAX_ITERATIONS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_members_equal_their_solo_fits_bit_for_bit(
    rows, columns, n_levels, members, warm, ridge, max_iterations, seed
):
    rng = np.random.default_rng(seed)
    design = rng.integers(0, 2, size=(rows, columns)).astype(float)
    design[:, 0] = 1.0
    counts = rng.integers(0, 30, size=(members, rows, n_levels)).astype(float)
    zero = rng.random(members) < 0.25
    counts[zero] = 0.0
    start = rng.normal(0.0, 0.5, size=(members, n_levels - 1, columns)) if warm else None
    # without a ridge a separated member's coefficients may diverge and its probabilities
    # reach 0 where it has counts
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(glm, "RIDGE", ridge)
        patch.setattr(glm, "MAX_ITERATIONS", max_iterations)
        stacked = fit_categorical_glm_batch(design, counts, start)
        for member in range(members):
            one = slice(member, member + 1)
            solo = fit_categorical_glm_batch(design, counts[one], start[one] if warm else None)
            for name, a, b in zip(BatchFit._fields, stacked, solo):
                assert a[member].tobytes() == b[0].tobytes(), (member, name)
    if ridge == 0.0:
        # with no ridge, a member without counts has a zero Hessian
        assert (stacked.status[zero] == FAILED_STEP).all()
        assert (stacked.iterations[zero] == 1).all()
    assert (stacked.iterations <= max_iterations).all()
    assert (stacked.iterations[stacked.status == NOT_CONVERGED] == max_iterations).all()


def _level_order_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with the max and the sum taken level by level."""
    top = scores[..., 0]
    for j in range(1, scores.shape[-1]):
        top = np.maximum(top, scores[..., j])
    e = np.exp(scores - top[..., None])
    total = e[..., 0]
    for j in range(1, scores.shape[-1]):
        total = total + e[..., j]
    return e / total[..., None]


def test_glm_probs_equal_the_level_order_softmax_bit_for_bit():
    rng = np.random.default_rng(9)
    for k in range(2, 11):
        for members, rows, d, scale in ((1, 4, 3, 1.0), (6, 12, 4, 5.0), (3, 8, 2, 400.0)):
            design = rng.integers(0, 2, size=(rows, d)).astype(float)
            design[:, 0] = 1.0
            coef = rng.normal(0.0, scale, size=(members, k - 1, d))
            scores = design @ np.swapaxes(coef, 1, 2)
            scores = np.concatenate([np.zeros((members, rows, 1)), scores], axis=2)
            probs = glm._glm_probs(design, coef)
            assert probs.tobytes() == _level_order_softmax(scores).tobytes(), k
            # np.sum adds fewer than 8 levels in level order too
            if k <= 7:
                assert probs.tobytes() == softmax(scores, axis=2).tobytes(), k


def test_reduce_in_order_adds_slices_in_order():
    rng = np.random.default_rng(0)
    for n in range(1, 301):
        # magnitudes spread over 16 decades, so another order gives another sum
        rows = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-8, 8, size=(n, 4))
        want = np.cumsum(rows, axis=0)[-1].tobytes()
        assert reduce_in_order(np.add, rows, 0).tobytes() == want, n
        assert reduce_in_order(np.add, rows.T).tobytes() == want, n
    cells = rng.integers(0, 9, size=(3, 2, 4, 2, 5, 2))
    assert np.array_equal(reduce_in_order(np.add, cells, (1, 5)), cells.sum(axis=(1, 5)))
    assert np.array_equal(reduce_in_order(np.add, cells, ()), cells)
    with_nan = np.array([[1.0, np.nan, 2.0], [np.inf, 0.0, 1.0], [0.5, 3.0, 2.0]])
    assert np.array_equal(reduce_in_order(np.maximum, with_nan), [np.nan, np.inf, 3.0],
                          equal_nan=True)


def test_loglik_is_finite_where_a_zero_count_meets_a_zero_probability(monkeypatch):
    design = np.array([[1.0, 0.0], [1.0, 1.0]])
    counts = np.array([[[3.0, 0.0], [2.0, 5.0]], [[0.0, 4.0], [0.0, 0.0]]])
    probs = np.array([[[1.0, 0.0], [0.25, 0.75]], [[0.0, 1.0], [0.5, 0.5]]])
    # with no iterations the coefficients stay 0 and the loglik reads these probabilities
    monkeypatch.setattr(glm, "_glm_probs", lambda design, coef: probs)
    monkeypatch.setattr(glm, "MAX_ITERATIONS", 0)
    loglik = fit_categorical_glm_batch(design, counts).loglik
    assert np.isfinite(loglik).all()
    assert np.array_equal(loglik, xlogy(counts, probs).sum(axis=(1, 2)))


# -- one stacked fit and one validity rule ---------------------------------------------


def test_stacked_table_fits_equal_the_point_fits_bit_for_bit():
    a, _ = gen_logistic_outcome(3000, seed=71)
    b, _ = gen_logistic_outcome(3000, seed=72)
    assert a.domains == b.domains
    train_a = glm._training_counts(a, "hedging")
    train_b = glm._training_counts(b, "hedging")
    stack = np.stack([train_a, train_b, train_a])  # (replicate, fold, m, t, x, y)
    for fit_tables, fit_model in ((glm.fit_mediator_tables, fit_mediator_model),
                                  (glm.fit_outcome_tables, fit_outcome_model)):
        tables, fit, empty = fit_tables(a.domains, stack)
        assert fit.status.shape == empty.shape[:2] == (3, 2)
        for member, records in enumerate((a, b, a)):
            point = fit_model(records, "hedging")
            assert np.array_equal(tables[member], point.table)
            assert np.array_equal(fit.coef[member], [d.coefficients for d in point.diagnostics])


def test_restart_on_the_point_counts_repeats_the_point_fit_in_one_step():
    coded, _ = gen_logistic_outcome(3000, seed=71)
    train = glm._training_counts(coded, "hedging")
    stack = np.stack([train, train])  # (replicate, fold, m, t, x, y)
    for fit_tables, fit_model in ((glm.fit_mediator_tables, fit_mediator_model),
                                  (glm.fit_outcome_tables, fit_outcome_model)):
        point = fit_model(coded, "hedging")
        assert all(d.n_iterations > 1 for d in point.diagnostics)
        start = np.stack([d.restart for d in point.diagnostics])
        tables, fit, _ = fit_tables(coded.domains, stack, start)
        assert (fit.iterations == 1).all() and (fit.status == CONVERGED).all()
        for member in range(2):
            assert np.array_equal(tables[member], point.table)
            assert np.array_equal(fit.coef[member], [d.coefficients for d in point.diagnostics])
            assert np.array_equal(fit.restart[member], start)


def test_designs_match_the_cell_by_cell_layout():
    domains = Domains(confounders=(("x0", ("0", "1")), ("x1", ("a", "b", "c"))),
                      mediators=(("hedging", 3),))

    def x_dummies(ix):
        x0, x1 = divmod(ix, 3)
        return [float(x0 == 1), float(x1 == 1), float(x1 == 2)]

    def m_dummies(m):
        return [float(m == 1), float(m == 2)]

    mediator_rows = [[1.0, t] + x_dummies(ix) for t in (0.0, 1.0) for ix in range(6)]
    outcome_rows = [
        [1.0] + m_dummies(m) + [t] + x_dummies(ix) + [t * v for v in m_dummies(m)]
        for m in range(3) for t in (0.0, 1.0) for ix in range(6)
    ]
    assert np.array_equal(glm._mediator_design(domains), mediator_rows)
    assert np.array_equal(glm._outcome_design(domains, 3), outcome_rows)
    # a run with "confounders": [] fits over a one-cell x grid
    no_x = Domains(confounders=(), mediators=(("hedging", 2),))
    assert np.array_equal(glm._mediator_design(no_x), [[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(glm._outcome_design(no_x, 2),
                          [[1, 0, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]])


def test_validity_masks_flag_exactly_the_broken_members():
    records, _ = gen_logistic_outcome(2000, seed=73)
    g = fit_mediator_model(records, "hedging")  # (fold, t, x, m)
    f = fit_outcome_model(records, "hedging")  # (fold, m, t, x)
    g_stack = np.stack([g.table] * 4)
    g_stack[1, 1, 0, 0, 0] = np.nan
    g_stack[2, 1, 0, 0] = [-0.1, 1.1]  # sums to 1 but leaves [0, 1]
    g_stack[3, 1, 0, 0] *= 0.9  # in range but sums to 0.9
    f_stack = np.stack([f.table] * 4)
    f_stack[1, 1, 0, 0, 0] = np.nan
    f_stack[2, 1, 0, 0, 0] = 1.5
    f_stack[3, 1, 0, 0, 0] = -0.5
    want = np.ones((4, 2), dtype=bool)
    want[1:, 1] = False
    assert np.array_equal(glm.valid_mediator_tables(g_stack), want)
    assert np.array_equal(glm.valid_outcome_tables(f_stack), want)
    for member in (1, 2, 3):
        with pytest.raises(NumericalError, match="mediator table for 'hedging', fold 1"):
            replace(g, table=g_stack[member]).validate()
        with pytest.raises(NumericalError, match="outcome table for 'hedging', fold 1"):
            replace(f, table=f_stack[member]).validate()
    replace(g, table=g_stack[0]).validate()
    replace(f, table=f_stack[0]).validate()
