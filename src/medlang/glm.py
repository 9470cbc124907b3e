"""Nuisance models: categorical GLMs materialized as finite lookup tables.

The mediator model is a multinomial logistic regression of the mediator on
treatment and confounder dummies; the outcome model is a logistic
regression of the outcome on mediator dummies, treatment, confounder
dummies, and a treatment-by-mediator interaction. All covariates are
categorical, so fitted values are materialized over the full finite grid,
which keeps the estimator's explicit sums exact and auditable.

Fitting runs on cell-aggregated sufficient statistics (counts are integers,
so results are bit-identical under any record permutation). Grid cells with
no training observations are filled with the Laplace pseudo-count default
(uniform over levels, 0.5 per class) and logged, never silently defaulted.

Every fit goes through one step, fit_mediator_tables/fit_outcome_tables:
a stack of training cell counts (folds, or bootstrap replicates x folds)
is solved in one Newton/IRLS loop over a shared design, empty cells get
the default, and valid_mediator_tables/valid_outcome_tables decide which
members are probability tables. The point fit and every bootstrap
replicate take the same path.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import IO, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.special import softmax, xlogy

from .errors import ConfigError, DataError, NumericalError
# The record set and its builders are defined next to Domains and re-exported here.
from .measure import CodedRecords, Domains, encode_records, infer_domains  # noqa: F401
from .seeding import assign_folds

logger = logging.getLogger("medlang")

MAX_ITERATIONS = 100
CONVERGENCE_TOL = 1e-8
RIDGE = 1e-6

# Per-member outcome of fit_categorical_glm_batch.
CONVERGED, FAILED_STEP, NOT_CONVERGED = 0, 1, 2

# fit_categorical_glm_batch fits members in slices whose Newton systems take
# about this many bytes, so that memory stays bounded when many replicates
# meet a large design (levels x covariates); small designs run in one slice.
BATCH_BYTES = 8 << 20


@dataclass(frozen=True)
class CrossFitPlan:
    """Seeded balanced partition of unit ids into test folds.

    Units in fold f are scored by models trained on every other fold, so
    the assignment is keyed by unit id, never by record position.
    """

    n_folds: int
    fold_of: Mapping[str, int]

    def validate(self) -> None:
        folds = set(self.fold_of.values())
        if folds != set(range(self.n_folds)):
            raise ConfigError(f"plan folds {sorted(folds)} do not cover 0..{self.n_folds - 1}")


def make_plan(unit_ids: Sequence[str], n_folds: int, seed: int) -> CrossFitPlan:
    plan = CrossFitPlan(n_folds=n_folds, fold_of=assign_folds(unit_ids, n_folds, seed))
    plan.validate()
    return plan


@dataclass(frozen=True)
class FoldDiagnostics:
    log_likelihood: float
    n_iterations: int
    smoothed_cells: tuple[tuple, ...]
    coefficients: np.ndarray


def valid_mediator_tables(table: np.ndarray) -> np.ndarray:
    """Which members of a (..., 2, n_x, K) stack are probability tables.

    A member is valid if every cell lies in [0, 1] and every (t, x) row sums
    to 1; NaN fails every comparison, so non-finite cells are invalid too.
    Returns (...) booleans.
    """
    in_range = ((table >= 0) & (table <= 1)).all(axis=(-3, -2, -1))
    return in_range & np.isclose(table.sum(axis=-1), 1.0, atol=1e-9).all(axis=(-2, -1))


def valid_outcome_tables(table: np.ndarray) -> np.ndarray:
    """Which members of a (..., K, 2, n_x) stack have every cell in [0, 1] (NaN is not)."""
    return ((table >= 0) & (table <= 1)).all(axis=(-3, -2, -1))


@dataclass(frozen=True)
class _FittedModel:
    """One nuisance model's per-fold tables; a subclass names its kind and validity rule."""

    mediator_name: str
    domains: Domains
    n_folds: int
    table: np.ndarray
    diagnostics: tuple[FoldDiagnostics, ...]

    def validate(self) -> None:
        bad = np.nonzero(~self.valid_tables(self.table))[0]
        if bad.size:
            raise NumericalError(
                f"{self.kind} table for {self.mediator_name!r}, fold {bad[0]}: "
                "cells are not valid probabilities"
            )


@dataclass(frozen=True)
class FittedMediatorModel(_FittedModel):
    """Per-fold tables P(M = m | T = t, X = x) over the full grid: (n_folds, 2, n_x, K)."""

    kind = "mediator"
    valid_tables = staticmethod(valid_mediator_tables)


@dataclass(frozen=True)
class FittedOutcomeModel(_FittedModel):
    """Per-fold tables E[Y | M = m, T = t, X = x] over the full grid: (n_folds, K, 2, n_x)."""

    kind = "outcome"
    valid_tables = staticmethod(valid_outcome_tables)


# ---------------------------------------------------------------------------
# Weighted categorical GLM on aggregated cells
# ---------------------------------------------------------------------------


class BatchFit(NamedTuple):
    """Per-member results of fit_categorical_glm_batch; see its docstring."""

    probs: np.ndarray
    coef: np.ndarray
    iterations: np.ndarray
    loglik: np.ndarray
    status: np.ndarray


def fit_categorical_glm_batch(
    design: np.ndarray,
    counts: np.ndarray,
    ridge: float = RIDGE,
    max_iterations: int = MAX_ITERATIONS,
    tol: float = CONVERGENCE_TOL,
) -> BatchFit:
    """Newton/IRLS fits of a stack of multinomial logits sharing one design.

    design: (R, d) covariate rows; counts: (B, R, K) observation counts per
    member and response level. Level 0 is the reference. Every member takes
    exactly the Newton steps it would take alone: each iteration solves all
    active members' (p, p) systems in one stacked solve, and a member stops
    stepping once its largest step falls below ``tol``. A ridge term keeps
    the step well defined under separation or collinearity.

    Returns (probs (B, R, K), coefficients (B, K-1, d), iterations (B,),
    penalized log-likelihoods (B,), status (B,)). A member's status is
    CONVERGED, FAILED_STEP (singular or non-finite Newton system; its
    iteration count is the failing iteration) or NOT_CONVERGED; failed
    members keep their last coefficients and never stop the others.
    Members are fitted in slices of at most about BATCH_BYTES of Newton
    systems; a member's result does not depend on the slice it is in.
    """
    n_members, n_rows, n_levels = counts.shape
    if n_levels < 2:
        raise ConfigError("response needs at least two levels")
    d = design.shape[1]
    k = n_levels - 1
    n_params = k * d
    size = max(1, BATCH_BYTES // (8 * (3 * n_params * n_params + n_rows * k * k)))
    if n_members > size:
        parts = [
            fit_categorical_glm_batch(design, counts[i : i + size], ridge, max_iterations, tol)
            for i in range(0, n_members, size)
        ]
        return BatchFit(*(np.concatenate(arrays) for arrays in zip(*parts)))
    totals = counts.sum(axis=2)
    # Row-wise outer products: one matmul turns per-row weights into blocks.
    outer = (design[:, :, None] * design[:, None, :]).reshape(n_rows, d * d)
    ridge_eye = ridge * np.eye(n_params)
    coef = np.zeros((n_members, k, d))
    iterations = np.zeros(n_members, dtype=np.int64)
    status = np.full(n_members, NOT_CONVERGED)
    active = np.arange(n_members)
    for _ in range(max_iterations):
        if active.size == 0:
            break
        c = coef[active]
        probs = _glm_probs(design, c)[:, :, 1:]
        weighted = totals[active][:, :, None] * probs  # (A, R, k)
        grad = np.swapaxes(counts[active, :, 1:] - weighted, 1, 2) @ design - ridge * c
        # w[a, r, i, j] = n_r p_ri (1[i = j] - p_rj), the multinomial information.
        w = weighted[:, :, :, None] * (np.eye(k) - probs[:, :, None, :])
        blocks = np.swapaxes(w.reshape(active.size, n_rows, k * k), 1, 2) @ outer
        hessian = (
            blocks.reshape(active.size, k, k, d, d)
            .transpose(0, 1, 3, 2, 4)
            .reshape(active.size, n_params, n_params)
            + ridge_eye
        )
        step = _stacked_solve(hessian, grad.reshape(active.size, n_params))
        iterations[active] += 1
        failed = ~np.isfinite(step).all(axis=1)
        step[failed] = 0.0
        coef[active] = c + step.reshape(c.shape)
        done = ~failed & (np.abs(step).max(axis=1) < tol)
        status[active[failed]] = FAILED_STEP
        status[active[done]] = CONVERGED
        active = active[~(failed | done)]
    probs = _glm_probs(design, coef)
    loglik = xlogy(counts, probs).sum(axis=(1, 2)) - 0.5 * ridge * (coef ** 2).sum(axis=(1, 2))
    return BatchFit(probs, coef, iterations, loglik, status)


def _glm_probs(design: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Softmax probabilities (B, R, K) for coefficients (B, K-1, d)."""
    scores = design @ np.swapaxes(coef, 1, 2)
    return softmax(np.concatenate([np.zeros(scores.shape[:2] + (1,)), scores], axis=2), axis=2)


def _stacked_solve(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve each member's Newton system; a singular member's step is NaN.

    A stacked solve raises for the whole stack when one member is singular,
    so on failure the members are solved one by one to find the bad ones.
    """
    try:
        return np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = np.full(grad.shape, np.nan)
        for i in range(grad.shape[0]):
            try:
                step[i] = np.linalg.solve(hessian[i], grad[i])
            except np.linalg.LinAlgError:
                pass
        return step


def fit_categorical_glm(
    design: np.ndarray,
    counts: np.ndarray,
    ridge: float = RIDGE,
    max_iterations: int = MAX_ITERATIONS,
    tol: float = CONVERGENCE_TOL,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Newton/IRLS fit of one multinomial logit on aggregated rows.

    design: (R, d) covariate rows; counts: (R, K) observation counts per
    response level. Returns (probs (R, K), coefficients (K-1, d),
    iterations, penalized log-likelihood); a failed fit raises
    NumericalError. This is the one-member case of fit_categorical_glm_batch.
    """
    probs, coef, iterations, loglik, status = fit_categorical_glm_batch(
        design, counts[None], ridge, max_iterations, tol
    )
    _raise_if_failed(status, iterations)
    return probs[0], coef[0], int(iterations[0]), float(loglik[0])


def _raise_if_failed(status: np.ndarray, iterations: np.ndarray, context: str = "") -> None:
    """Raise NumericalError for the first member of a batch fit that failed."""
    failed = np.nonzero(status != CONVERGED)[0]
    if not failed.size:
        return
    i = failed[0]
    where = f"{context}fold {i}: " if context else ""
    if status[i] == FAILED_STEP:
        raise NumericalError(
            f"{where}IRLS step failed at iteration {iterations[i]}: "
            "singular or non-finite Newton system"
        )
    raise NumericalError(f"{where}IRLS did not converge in {iterations[i]} iterations")


def _x_dummy_columns(domains: Domains) -> np.ndarray:
    """Dummy block for the enumerated confounder grid, reference level 0."""
    widths = [len(levels) for _, levels in domains.confounders]
    positions = np.unravel_index(np.arange(domains.n_x), widths) if widths else ()
    return np.hstack([np.zeros((domains.n_x, 0))] + [
        (pos[:, None] == np.arange(1, width)).astype(float)
        for pos, width in zip(positions, widths)
    ])


def _mediator_design(domains: Domains) -> np.ndarray:
    """Rows over cells (t, x) in cell order t * n_x + x: intercept, t, x dummies."""
    t = np.repeat([0.0, 1.0], domains.n_x)[:, None]
    return np.hstack([np.ones_like(t), t, np.tile(_x_dummy_columns(domains), (2, 1))])


def _outcome_design(domains: Domains, n_levels: int) -> np.ndarray:
    """Rows over cells (m, t, x) in cell order (m * 2 + t) * n_x + x.

    Columns: intercept, m dummies, t, x dummies and the treatment-by-mediator
    interaction (without it the direct/indirect decomposition is only additive).
    """
    m, t, x = np.unravel_index(np.arange(n_levels * 2 * domains.n_x), (n_levels, 2, domains.n_x))
    m_dummies = (m[:, None] == np.arange(1, n_levels)).astype(float)
    t = t[:, None].astype(float)
    return np.hstack(
        [np.ones_like(t), m_dummies, t, _x_dummy_columns(domains)[x], t * m_dummies]
    )


def _apply_plan(coded: CodedRecords, plan: CrossFitPlan | None) -> tuple[np.ndarray, int]:
    if plan is None:
        if not len(coded):
            raise DataError("no records to fit")
        n_folds = coded.n_folds
        if n_folds < 2:
            raise ConfigError("records carry fewer than 2 folds and no plan was given")
        return coded.fold, n_folds
    plan.validate()
    try:
        fold = np.asarray([plan.fold_of[uid] for uid in coded.unit_ids], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"unit {exc.args[0]!r} missing from cross-fit plan") from exc
    return fold, plan.n_folds


def _default_mediator(domains: Domains, mediator_name: str | None) -> str:
    sizes = domains.mediator_sizes
    if mediator_name is None:
        if len(sizes) == 1:
            return next(iter(sizes))
        raise DataError(f"records carry mediators {sorted(sizes)}; name the one to fit")
    if mediator_name not in sizes:
        raise DataError(f"unknown mediators {[mediator_name]}; records carry {sorted(sizes)}")
    return mediator_name


def cell_codes(coded: CodedRecords, mediator_name: str, fold: np.ndarray) -> np.ndarray:
    """Per-record flat index into the (fold, m, t, x, y) cell grid."""
    n_levels = coded.domains.mediator_sizes[mediator_name]
    n_x = coded.domains.n_x
    cell = ((fold * n_levels + coded.m[mediator_name]) * 2 + coded.t) * n_x + coded.x
    return cell * 2 + coded.y


def grid_shape(domains: Domains, mediator_name: str, n_folds: int) -> tuple[int, ...]:
    """Shape (n_folds, K, 2, n_x, 2) of the (fold, m, t, x, y) cell grid."""
    return (n_folds, domains.mediator_sizes[mediator_name], 2, domains.n_x, 2)


def _training_counts(
    coded: CodedRecords, mediator_name: str, plan: CrossFitPlan | None
) -> np.ndarray:
    """Training cell counts per fold: every fold's grid minus the fold's own."""
    fold, n_folds = _apply_plan(coded, plan)
    codes = cell_codes(coded, mediator_name, fold)
    shape = grid_shape(coded.domains, mediator_name, n_folds)
    counts = np.bincount(codes, minlength=int(np.prod(shape))).reshape(shape)
    train = counts.sum(axis=0) - counts
    empty = np.nonzero(train.reshape(n_folds, -1).sum(axis=1) == 0)[0]
    if empty.size:
        raise DataError(f"fold {empty[0]}: empty training set")
    return train.astype(float)


def _fit_stack(
    design: np.ndarray, counts: np.ndarray, cells: tuple[int, ...], lead: tuple[int, ...]
) -> tuple[BatchFit, np.ndarray]:
    """Batch-fit (members, rows, levels) counts; shape the results by ``lead``.

    Returns the fit and the mask of rows without counts, shaped lead + cells.
    """
    fit = fit_categorical_glm_batch(design, counts)
    empty = counts.sum(axis=-1) == 0
    return BatchFit(*(a.reshape(lead + a.shape[1:]) for a in fit)), empty.reshape(lead + cells)


def fit_mediator_tables(
    domains: Domains, train: np.ndarray
) -> tuple[np.ndarray, BatchFit, np.ndarray]:
    """Fit P(M | T, X) to every member of a stack of training cell counts.

    train: (..., K, 2, n_x, 2) counts over (m, t, x, y), with any leading
    axes (folds; replicates x folds). Returns the (..., 2, n_x, K) tables,
    the BatchFit with arrays shaped by the leading axes, and the (..., 2, n_x)
    mask of cells without training counts, which get the uniform default.
    """
    lead, n_levels, n_x = train.shape[:-4], train.shape[-4], train.shape[-2]
    counts = np.moveaxis(train.sum(axis=-1), -3, -1).reshape((-1, 2 * n_x, n_levels))
    fit, empty = _fit_stack(_mediator_design(domains), counts, (2, n_x), lead)
    table = fit.probs.reshape(lead + (2, n_x, n_levels))
    return np.where(empty[..., None], 1.0 / n_levels, table), fit, empty


def fit_outcome_tables(
    domains: Domains, train: np.ndarray
) -> tuple[np.ndarray, BatchFit, np.ndarray]:
    """Fit E[Y | M, T, X] to every member of a stack of training cell counts.

    train as for fit_mediator_tables. Returns the (..., K, 2, n_x) tables,
    the BatchFit shaped by the leading axes, and the (..., K, 2, n_x) mask of
    cells without training counts, which get 0.5.
    """
    lead, n_levels, n_x = train.shape[:-4], train.shape[-4], train.shape[-2]
    counts = train.reshape((-1, n_levels * 2 * n_x, 2))
    fit, empty = _fit_stack(_outcome_design(domains, n_levels), counts, (n_levels, 2, n_x), lead)
    table = fit.probs[..., 1].reshape(lead + (n_levels, 2, n_x))
    return np.where(empty, 0.5, table), fit, empty


def _fit_model(cls, fit_tables, records: CodedRecords, mediator_name, plan):
    """Fit one nuisance model per fold, log its defaulted cells and validate it."""
    domains = records.domains
    mediator_name = _default_mediator(domains, mediator_name)
    table, fit, empty = fit_tables(domains, _training_counts(records, mediator_name, plan))
    _raise_if_failed(fit.status, fit.iterations, f"{cls.kind} model for {mediator_name!r}: ")
    diagnostics = []
    for f in range(len(fit.status)):
        cells = np.argwhere(empty[f])
        if len(cells):
            logger.info("%s model for %r, fold %d: %d empty cells filled with the default",
                        cls.kind, mediator_name, f, len(cells))
        diagnostics.append(
            FoldDiagnostics(
                log_likelihood=float(fit.loglik[f]),
                n_iterations=int(fit.iterations[f]),
                smoothed_cells=tuple(
                    (*map(int, c[:-1]), domains.x_assignment(int(c[-1]))) for c in cells
                ),
                coefficients=fit.coef[f],
            )
        )
    model = cls(mediator_name=mediator_name, domains=domains, n_folds=table.shape[0],
                table=table, diagnostics=tuple(diagnostics))
    model.validate()
    return model


def fit_mediator_model(
    records: CodedRecords, mediator_name: str | None = None, plan: CrossFitPlan | None = None
) -> FittedMediatorModel:
    """Fit P(M | T, X) per fold and materialize the full (t, x) grid."""
    return _fit_model(FittedMediatorModel, fit_mediator_tables, records, mediator_name, plan)


def fit_outcome_model(
    records: CodedRecords, mediator_name: str | None = None, plan: CrossFitPlan | None = None
) -> FittedOutcomeModel:
    """Fit E[Y | M, T, X] per fold and materialize the full (m, t, x) grid."""
    return _fit_model(FittedOutcomeModel, fit_outcome_tables, records, mediator_name, plan)


# ---------------------------------------------------------------------------
# CSV export for audit
# ---------------------------------------------------------------------------


def _write_table_csv(models: Sequence, stream: IO[str], axes: tuple[int, ...]) -> None:
    """One row per (fold, m, t, x) cell; ``axes`` transposes a table to that order."""
    names = list(models[0].domains.confounder_names)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["fold", "mediator", "m", "t"] + names + ["value"])
    for model in models:
        if list(model.domains.confounder_names) != names:
            raise DataError("models in one export must share confounder domains")
        view = model.table.transpose(axes)
        x_levels = [
            [x[n] for n in names] for x in map(model.domains.x_assignment, range(view.shape[3]))
        ]
        for (f, m, t, ix), value in np.ndenumerate(view):
            writer.writerow([f, model.mediator_name, m, t] + x_levels[ix] + [repr(float(value))])


def write_mediator_table_csv(models: Sequence[FittedMediatorModel], stream: IO[str]) -> None:
    _write_table_csv(models, stream, (0, 3, 1, 2))


def write_outcome_table_csv(models: Sequence[FittedOutcomeModel], stream: IO[str]) -> None:
    _write_table_csv(models, stream, (0, 1, 2, 3))
