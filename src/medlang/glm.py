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
replicate take the same path. Sums and maxima over levels run level by
level (reduce_in_order): np.sum's bits up to 7 levels, maybe not in the
last bits from 8 on, where np.sum adds pairwise.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import IO, NamedTuple, Sequence

import numpy as np

from .arrays import reduce_in_order
from .errors import ConfigError, DataError, NumericalError
# bench/tracer.py patches medlang.glm.encode_records and medlang.glm.infer_domains.
from .measure import CodedRecords, Domains, encode_records, infer_domains  # noqa: F401

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
class FoldDiagnostics:
    """One fold's fit; ``restart`` is the iterate its final Newton step was taken from."""

    log_likelihood: float
    n_iterations: int
    smoothed_cells: tuple[tuple, ...]
    coefficients: np.ndarray
    restart: np.ndarray


def valid_mediator_tables(table: np.ndarray) -> np.ndarray:
    """Which members of a (..., 2, n_x, K) stack are probability tables.

    A member is valid if every cell lies in [0, 1] and every (t, x) row sums
    to 1; NaN fails every comparison, so non-finite cells are invalid too.
    Returns (...) booleans.
    """
    in_range = ((table >= 0) & (table <= 1)).all(axis=(-3, -2, -1))
    return in_range & np.isclose(reduce_in_order(np.add, table), 1.0, atol=1e-9).all(axis=(-2, -1))


def valid_outcome_tables(table: np.ndarray) -> np.ndarray:
    """Which members of a (..., K, 2, n_x) stack have every cell in [0, 1] (NaN is not)."""
    return ((table >= 0) & (table <= 1)).all(axis=(-3, -2, -1))


@dataclass(frozen=True)
class _FittedModel:
    """One nuisance model's per-fold tables; a subclass names its kind and validity rule."""

    mediator_name: str
    domains: Domains
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
    restart: np.ndarray


def fit_categorical_glm_batch(
    design: np.ndarray,
    counts: np.ndarray,
    start: np.ndarray | None = None,
) -> BatchFit:
    """Newton/IRLS fits of a stack of multinomial logits sharing one design.

    design: (R, d) covariate rows; counts: (B, R, K) observation counts per
    member and response level; start: (B, K-1, d) coefficients each member
    starts from (zeros by default). Level 0 is the reference. Every member
    takes exactly the Newton steps it would take alone: each iteration solves
    all active members' (p, p) systems in one stacked solve, and a member
    stops stepping once its largest step falls below CONVERGENCE_TOL, or
    after MAX_ITERATIONS steps. A RIDGE penalty keeps the step well defined
    under separation or collinearity.

    Returns (probs (B, R, K), coefficients (B, K-1, d), iterations (B,),
    penalized log-likelihoods (B,), status (B,), restart (B, K-1, d)). A
    member's status is CONVERGED, FAILED_STEP (singular or non-finite Newton
    system; its iteration count is the failing iteration) or NOT_CONVERGED;
    failed members keep their last coefficients and never stop the others.
    A member's restart is the iterate its final step was taken from:
    started there on the same counts, it repeats that step bit for bit and
    converges in one iteration. Members are fitted in slices of at most
    about BATCH_BYTES of Newton systems; a member's result does not depend
    on the slice it is in.
    """
    n_members, n_rows, n_levels = counts.shape
    if n_levels < 2:
        raise ConfigError("response needs at least two levels")
    d = design.shape[1]
    k = n_levels - 1
    n_params = k * d
    size = max(1, BATCH_BYTES // (8 * (3 * n_params * n_params + n_rows * k * k)))
    coef = np.zeros((n_members, k, d)) if start is None else np.array(start, dtype=float)
    if n_members > size:
        parts = [
            fit_categorical_glm_batch(design, counts[i : i + size], coef[i : i + size])
            for i in range(0, n_members, size)
        ]
        return BatchFit(*(np.concatenate(arrays) for arrays in zip(*parts)))
    # The working set of the members still stepping: ids, coefficients, counts, totals.
    # A member's results are written, and the set rebuilt, in the iteration it stops.
    active, c, y = np.arange(n_members), coef, counts[:, :, 1:]
    totals = reduce_in_order(np.add, counts)
    # Row-wise outer products: one matmul turns per-row weights into blocks.
    outer = (design[:, :, None] * design[:, None, :]).reshape(n_rows, d * d)
    ridge_eye = RIDGE * np.eye(n_params)
    identity = np.eye(k)
    restart = coef.copy()
    iterations = np.zeros(n_members, dtype=np.int64)
    status = np.full(n_members, NOT_CONVERGED)
    for iteration in range(1, MAX_ITERATIONS + 1):
        if not active.size:
            break
        probs = _glm_probs(design, c)[:, :, 1:]
        weighted = totals[:, :, None] * probs  # (A, R, k)
        grad = np.swapaxes(y - weighted, 1, 2) @ design - RIDGE * c
        # w[a, r, i, j] = n_r p_ri (1[i = j] - p_rj), the multinomial information.
        w = weighted[:, :, :, None] * (identity - probs[:, :, None, :])
        blocks = np.swapaxes(w.reshape(active.size, n_rows, k * k), 1, 2) @ outer
        hessian = (
            blocks.reshape(active.size, k, k, d, d)
            .transpose(0, 1, 3, 2, 4)
            .reshape(active.size, n_params, n_params)
            + ridge_eye
        )
        step = _stacked_solve(hessian, grad.reshape(active.size, n_params))
        # The largest |step| per member; NaN or inf exactly where a step is not finite.
        largest = reduce_in_order(np.maximum, np.abs(step))
        failed = ~np.isfinite(largest)
        done = largest < CONVERGENCE_TOL
        step[failed] = 0.0
        stepped = c + step.reshape(c.shape)
        stop = failed | done | (iteration == MAX_ITERATIONS)
        if not stop.any():
            c = stepped
            continue
        members = active[stop]
        restart[members], coef[members], iterations[members] = c[stop], stepped[stop], iteration
        status[active[failed]] = FAILED_STEP
        status[active[done]] = CONVERGED
        active, c, y, totals = active[~stop], stepped[~stop], y[~stop], totals[~stop]
    probs = _glm_probs(design, coef)
    # counts * log(probs), with 0 where a cell's count is 0 (so 0 * log(0) adds 0).
    log_probs = np.log(probs, out=np.zeros_like(probs), where=counts > 0)
    loglik = (counts * log_probs).sum(axis=(1, 2)) - 0.5 * RIDGE * (coef ** 2).sum(axis=(1, 2))
    return BatchFit(probs, coef, iterations, loglik, status, restart)


def _glm_probs(design: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Softmax probabilities (B, R, K) for coefficients (B, K-1, d), level 0 scoring 0."""
    scores = design @ np.swapaxes(coef, 1, 2)
    top = np.maximum(reduce_in_order(np.maximum, scores), 0.0)
    e = np.empty(scores.shape[:2] + (scores.shape[2] + 1,))
    np.subtract(0.0, top, out=e[:, :, 0])
    np.subtract(scores, top[:, :, None], out=e[:, :, 1:])
    np.exp(e, out=e)
    e /= reduce_in_order(np.add, e)[:, :, None]
    return e


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
    design: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Newton/IRLS fit of one multinomial logit on aggregated rows.

    design: (R, d) covariate rows; counts: (R, K) observation counts per
    response level. Returns (probs (R, K), coefficients (K-1, d),
    iterations, penalized log-likelihood); a failed fit raises
    NumericalError. This is the one-member case of fit_categorical_glm_batch.
    """
    fit = fit_categorical_glm_batch(design, counts[None])
    _raise_if_failed(fit.status, fit.iterations)
    return fit.probs[0], fit.coef[0], int(fit.iterations[0]), float(fit.loglik[0])


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


def _training_counts(coded: CodedRecords, mediator_name: str) -> np.ndarray:
    """Training cell counts per fold: every fold's grid minus the fold's own."""
    if not len(coded):
        raise DataError("no records to fit")
    n_folds = coded.n_folds
    if n_folds < 2:
        raise ConfigError("records carry fewer than 2 folds")
    codes = cell_codes(coded, mediator_name, coded.fold)
    shape = grid_shape(coded.domains, mediator_name, n_folds)
    counts = np.bincount(codes, minlength=int(np.prod(shape))).reshape(shape)
    train = counts.sum(axis=0) - counts
    empty = np.nonzero(train.reshape(n_folds, -1).sum(axis=1) == 0)[0]
    if empty.size:
        raise DataError(f"fold {empty[0]}: empty training set")
    return train.astype(float)


def _fit_stack(
    design: np.ndarray, counts: np.ndarray, cells: tuple[int, ...], lead: tuple[int, ...],
    start: np.ndarray | None,
) -> tuple[BatchFit, np.ndarray]:
    """Batch-fit (members, rows, levels) counts; shape the results by ``lead``.

    ``start`` holds each member's first iterate, shaped lead + (levels - 1,
    columns), or is None for zeros. Returns the fit and the mask of rows
    without counts, shaped lead + cells.
    """
    if start is not None:
        start = np.broadcast_to(start, lead + start.shape[-2:]).reshape(
            (-1,) + start.shape[-2:])
    fit = fit_categorical_glm_batch(design, counts, start=start)
    empty = reduce_in_order(np.add, counts) == 0
    return BatchFit(*(a.reshape(lead + a.shape[1:]) for a in fit)), empty.reshape(lead + cells)


def fit_mediator_tables(
    domains: Domains, train: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, BatchFit, np.ndarray]:
    """Fit P(M | T, X) to every member of a stack of training cell counts.

    train: (..., K, 2, n_x, 2) counts over (m, t, x, y), with any leading
    axes (folds; replicates x folds); start: first iterates, broadcast to
    the leading axes (see FoldDiagnostics.restart), or None for zeros.
    Returns the (..., 2, n_x, K) tables, the BatchFit with arrays shaped by
    the leading axes, and the (..., 2, n_x) mask of cells without training
    counts, which get the uniform default.
    """
    lead, n_levels, n_x = train.shape[:-4], train.shape[-4], train.shape[-2]
    counts = np.moveaxis(reduce_in_order(np.add, train), -3, -1).reshape((-1, 2 * n_x, n_levels))
    fit, empty = _fit_stack(_mediator_design(domains), counts, (2, n_x), lead, start)
    table = fit.probs.reshape(lead + (2, n_x, n_levels))
    return np.where(empty[..., None], 1.0 / n_levels, table), fit, empty


def fit_outcome_tables(
    domains: Domains, train: np.ndarray, start: np.ndarray | None = None
) -> tuple[np.ndarray, BatchFit, np.ndarray]:
    """Fit E[Y | M, T, X] to every member of a stack of training cell counts.

    train and start as for fit_mediator_tables. Returns the (..., K, 2, n_x)
    tables, the BatchFit shaped by the leading axes, and the (..., K, 2, n_x)
    mask of cells without training counts, which get 0.5.
    """
    lead, n_levels, n_x = train.shape[:-4], train.shape[-4], train.shape[-2]
    counts = train.reshape((-1, n_levels * 2 * n_x, 2))
    fit, empty = _fit_stack(_outcome_design(domains, n_levels), counts, (n_levels, 2, n_x), lead,
                            start)
    table = fit.probs[..., 1].reshape(lead + (n_levels, 2, n_x))
    return np.where(empty, 0.5, table), fit, empty


def _fit_model(cls, fit_tables, records: CodedRecords, mediator_name):
    """Fit one nuisance model per fold, log its defaulted cells and validate it."""
    domains = records.domains
    mediator_name = _default_mediator(domains, mediator_name)
    table, fit, empty = fit_tables(domains, _training_counts(records, mediator_name))
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
                restart=fit.restart[f],
            )
        )
    model = cls(mediator_name=mediator_name, domains=domains, table=table,
                diagnostics=tuple(diagnostics))
    model.validate()
    return model


def fit_mediator_model(
    records: CodedRecords, mediator_name: str | None = None
) -> FittedMediatorModel:
    """Fit P(M | T, X) per fold and materialize the full (t, x) grid."""
    return _fit_model(FittedMediatorModel, fit_mediator_tables, records, mediator_name)


def fit_outcome_model(
    records: CodedRecords, mediator_name: str | None = None
) -> FittedOutcomeModel:
    """Fit E[Y | M, T, X] per fold and materialize the full (m, t, x) grid."""
    return _fit_model(FittedOutcomeModel, fit_outcome_tables, records, mediator_name)


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
