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

Every fit goes through one Newton/IRLS loop over a stack of count tables
that share a design, so the folds of one model and the replicates of a
bootstrap are solved together.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np
from scipy.special import softmax, xlogy

from .errors import ConfigError, DataError, NumericalError
from .measure import CausalRecord, Domains
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

    def test_ids(self, fold: int) -> frozenset[str]:
        return frozenset(uid for uid, f in self.fold_of.items() if f == fold)

    def train_ids(self, fold: int) -> frozenset[str]:
        return frozenset(uid for uid, f in self.fold_of.items() if f != fold)

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


@dataclass(frozen=True)
class FittedMediatorModel:
    """Per-fold tables P(M = m | T = t, X = x) over the full finite grid."""

    mediator_name: str
    domains: Domains
    n_folds: int
    table: np.ndarray  # (n_folds, 2, n_x, K)
    diagnostics: tuple[FoldDiagnostics, ...]

    @property
    def n_levels(self) -> int:
        return self.table.shape[3]

    def validate(self) -> None:
        if not np.isfinite(self.table).all():
            raise NumericalError(f"mediator table for {self.mediator_name!r} has non-finite cells")
        if (self.table < 0).any() or (self.table > 1).any():
            raise NumericalError(f"mediator table for {self.mediator_name!r} outside [0, 1]")
        sums = self.table.sum(axis=3)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise NumericalError(
                f"mediator table for {self.mediator_name!r} rows do not sum to 1"
            )


@dataclass(frozen=True)
class FittedOutcomeModel:
    """Per-fold tables E[Y | M = m, T = t, X = x] over the full finite grid."""

    mediator_name: str
    domains: Domains
    n_folds: int
    table: np.ndarray  # (n_folds, K, 2, n_x)
    diagnostics: tuple[FoldDiagnostics, ...]

    def validate(self) -> None:
        if not np.isfinite(self.table).all():
            raise NumericalError(f"outcome table for {self.mediator_name!r} has non-finite cells")
        if (self.table < 0).any() or (self.table > 1).any():
            raise NumericalError(f"outcome table for {self.mediator_name!r} outside [0, 1]")


# ---------------------------------------------------------------------------
# Record encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodedRecords:
    """Integer-coded view of a record sequence for fast aggregation."""

    unit_ids: tuple[str, ...]
    t: np.ndarray
    x: np.ndarray  # mixed-radix confounder index
    m: Mapping[str, np.ndarray]
    y: np.ndarray
    fold: np.ndarray
    domains: Domains

    @property
    def n_records(self) -> int:
        return len(self.unit_ids)

    @property
    def n_folds(self) -> int:
        return int(self.fold.max()) + 1 if self.n_records else 0


def infer_domains(records: Sequence[CausalRecord]) -> Domains:
    """Fallback domain inference from observed levels.

    Prefer passing declared domains: inference cannot see levels that never
    occur, and mediator sizes are taken as max observed level + 1 (at least
    two).
    """
    if not records:
        raise DataError("cannot infer domains from an empty record sequence")
    names = tuple(sorted(records[0].x))
    mediators = tuple(sorted(records[0].m))
    levels: dict[str, set[str]] = {n: set() for n in names}
    sizes: dict[str, int] = {m: 2 for m in mediators}
    for rec in records:
        if tuple(sorted(rec.x)) != names or tuple(sorted(rec.m)) != mediators:
            raise DataError(f"record {rec.unit_id}: inconsistent variable names")
        for n in names:
            levels[n].add(str(rec.x[n]))
        for m in mediators:
            sizes[m] = max(sizes[m], rec.m[m] + 1)
    return Domains(
        confounders=tuple((n, tuple(sorted(levels[n]))) for n in names),
        mediators=tuple((m, sizes[m]) for m in mediators),
    )


def encode_records(records: Sequence[CausalRecord], domains: Domains) -> CodedRecords:
    n = len(records)
    t = np.empty(n, dtype=np.int64)
    y = np.empty(n, dtype=np.int64)
    fold = np.empty(n, dtype=np.int64)
    x = np.zeros(n, dtype=np.int64)
    m = {name: np.empty(n, dtype=np.int64) for name, _ in domains.mediators}
    for i, rec in enumerate(records):
        if rec.t not in (0, 1) or rec.y not in (0, 1):
            raise DataError(f"record {rec.unit_id}: t and y must be binary")
        t[i] = rec.t
        y[i] = rec.y
        fold[i] = rec.fold
        idx = 0
        for name, levels in domains.confounders:
            value = str(rec.x[name])
            try:
                pos = levels.index(value)
            except ValueError:
                raise DataError(
                    f"record {rec.unit_id}: confounder {name!r} level {value!r} not in domain"
                )
            idx = idx * len(levels) + pos
        x[i] = idx
        for name, size in domains.mediators:
            level = rec.m.get(name)
            if level is None or not 0 <= level < size:
                raise DataError(
                    f"record {rec.unit_id}: mediator {name!r} level {level!r} outside domain"
                )
            m[name][i] = level
    return CodedRecords(
        unit_ids=tuple(rec.unit_id for rec in records),
        t=t,
        x=x,
        m=m,
        y=y,
        fold=fold,
        domains=domains,
    )


# ---------------------------------------------------------------------------
# Weighted categorical GLM on aggregated cells
# ---------------------------------------------------------------------------


def fit_categorical_glm_batch(
    design: np.ndarray,
    counts: np.ndarray,
    ridge: float = RIDGE,
    max_iterations: int = MAX_ITERATIONS,
    tol: float = CONVERGENCE_TOL,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
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
    return probs, coef, iterations, loglik, status


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
    n_x = domains.n_x
    widths = [len(levels) for _, levels in domains.confounders]
    n_cols = sum(w - 1 for w in widths)
    block = np.zeros((n_x, n_cols))
    for idx in range(n_x):
        rest = idx
        positions = []
        for width in reversed(widths):
            rest, pos = divmod(rest, width)
            positions.append(pos)
        positions.reverse()
        col = 0
        for width, pos in zip(widths, positions):
            if pos > 0:
                block[idx, col + pos - 1] = 1.0
            col += width - 1
    return block


def mediator_design(domains: Domains) -> np.ndarray:
    """Rows over cells (t, x) in cell order t * n_x + x."""
    n_x = domains.n_x
    xblock = _x_dummy_columns(domains)
    rows = []
    for t in (0, 1):
        for ix in range(n_x):
            rows.append(np.concatenate([[1.0, float(t)], xblock[ix]]))
    return np.asarray(rows)


def outcome_design(domains: Domains, n_levels: int) -> np.ndarray:
    """Rows over cells (m, t, x) in cell order (m * 2 + t) * n_x + x.

    Includes the treatment-by-mediator interaction columns.
    """
    n_x = domains.n_x
    xblock = _x_dummy_columns(domains)
    rows = []
    for m in range(n_levels):
        m_dummies = np.zeros(n_levels - 1)
        if m > 0:
            m_dummies[m - 1] = 1.0
        for t in (0, 1):
            for ix in range(n_x):
                rows.append(
                    np.concatenate(
                        [[1.0], m_dummies, [float(t)], xblock[ix], float(t) * m_dummies]
                    )
                )
    return np.asarray(rows)


def _resolve(records_or_coded, domains: Domains | None) -> CodedRecords:
    if isinstance(records_or_coded, CodedRecords):
        return records_or_coded
    records = list(records_or_coded)
    if domains is None:
        domains = infer_domains(records)
    return encode_records(records, domains)


def _apply_plan(coded: CodedRecords, plan: CrossFitPlan | None) -> tuple[np.ndarray, int]:
    if plan is None:
        if coded.n_records == 0:
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
        raise DataError(f"unknown mediator {mediator_name!r}")
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
    coded: CodedRecords, mediator_name: str, plan: CrossFitPlan | None, rows: np.ndarray | None
) -> np.ndarray:
    """Training cell counts per fold: every fold's grid minus the fold's own."""
    fold, n_folds = _apply_plan(coded, plan)
    codes = cell_codes(coded, mediator_name, fold)
    if rows is not None:
        codes = codes[rows]
    shape = grid_shape(coded.domains, mediator_name, n_folds)
    counts = np.bincount(codes, minlength=int(np.prod(shape))).reshape(shape)
    train = counts.sum(axis=0) - counts
    empty = np.nonzero(train.reshape(n_folds, -1).sum(axis=1) == 0)[0]
    if empty.size:
        raise DataError(f"fold {empty[0]}: empty training set")
    return train.astype(float)


def mediator_counts(train: np.ndarray) -> np.ndarray:
    """(..., K, 2, n_x, 2) cell counts -> (..., 2 * n_x, K) mediator-model counts."""
    n_levels, n_x = train.shape[-4], train.shape[-2]
    return np.moveaxis(train.sum(axis=-1), -3, -1).reshape(train.shape[:-4] + (2 * n_x, n_levels))


def outcome_counts(train: np.ndarray) -> np.ndarray:
    """(..., K, 2, n_x, 2) cell counts -> (..., K * 2 * n_x, 2) outcome-model counts."""
    return train.reshape(train.shape[:-4] + (-1, 2))


def mediator_tables(probs: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fitted (..., 2 * n_x, K) probabilities -> (..., 2, n_x, K) tables.

    Cells without training counts get the uniform default; returns the
    tables and the (..., 2 * n_x) mask of those cells.
    """
    empty = counts.sum(axis=-1) == 0
    probs[empty] = 1.0 / probs.shape[-1]
    return probs.reshape(probs.shape[:-2] + (2, -1, probs.shape[-1])), empty


def outcome_tables(
    probs: np.ndarray, counts: np.ndarray, n_levels: int, n_x: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fitted (..., K * 2 * n_x, 2) probabilities -> (..., K, 2, n_x) tables of E[Y].

    Cells without training counts get 0.5; returns the tables and the
    (..., K * 2 * n_x) mask of those cells.
    """
    expected = probs[..., 1].copy()
    empty = counts.sum(axis=-1) == 0
    expected[empty] = 0.5
    return expected.reshape(expected.shape[:-1] + (n_levels, 2, n_x)), empty


def _fold_diagnostics(
    model: str, name: str, fit: tuple, empty: np.ndarray, cell_of
) -> tuple[FoldDiagnostics, ...]:
    """Per-fold diagnostics of a batch fit over folds; raise on a failed fold."""
    _, coef, iterations, loglik, status = fit
    _raise_if_failed(status, iterations, f"{model} model for {name!r}: ")
    diagnostics = []
    for f in range(len(status)):
        cells = np.nonzero(empty[f])[0]
        if cells.size:
            logger.info("%s model for %r, fold %d: %d empty cells filled with the default",
                        model, name, f, cells.size)
        diagnostics.append(
            FoldDiagnostics(
                log_likelihood=float(loglik[f]),
                n_iterations=int(iterations[f]),
                smoothed_cells=tuple(cell_of(int(c)) for c in cells),
                coefficients=coef[f],
            )
        )
    return tuple(diagnostics)


def fit_mediator_model(
    records: Sequence[CausalRecord] | CodedRecords,
    mediator_name: str | None = None,
    plan: CrossFitPlan | None = None,
    domains: Domains | None = None,
    rows: np.ndarray | None = None,
) -> FittedMediatorModel:
    """Fit P(M | T, X) per fold and materialize the full (t, x) grid.

    ``rows`` restricts fitting to a row subset, counting repeated rows as
    often as they occur (a resample's index array); by default all records
    participate.
    """
    coded = _resolve(records, domains)
    domains = coded.domains
    mediator_name = _default_mediator(domains, mediator_name)
    n_x = domains.n_x
    counts = mediator_counts(_training_counts(coded, mediator_name, plan, rows))
    fit = fit_categorical_glm_batch(mediator_design(domains), counts)
    table, empty = mediator_tables(fit[0], counts)
    diagnostics = _fold_diagnostics(
        "mediator", mediator_name, fit, empty,
        lambda c: (c // n_x, domains.x_assignment(c % n_x)),
    )
    model = FittedMediatorModel(
        mediator_name=mediator_name,
        domains=domains,
        n_folds=table.shape[0],
        table=table,
        diagnostics=diagnostics,
    )
    model.validate()
    return model


def fit_outcome_model(
    records: Sequence[CausalRecord] | CodedRecords,
    mediator_name: str | None = None,
    plan: CrossFitPlan | None = None,
    domains: Domains | None = None,
    rows: np.ndarray | None = None,
    interaction: bool = True,
) -> FittedOutcomeModel:
    """Fit E[Y | M, T, X] per fold and materialize the full (m, t, x) grid.

    The treatment-by-mediator interaction is included by default because
    the direct/indirect decomposition is only additive without it.
    """
    coded = _resolve(records, domains)
    domains = coded.domains
    mediator_name = _default_mediator(domains, mediator_name)
    n_levels = domains.mediator_sizes[mediator_name]
    n_x = domains.n_x
    design = outcome_design(domains, n_levels)
    if not interaction:
        design = design[:, : design.shape[1] - (n_levels - 1)]
    counts = outcome_counts(_training_counts(coded, mediator_name, plan, rows))
    fit = fit_categorical_glm_batch(design, counts)
    table, empty = outcome_tables(fit[0], counts, n_levels, n_x)
    diagnostics = _fold_diagnostics(
        "outcome", mediator_name, fit, empty,
        lambda c: (c // (2 * n_x), (c // n_x) % 2, domains.x_assignment(c % n_x)),
    )
    model = FittedOutcomeModel(
        mediator_name=mediator_name,
        domains=domains,
        n_folds=table.shape[0],
        table=table,
        diagnostics=diagnostics,
    )
    model.validate()
    return model


# ---------------------------------------------------------------------------
# CSV export for audit
# ---------------------------------------------------------------------------


def _as_model_list(models) -> list:
    return list(models) if isinstance(models, (list, tuple)) else [models]


def write_mediator_table_csv(
    models: FittedMediatorModel | Sequence[FittedMediatorModel], stream: IO[str]
) -> None:
    models = _as_model_list(models)
    names = list(models[0].domains.confounder_names)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["fold", "mediator", "m", "t"] + names + ["value"])
    for model in models:
        if list(model.domains.confounder_names) != names:
            raise DataError("models in one export must share confounder domains")
        n_folds, _, n_x, n_levels = model.table.shape
        for f in range(n_folds):
            for m in range(n_levels):
                for t in (0, 1):
                    for ix in range(n_x):
                        x = model.domains.x_assignment(ix)
                        writer.writerow(
                            [f, model.mediator_name, m, t]
                            + [x[n] for n in names]
                            + [repr(float(model.table[f, t, ix, m]))]
                        )


def write_outcome_table_csv(
    models: FittedOutcomeModel | Sequence[FittedOutcomeModel], stream: IO[str]
) -> None:
    models = _as_model_list(models)
    names = list(models[0].domains.confounder_names)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["fold", "mediator", "m", "t"] + names + ["value"])
    for model in models:
        if list(model.domains.confounder_names) != names:
            raise DataError("models in one export must share confounder domains")
        n_folds, n_levels, _, n_x = model.table.shape
        for f in range(n_folds):
            for m in range(n_levels):
                for t in (0, 1):
                    for ix in range(n_x):
                        x = model.domains.x_assignment(ix)
                        writer.writerow(
                            [f, model.mediator_name, m, t]
                            + [x[n] for n in names]
                            + [repr(float(model.table[f, m, t, ix]))]
                        )
