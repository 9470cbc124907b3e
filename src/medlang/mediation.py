"""Sample-average natural direct and indirect effect estimators.

For one mediator with fitted per-fold tables g(m | t, x) and
f(y | m, t, x), each unit i contributes the inner sums

    nde_i = sum_m (f(m, 1, X_i) - f(m, 0, X_i)) * g(m | 0, X_i)
    nie_i = sum_m f(m, 0, X_i) * (g(m | 1, X_i) - g(m | 0, X_i))
    te_i  = sum_m (f(m, 1, X_i) g(m | 1, X_i) - f(m, 0, X_i) g(m | 0, X_i))

evaluated with the tables trained on the opposite fold, and the estimate is
the average over units. The reversed indirect effect swaps the reference
arm of f; per unit, te_i = nde_i + nie_reversed_i is an algebraic identity.

By default the inner sum is evaluated at each unit's own X_i; the
alternative reading that weights by the empirical marginal distribution of
X, independent of i, is available via x_marginal=True.
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .arrays import reduce_in_order
from .errors import ConfigError, DataError, NumericalError
from . import glm
from .glm import (
    CodedRecords,
    FittedMediatorModel,
    FittedOutcomeModel,
    fit_mediator_model,
    fit_outcome_model,
)
from .measure import Domains
from .seeding import derive_seed

logger = logging.getLogger("medlang")

#: Attached to every estimate: the direct effect is only interpretable as
#: the full direct causal effect if every relevant mediator is included.
INTERPRETATION_CAVEAT = (
    "unless all relevant mediators are measured and included, one cannot "
    "interpret the estimand of the natural direct effect as the actual "
    "direct causal effect; read these estimates relative to the mediator "
    "set analyzed"
)

IDENTITY_TOL = 1e-9

#: bootstrap_effects fails when more than this share of its replicates is dropped.
MAX_DROPPED_FRACTION = 0.10


@dataclass(frozen=True)
class EffectEstimate:
    """Point estimates and percentile bootstrap intervals for one mediator."""

    mediator_name: str
    nde: float
    nie: float
    nie_reversed: float
    total_effect: float
    ci_level: float
    nde_ci: tuple[float, float]
    nie_ci: tuple[float, float]
    n_units: int
    n_bootstrap: int
    n_dropped_replicates: int = 0
    n_clamped_intervals: int = 0
    caveat: str = INTERPRETATION_CAVEAT

    def validate(self) -> None:
        for name, value in (
            ("nde", self.nde),
            ("nie", self.nie),
            ("nie_reversed", self.nie_reversed),
            ("total_effect", self.total_effect),
        ):
            if not -1.0 <= value <= 1.0:
                raise NumericalError(f"{name} = {value} outside [-1, 1] for a binary outcome")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigError(f"ci_level must lie in (0, 1), got {self.ci_level}")
        if abs(self.total_effect - self.nde - self.nie_reversed) > IDENTITY_TOL:
            raise NumericalError(
                "decomposition identity violated: "
                f"te - nde - nie_reversed = {self.total_effect - self.nde - self.nie_reversed:.3e}"
            )
        for label, (lo, hi), point in (
            ("nde_ci", self.nde_ci, self.nde),
            ("nie_ci", self.nie_ci, self.nie),
        ):
            if not lo <= point <= hi:
                raise NumericalError(f"{label} [{lo}, {hi}] does not contain {point}")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["mediator"] = data.pop("mediator_name")
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, obj) -> "EffectEstimate":
        """Inverse of to_dict; the counters and the caveat may be absent.

        Raises DataError on a missing key or a value of the wrong type: the
        effects and the level are numbers, the intervals pairs of numbers,
        the counters non-negative integers (a bool is neither), the mediator
        and the caveat strings.
        """
        if not isinstance(obj, dict):
            raise DataError(f"an estimate must be a JSON object, got {type(obj).__name__}")
        missing = [key for key in _REQUIRED_KEYS if key not in obj]
        if missing:
            raise DataError(f"estimate lacks keys {missing}")
        values = {key: _typed(key, value) for key, value in obj.items() if key in _FIELDS}
        return cls(mediator_name=values.pop("mediator"), **values)


_REQUIRED_KEYS = (
    "mediator", "nde", "nie", "nie_reversed", "total_effect", "ci_level",
    "nde_ci", "nie_ci", "n_units", "n_bootstrap",
)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# (test of the JSON value, what it must be, its conversion) for each estimate field.
_STRING = (lambda v: isinstance(v, str), "a string", str)
_NUMBER = (_is_number, "a number", float)
_COUNT = (lambda v: _is_number(v) and isinstance(v, numbers.Integral) and v >= 0,
          "a non-negative integer", int)
_INTERVAL = (lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)),
             "a pair of numbers", lambda v: (float(v[0]), float(v[1])))
_FIELDS = {
    "mediator": _STRING, "caveat": _STRING,
    "nde": _NUMBER, "nie": _NUMBER, "nie_reversed": _NUMBER, "total_effect": _NUMBER,
    "ci_level": _NUMBER, "nde_ci": _INTERVAL, "nie_ci": _INTERVAL,
    "n_units": _COUNT, "n_bootstrap": _COUNT, "n_dropped_replicates": _COUNT,
    "n_clamped_intervals": _COUNT,
}


def _typed(key: str, value):
    """An estimate field's JSON value, checked and converted as _FIELDS says."""
    ok, expected, convert = _FIELDS[key]
    if not ok(value):
        raise DataError(f"malformed estimate: {key} must be {expected}, "
                        f"got {type(value).__name__}")
    return convert(value)


@dataclass(frozen=True)
class EstimatorConfig:
    n_bootstrap: int = 1000
    seed: int = 0
    ci_level: float = 0.90
    x_marginal: bool = False


def validate_settings(n_bootstrap: int, ci_level: float) -> None:
    """Raise ConfigError on a bad bootstrap count or interval level."""
    if n_bootstrap != 0 and n_bootstrap < 100:
        raise ConfigError(f"n_bootstrap must be 0 (disabled) or >= 100, got {n_bootstrap}")
    if not 0.0 < ci_level < 1.0:
        raise ConfigError(f"ci_level must lie in (0, 1), got {ci_level}")


# ---------------------------------------------------------------------------
# Core sums
# ---------------------------------------------------------------------------


def _check_table(name: str, table: np.ndarray, layout: str) -> None:
    if np.isfinite(table).all():
        return
    bad = np.argwhere(~np.isfinite(table))[0]
    raise DataError(f"{name} table has a missing cell at {layout} = {tuple(int(v) for v in bad)}")


def _cell_effects(g_table: np.ndarray, f_table: np.ndarray):
    """Inner mediator sums per (fold, x) cell.

    g_table: (..., 2, n_x, K); f_table: (..., K, 2, n_x), with any shared
    leading axes (folds, replicates). Returns four (..., n_x) arrays: nde,
    nie, nie_reversed, te.
    """
    g0 = g_table[..., 0, :, :]
    g1 = g_table[..., 1, :, :]
    f0 = np.swapaxes(f_table[..., 0, :], -1, -2)
    f1 = np.swapaxes(f_table[..., 1, :], -1, -2)
    nde = ((f1 - f0) * g0).sum(axis=-1)
    nie = (f0 * (g1 - g0)).sum(axis=-1)
    nie_rev = (f1 * (g1 - g0)).sum(axis=-1)
    te = (f1 * g1 - f0 * g0).sum(axis=-1)
    return nde, nie, nie_rev, te


def _effects(
    g_table: np.ndarray, f_table: np.ndarray, fold_x: np.ndarray, x_marginal: bool
) -> tuple[np.ndarray, ...]:
    """Unit averages of the four effects from per-fold tables.

    fold_x: (..., F, n_x) counts of scored units per (fold, x) cell. By
    default each cell counts its own units; with ``x_marginal`` each fold's
    units are spread over the pooled empirical distribution of X.
    Returns nde, nie, nie_reversed and te, each of the leading shape.
    """
    n = fold_x.sum(axis=(-2, -1))
    w = fold_x
    if x_marginal:
        x_share = fold_x.sum(axis=-2) / n[..., None]
        w = fold_x.sum(axis=-1)[..., :, None] * x_share[..., None, :]
    return tuple((w * c).sum(axis=(-2, -1)) / n for c in _cell_effects(g_table, f_table))


def fit_models(
    records: CodedRecords, mediator_name: str
) -> tuple[FittedMediatorModel, FittedOutcomeModel]:
    """Fit one mediator's nuisance pair g(m | t, x) and f(y | m, t, x) per fold."""
    return fit_mediator_model(records, mediator_name), fit_outcome_model(records, mediator_name)


def sample_effects(
    records: CodedRecords,
    g: FittedMediatorModel,
    f: FittedOutcomeModel,
    x_marginal: bool = False,
) -> tuple[float, float, float, float]:
    """Cross-fitted sample averages (nde, nie, nie_reversed, te) over the records.

    Each record is scored with its own fold's tables, which were trained on
    the other folds; te equals nde + nie_reversed up to rounding. The
    records must carry the domains the models were fitted over.
    """
    if g.mediator_name != f.mediator_name:
        raise DataError(
            f"model mediators differ: {g.mediator_name!r} vs {f.mediator_name!r}"
        )
    if g.domains != f.domains:
        raise DataError("mediator and outcome models were fitted over different domains")
    if records.domains != g.domains:
        raise DataError("records and models carry different domains")
    n_folds = g.table.shape[0]
    if f.table.shape[0] != n_folds:
        raise DataError("mediator and outcome models carry different fold counts")
    _check_table("mediator", g.table, "(fold, t, x, m)")
    _check_table("outcome", f.table, "(fold, m, t, x)")
    if not len(records):
        raise DataError("no records to score")
    if int(records.fold.max()) >= n_folds:
        raise DataError(
            f"record fold {int(records.fold.max())} outside the fitted models' {n_folds} folds"
        )
    n_x = records.domains.n_x
    fold_x = np.bincount(records.fold * n_x + records.x, minlength=n_folds * n_x)
    fold_x = fold_x.reshape(n_folds, n_x).astype(float)
    return tuple(float(v) for v in _effects(g.table, f.table, fold_x, x_marginal))


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


def _replicate_counts(
    coded: CodedRecords, mediator_name: str, n_bootstrap: int, seed: int
) -> np.ndarray:
    """Cell counts of every replicate's within-fold resample, (B, F, K, 2, n_x, 2).

    Resampling a fold's n_f units with replacement draws its (m, t, x, y)
    cell counts from Multinomial(n_f, fold counts / n_f), so all replicates'
    counts are drawn from that law in one call on the stream ``seed``. They
    depend on the fold cell counts alone, never on record order, and
    replicate r draws the same counts for any n_bootstrap > r. numpy gives
    the last cell the remainder of the others' draws, so each fold's cells
    are drawn in ascending order of count: the remainder lands on the
    fold's largest cell, never on an empty one. A fold without units draws
    zeros.
    """
    shape = glm.grid_shape(coded.domains, mediator_name, coded.n_folds)
    codes = glm.cell_codes(coded, mediator_name, coded.fold)
    counts = np.bincount(codes, minlength=int(np.prod(shape))).reshape(shape[0], -1)
    order = np.argsort(counts, axis=1, kind="stable")
    ascending = np.take_along_axis(counts, order, axis=1)
    n = counts.sum(axis=1)
    pvals = ascending / np.maximum(n, 1)[:, None]
    draw = np.random.default_rng(seed).multinomial(n, pvals, size=(n_bootstrap, shape[0]))
    out = np.empty_like(draw)
    np.put_along_axis(out, np.broadcast_to(order, draw.shape), draw, axis=2)
    return out.reshape((n_bootstrap,) + shape)


def _levels_present(cells: np.ndarray, domains: Domains) -> np.ndarray:
    """Which t, m and confounder levels occur in (..., K, 2, n_x) cell counts.

    Returns (..., 2 + K + sum of confounder widths) booleans.
    """
    widths = tuple(len(levels) for _, levels in domains.confounders)
    per_x = reduce_in_order(np.add, cells, (-3, -2)).reshape(cells.shape[:-3] + widths)
    parts = [reduce_in_order(np.add, cells, (-3, -1)), reduce_in_order(np.add, cells, (-2, -1))]
    for j in range(len(widths)):
        others = tuple(i - len(widths) for i in range(len(widths)) if i != j)
        parts.append(reduce_in_order(np.add, per_x, others))
    return np.concatenate(parts, axis=-1) > 0


def _bootstrap_draws(
    coded: CodedRecords,
    g: FittedMediatorModel,
    f: FittedOutcomeModel,
    n_bootstrap: int,
    seed: int,
    x_marginal: bool,
) -> np.ndarray:
    """(nde, nie) of every replicate, (B, 2); NaN rows mark dropped replicates.

    Refits are count-based and batched: all replicates' training counts
    come from one multinomial draw (see _replicate_counts), and both
    nuisance models of every replicate and fold are fitted in one stacked
    Newton loop each, through the same glm.fit_mediator_tables/
    fit_outcome_tables step as the point fit. Every replicate's fold fit
    starts where the point fit ``g``/``f`` of that fold took its final step,
    so a replicate with the point fit's counts repeats it bit for bit. A
    replicate is dropped if its resample loses a t, m or confounder level
    present in the data, if any of its fits fails, or if any of its tables
    fails the validity rule that the point fit's validate() applies. One info
    event counts the drops per reason and the kept replicates with defaulted cells.
    """
    mediator_name = g.mediator_name
    counts = _replicate_counts(coded, mediator_name, n_bootstrap, seed)
    domains = coded.domains
    cells = reduce_in_order(np.add, counts, (1, 5))
    lost = _levels_present(cells.sum(axis=0), domains) & ~_levels_present(cells, domains)
    kept = np.nonzero(~lost.any(axis=1))[0]
    draws = np.full((n_bootstrap, 2), np.nan)
    grid = counts[kept]
    train = (grid.sum(axis=1, keepdims=True) - grid).astype(float)
    g_table, g_fit, g_empty = glm.fit_mediator_tables(domains, train, _restart(g, coded.n_folds))
    f_table, f_fit, f_empty = glm.fit_outcome_tables(domains, train, _restart(f, coded.n_folds))
    refit = ((g_fit.status == glm.CONVERGED) & (f_fit.status == glm.CONVERGED)).all(axis=1)
    valid = glm.valid_mediator_tables(g_table) & glm.valid_outcome_tables(f_table)
    ok = refit & valid.all(axis=1)
    fold_x = reduce_in_order(np.add, grid[ok], (2, 3, 5)).astype(float)
    nde, nie, _, _ = _effects(g_table[ok], f_table[ok], fold_x, x_marginal)
    draws[kept[ok]] = np.stack([nde, nie], axis=1)
    defaulted = g_empty.any(axis=(1, 2, 3)) | f_empty.any(axis=(1, 2, 3, 4))
    logger.info("bootstrap for %r: %d replicates, %d dropped (%d lost a level, %d failed or "
                "unconverged refits, %d invalid tables); %d kept replicates had defaulted cells",
                mediator_name, n_bootstrap, n_bootstrap - np.count_nonzero(ok),
                n_bootstrap - kept.size, kept.size - np.count_nonzero(refit),
                np.count_nonzero(refit & ~ok), np.count_nonzero(defaulted[ok]))
    return draws


def _restart(model, n_folds: int) -> np.ndarray | None:
    """The point fit's per-fold restart iterates, (F, levels - 1, columns).

    None (start from zeros) if the model carries no diagnostics for the
    records' folds, as for hand-built tables.
    """
    if len(model.diagnostics) != n_folds:
        return None
    return np.stack([d.restart for d in model.diagnostics])


def _percentile_interval(values: np.ndarray, point: float, ci_level: float):
    """Percentile interval widened to contain ``point``, and whether it was."""
    lo, hi = (float(v) for v in np.quantile(values, [(1.0 - ci_level) / 2.0,
                                                      1.0 - (1.0 - ci_level) / 2.0]))
    return (min(lo, point), max(hi, point)), not lo <= point <= hi


def bootstrap_effects(
    records: CodedRecords,
    g: FittedMediatorModel,
    f: FittedOutcomeModel,
    n_bootstrap: int,
    seed: int,
    ci_level: float = EstimatorConfig.ci_level,
    x_marginal: bool = False,
) -> EffectEstimate:
    """Point estimates of the fitted pair plus percentile intervals from unit resampling.

    The point estimate scores the records with ``g`` and ``f`` (see
    fit_models). Every replicate resamples units with replacement within
    each fold (preserving the cross-fit protocol and fold sizes exactly),
    refits both nuisance models, and recomputes the effects. A resample
    changes only cell counts, so every replicate's fold cell counts are
    drawn from their multinomial law, all in one draw from ``seed``, and
    its models are fitted from those counts in one stacked Newton solve per
    model, started at the point fit (see _bootstrap_draws). The intervals
    therefore depend on the fold cell counts alone, not on record order.
    Replicates whose resample loses a covariate level present in the
    original data, or whose refit fails, are dropped and counted; more than
    MAX_DROPPED_FRACTION dropped is an error. An interval that does not
    contain its point estimate is widened to it, and each such interval is
    counted in ``n_clamped_intervals``.
    """
    validate_settings(n_bootstrap, ci_level)
    mediator_name = g.mediator_name
    nde, nie, nie_rev, te = sample_effects(records, g, f, x_marginal)

    dropped = 0
    clamped = 0
    nde_ci, nie_ci = (nde, nde), (nie, nie)
    if n_bootstrap > 0:
        draws = _bootstrap_draws(records, g, f, n_bootstrap, seed, x_marginal)
        draws = draws[~np.isnan(draws[:, 0])]
        dropped = n_bootstrap - len(draws)
        if dropped > MAX_DROPPED_FRACTION * n_bootstrap:
            raise NumericalError(
                f"{dropped}/{n_bootstrap} bootstrap replicates dropped "
                f"(> {MAX_DROPPED_FRACTION:.0%}): data too sparse for resampling"
            )
        if len(draws):
            nde_ci, nde_clamped = _percentile_interval(draws[:, 0], nde, ci_level)
            nie_ci, nie_clamped = _percentile_interval(draws[:, 1], nie, ci_level)
            clamped = nde_clamped + nie_clamped

    estimate = EffectEstimate(
        mediator_name=mediator_name,
        nde=nde,
        nie=nie,
        nie_reversed=nie_rev,
        total_effect=te,
        ci_level=ci_level,
        nde_ci=nde_ci,
        nie_ci=nie_ci,
        n_units=len(records),
        n_bootstrap=n_bootstrap,
        n_dropped_replicates=dropped,
        n_clamped_intervals=clamped,
    )
    estimate.validate()
    return estimate


def estimate_all(
    records: CodedRecords,
    models: Sequence[tuple[FittedMediatorModel, FittedOutcomeModel]],
    config: EstimatorConfig = EstimatorConfig(),
) -> list[EffectEstimate]:
    """Bootstrap estimates for each fitted (g, f) pair, each independently.

    Per-mediator seeds are derived from the config seed and the mediator
    name, so an estimate is bit-identical whether the mediator runs alone
    or alongside others.
    """
    return [
        bootstrap_effects(
            records,
            g,
            f,
            n_bootstrap=config.n_bootstrap,
            seed=derive_seed(config.seed, f"bootstrap:{g.mediator_name}"),
            ci_level=config.ci_level,
            x_marginal=config.x_marginal,
        )
        for g, f in models
    ]
