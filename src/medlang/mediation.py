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
X, independent of i, is available via x_weighting="marginal".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from . import glm
from .glm import (
    CodedRecords,
    CrossFitPlan,
    FittedMediatorModel,
    FittedOutcomeModel,
    fit_mediator_model,
    fit_outcome_model,
)
from .measure import Domains
from .seeding import derive_seed

X_WEIGHTINGS = ("unit", "marginal")

#: Attached to every estimate: the direct effect is only interpretable as
#: the full direct causal effect if every relevant mediator is included.
INTERPRETATION_CAVEAT = (
    "unless all relevant mediators are measured and included, one cannot "
    "interpret the estimand of the natural direct effect as the actual "
    "direct causal effect; read these estimates relative to the mediator "
    "set analyzed"
)

IDENTITY_TOL = 1e-9


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
        return {
            "mediator": self.mediator_name,
            "nde": self.nde,
            "nie": self.nie,
            "nie_reversed": self.nie_reversed,
            "total_effect": self.total_effect,
            "ci_level": self.ci_level,
            "nde_ci": list(self.nde_ci),
            "nie_ci": list(self.nie_ci),
            "n_units": self.n_units,
            "n_bootstrap": self.n_bootstrap,
            "n_dropped_replicates": self.n_dropped_replicates,
            "n_clamped_intervals": self.n_clamped_intervals,
            "caveat": self.caveat,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, obj) -> "EffectEstimate":
        """Inverse of to_dict; the counters and the caveat may be absent.

        Raises DataError on a missing key or a value of the wrong shape.
        """
        if not isinstance(obj, dict):
            raise DataError(f"an estimate must be a JSON object, got {type(obj).__name__}")
        missing = [key for key in _REQUIRED_KEYS if key not in obj]
        if missing:
            raise DataError(f"estimate lacks keys {missing}")
        try:
            return cls(
                mediator_name=str(obj["mediator"]),
                nde=float(obj["nde"]),
                nie=float(obj["nie"]),
                nie_reversed=float(obj["nie_reversed"]),
                total_effect=float(obj["total_effect"]),
                ci_level=float(obj["ci_level"]),
                nde_ci=_interval(obj["nde_ci"]),
                nie_ci=_interval(obj["nie_ci"]),
                n_units=int(obj["n_units"]),
                n_bootstrap=int(obj["n_bootstrap"]),
                n_dropped_replicates=int(obj.get("n_dropped_replicates", 0)),
                n_clamped_intervals=int(obj.get("n_clamped_intervals", 0)),
                caveat=str(obj.get("caveat", INTERPRETATION_CAVEAT)),
            )
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed estimate: {exc}") from exc


_REQUIRED_KEYS = (
    "mediator", "nde", "nie", "nie_reversed", "total_effect", "ci_level",
    "nde_ci", "nie_ci", "n_units", "n_bootstrap",
)


def _interval(value) -> tuple[float, float]:
    lo, hi = value
    return float(lo), float(hi)


@dataclass(frozen=True)
class EstimatorConfig:
    n_bootstrap: int = 1000
    seed: int = 0
    ci_level: float = 0.90
    x_weighting: str = "unit"


def validate_settings(n_bootstrap: int, ci_level: float, x_weighting: str) -> None:
    """Raise ConfigError on a bad bootstrap count, interval level or X weighting."""
    if n_bootstrap != 0 and n_bootstrap < 100:
        raise ConfigError(f"n_bootstrap must be 0 (disabled) or >= 100, got {n_bootstrap}")
    if not 0.0 < ci_level < 1.0:
        raise ConfigError(f"ci_level must lie in (0, 1), got {ci_level}")
    if x_weighting not in X_WEIGHTINGS:
        raise ConfigError(f"x_weighting must be one of {X_WEIGHTINGS}, got {x_weighting!r}")


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
    g_table: np.ndarray, f_table: np.ndarray, fold_x: np.ndarray, x_weighting: str
) -> tuple[np.ndarray, ...]:
    """Unit averages of the four effects from per-fold tables.

    fold_x: (..., F, n_x) counts of scored units per (fold, x) cell. Under
    "unit" weighting each cell counts its own units; under "marginal" each
    fold's units are spread over the pooled empirical distribution of X.
    Returns nde, nie, nie_reversed and te, each of the leading shape.
    """
    n = fold_x.sum(axis=(-2, -1))
    if x_weighting == "unit":
        w = fold_x
    elif x_weighting == "marginal":
        x_share = fold_x.sum(axis=-2) / n[..., None]
        w = fold_x.sum(axis=-1)[..., :, None] * x_share[..., None, :]
    else:
        raise ConfigError(f"x_weighting must be one of {X_WEIGHTINGS}")
    return tuple((w * c).sum(axis=(-2, -1)) / n for c in _cell_effects(g_table, f_table))


def fit_models(
    records: CodedRecords, mediator_name: str, plan: CrossFitPlan | None = None
) -> tuple[FittedMediatorModel, FittedOutcomeModel]:
    """Fit one mediator's nuisance pair g(m | t, x) and f(y | m, t, x) per fold."""
    return (
        fit_mediator_model(records, mediator_name, plan=plan),
        fit_outcome_model(records, mediator_name, plan=plan),
    )


def sample_effects(
    records: CodedRecords,
    g: FittedMediatorModel,
    f: FittedOutcomeModel,
    x_weighting: str = "unit",
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
    if g.n_folds != f.n_folds:
        raise DataError("mediator and outcome models carry different fold counts")
    _check_table("mediator", g.table, "(fold, t, x, m)")
    _check_table("outcome", f.table, "(fold, m, t, x)")
    if not len(records):
        raise DataError("no records to score")
    if int(records.fold.max()) >= g.n_folds:
        raise DataError(
            f"record fold {int(records.fold.max())} outside the fitted models' {g.n_folds} folds"
        )
    n_x = records.domains.n_x
    fold_x = np.bincount(records.fold * n_x + records.x, minlength=g.n_folds * n_x)
    fold_x = fold_x.reshape(g.n_folds, n_x).astype(float)
    return tuple(float(v) for v in _effects(g.table, f.table, fold_x, x_weighting))


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------


def _replicate_counts(
    coded: CodedRecords, mediator_name: str, n_bootstrap: int, seed: int
) -> np.ndarray:
    """Cell counts of every replicate's within-fold resample.

    Replicate r resamples each fold's units with replacement from its own
    stream ``derive_seed(seed, "replicate:r")``; only the resample's
    (fold, m, t, x, y) cell counts are kept. Returns (B, F, K, 2, n_x, 2).
    """
    n_folds = coded.n_folds
    codes = glm.cell_codes(coded, mediator_name, coded.fold)
    fold_codes = [codes[coded.fold == f] for f in range(n_folds)]
    shape = glm.grid_shape(coded.domains, mediator_name, n_folds)
    n_cells = int(np.prod(shape))
    counts = np.empty((n_bootstrap, n_cells), dtype=np.int64)
    for r in range(n_bootstrap):
        rng = np.random.default_rng(derive_seed(seed, f"replicate:{r}"))
        draw = np.concatenate([fc[rng.integers(0, fc.size, size=fc.size)] for fc in fold_codes])
        counts[r] = np.bincount(draw, minlength=n_cells)
    return counts.reshape((n_bootstrap,) + shape)


def _levels_present(cells: np.ndarray, domains: Domains) -> np.ndarray:
    """Which t, m and confounder levels occur in (..., K, 2, n_x) cell counts.

    Returns (..., 2 + K + sum of confounder widths) booleans.
    """
    widths = tuple(len(levels) for _, levels in domains.confounders)
    per_x = cells.sum(axis=(-3, -2)).reshape(cells.shape[:-3] + widths)
    parts = [cells.sum(axis=(-3, -1)), cells.sum(axis=(-2, -1))]
    for j in range(len(widths)):
        others = tuple(i - len(widths) for i in range(len(widths)) if i != j)
        parts.append(per_x.sum(axis=others))
    return np.concatenate(parts, axis=-1) > 0


def _bootstrap_draws(
    coded: CodedRecords, mediator_name: str, n_bootstrap: int, seed: int, x_weighting: str
) -> np.ndarray:
    """(nde, nie) of every replicate, (B, 2); NaN rows mark dropped replicates.

    Refits are count-based and batched: all replicates' training counts
    come from one cell grid, and both nuisance models of every replicate
    and fold are fitted in one stacked Newton loop each, through the same
    glm.fit_mediator_tables/fit_outcome_tables step as the point fit. A
    replicate is dropped if its resample loses a t, m or confounder level
    present in the data, if any of its fits fails, or if any of its tables
    fails the validity rule that the point fit's validate() applies.
    """
    counts = _replicate_counts(coded, mediator_name, n_bootstrap, seed)
    domains = coded.domains
    cells = counts.sum(axis=(1, 5))
    lost = _levels_present(cells.sum(axis=0), domains) & ~_levels_present(cells, domains)
    kept = np.nonzero(~lost.any(axis=1))[0]
    draws = np.full((n_bootstrap, 2), np.nan)
    if not kept.size:
        return draws

    grid = counts[kept]
    train = (grid.sum(axis=1, keepdims=True) - grid).astype(float)
    g_table, g_fit, _ = glm.fit_mediator_tables(domains, train)
    f_table, f_fit, _ = glm.fit_outcome_tables(domains, train)
    ok = (
        (g_fit.status == glm.CONVERGED) & (f_fit.status == glm.CONVERGED)
        & glm.valid_mediator_tables(g_table) & glm.valid_outcome_tables(f_table)
    ).all(axis=1)

    fold_x = grid[ok].sum(axis=(2, 3, 5)).astype(float)
    nde, nie, _, _ = _effects(g_table[ok], f_table[ok], fold_x, x_weighting)
    draws[kept[ok]] = np.stack([nde, nie], axis=1)
    return draws


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
    ci_level: float = 0.90,
    x_weighting: str = "unit",
    max_dropped_fraction: float = 0.10,
) -> EffectEstimate:
    """Point estimates of the fitted pair plus percentile intervals from unit resampling.

    The point estimate scores the records with ``g`` and ``f`` (see
    fit_models). Every replicate resamples units with replacement within
    each fold (preserving the cross-fit protocol and fold sizes exactly),
    refits both nuisance models, and recomputes the effects. The refits are
    count-based and batched: a resample changes only cell counts, so every
    replicate's models are fitted from its counts in one stacked Newton
    solve per model (see _bootstrap_draws). Replicates whose resample loses
    a covariate level present in the original data, or whose refit fails,
    are dropped and counted; more than ``max_dropped_fraction`` dropped is
    an error. An interval that does not contain its point estimate is
    widened to it, and each such interval is counted in
    ``n_clamped_intervals``. Replicate seeds are derived independently, so
    any execution order produces identical intervals.
    """
    validate_settings(n_bootstrap, ci_level, x_weighting)
    mediator_name = g.mediator_name
    nde, nie, nie_rev, te = sample_effects(records, g, f, x_weighting)

    dropped = 0
    clamped = 0
    nde_ci, nie_ci = (nde, nde), (nie, nie)
    if n_bootstrap > 0:
        draws = _bootstrap_draws(records, mediator_name, n_bootstrap, seed, x_weighting)
        draws = draws[~np.isnan(draws[:, 0])]
        dropped = n_bootstrap - len(draws)
        if dropped > max_dropped_fraction * n_bootstrap:
            raise NumericalError(
                f"{dropped}/{n_bootstrap} bootstrap replicates dropped "
                f"(> {max_dropped_fraction:.0%}): data too sparse for resampling"
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
            x_weighting=config.x_weighting,
        )
        for g, f in models
    ]
