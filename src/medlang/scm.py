"""Synthetic conversations from a structural causal model, with exact oracles.

The model is fully categorical: confounders X (independent categorical
laws), binary treatment T with a logistic law, categorical mediators with
multinomial-logit laws in (T, X), and a binary outcome with a logistic law
in (M, T, X) plus an optional treatment-by-mediator interaction. Three
assumption-violation knobs mirror the named threats one-to-one, as explicit
structural edges:

- unmeasured_confounder: a latent U feeding every mediator and the outcome;
- mediator_coupling (rho): the second mediator depends on the first;
- temporal_carryover (tau): every mediator of unit i depends on unit i-1's
  outcome.

With all knobs off, sequential ignorability and mediator independence hold
by construction, and true effects are computed exactly by enumeration over
the finite (X, U, M) grid. A counterfactual Monte Carlo estimator provides
an independent second oracle for cross-checking.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import IO, Mapping, Sequence

import numpy as np
from scipy.special import expit

from .corpus import Utterance
from .errors import ConfigError, DataError
from .measure import CodedRecords, Domains
from .seeding import assign_folds, derive_seed

VIOLATION_KNOBS = ("unmeasured_confounder", "mediator_coupling", "temporal_carryover")

_PROB_TOL = 1e-9


def _check_probs(name: str, probs: Sequence[float]) -> tuple[float, ...]:
    vec = tuple(float(p) for p in probs)
    if not vec:
        raise ConfigError(f"{name}: empty probability vector")
    if any(p < 0 or not np.isfinite(p) for p in vec):
        raise ConfigError(f"{name}: probabilities must be finite and non-negative")
    if abs(sum(vec) - 1.0) > _PROB_TOL:
        raise ConfigError(f"{name}: probabilities sum to {sum(vec)!r}, expected 1")
    return vec


@dataclass(frozen=True)
class TreatmentLaw:
    """P(T = 1 | X) = expit(intercept + sum_c confounders[c][x_c])."""

    intercept: float
    confounders: Mapping[str, tuple[float, ...]]


@dataclass(frozen=True)
class MediatorLaw:
    """Multinomial logit over levels 0..levels-1, level 0 as reference.

    Score of level k (k >= 1):
        intercepts[k-1] + treatment[k-1] * t + sum_c confounders[c][k-1][x_c]
        (+ u_coeffs[k-1][u] under an unmeasured confounder,
         + rho * first-mediator level if this is the coupled mediator,
         + tau * previous unit's outcome under temporal carryover).
    """

    name: str
    levels: int
    intercepts: tuple[float, ...]
    treatment: tuple[float, ...]
    confounders: Mapping[str, tuple[tuple[float, ...], ...]]
    u_coeffs: tuple[tuple[float, ...], ...] | None = None


@dataclass(frozen=True)
class OutcomeLaw:
    """P(Y = 1 | M, T, X) = expit of a linear score in the parents.

    tm_interactions maps mediator name to per-level coefficients multiplied
    by t; mediators absent from it contribute no interaction.
    """

    intercept: float
    treatment: float
    mediators: Mapping[str, tuple[float, ...]]
    confounders: Mapping[str, tuple[float, ...]]
    tm_interactions: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    u_coeffs: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ScmSpec:
    """Complete generative specification plus assumption knobs.

    With mediator_coupling == 0, temporal_carryover == 0, and no u_law, the
    identification assumptions the estimators rely on hold by construction.
    """

    confounders: Mapping[str, tuple[float, ...]]
    treatment: TreatmentLaw
    mediators: tuple[MediatorLaw, ...]
    outcome: OutcomeLaw
    u_law: tuple[float, ...] | None = None
    mediator_coupling: float = 0.0
    temporal_carryover: float = 0.0
    seed: int = 0

    @property
    def mediator_names(self) -> tuple[str, ...]:
        return tuple(ml.name for ml in self.mediators)

    @property
    def confounder_names(self) -> tuple[str, ...]:
        return tuple(self.confounders)

    @property
    def n_u(self) -> int:
        return len(self.u_law) if self.u_law else 1

    @property
    def assumption_clean(self) -> bool:
        return (
            self.mediator_coupling == 0.0
            and self.temporal_carryover == 0.0
            and self.u_law is None
        )

    def domains(self) -> Domains:
        return Domains(
            confounders=tuple(
                (name, tuple(str(i) for i in range(len(probs))))
                for name, probs in self.confounders.items()
            ),
            mediators=tuple((ml.name, ml.levels) for ml in self.mediators),
        )

    def validate(self) -> None:
        if not self.confounders:
            raise ConfigError("spec needs at least one confounder")
        if not self.mediators:
            raise ConfigError("spec needs at least one mediator")
        names = self.confounder_names
        for name, probs in self.confounders.items():
            _check_probs(f"confounder {name!r}", probs)
        if self.u_law is not None:
            _check_probs("u_law", self.u_law)

        def check_conf_coeffs(owner: str, coeffs: Mapping[str, Sequence]) -> None:
            if set(coeffs) != set(names):
                raise ConfigError(
                    f"{owner}: confounder coefficients {sorted(coeffs)} != {sorted(names)}"
                )
            for cname, vec in coeffs.items():
                if len(vec) != len(self.confounders[cname]):
                    raise ConfigError(
                        f"{owner}: coefficient length for {cname!r} != number of levels"
                    )

        check_conf_coeffs("treatment law", self.treatment.confounders)
        seen = set()
        for ml in self.mediators:
            if ml.name in seen:
                raise ConfigError(f"duplicate mediator {ml.name!r}")
            seen.add(ml.name)
            if ml.levels < 2:
                raise ConfigError(f"mediator {ml.name!r}: needs at least 2 levels")
            if len(ml.intercepts) != ml.levels - 1 or len(ml.treatment) != ml.levels - 1:
                raise ConfigError(f"mediator {ml.name!r}: coefficient rows must have length levels-1")
            if set(ml.confounders) != set(names):
                raise ConfigError(f"mediator {ml.name!r}: confounder coefficient keys mismatch")
            for cname, rows in ml.confounders.items():
                if len(rows) != ml.levels - 1 or any(
                    len(row) != len(self.confounders[cname]) for row in rows
                ):
                    raise ConfigError(
                        f"mediator {ml.name!r}: coefficient shape for {cname!r} "
                        f"must be (levels-1, n_levels({cname}))"
                    )
            if (ml.u_coeffs is None) != (self.u_law is None):
                raise ConfigError(
                    f"mediator {ml.name!r}: u_coeffs must be present iff u_law is present"
                )
            if ml.u_coeffs is not None and (
                len(ml.u_coeffs) != ml.levels - 1
                or any(len(row) != self.n_u for row in ml.u_coeffs)
            ):
                raise ConfigError(f"mediator {ml.name!r}: u_coeffs shape must be (levels-1, n_u)")
        check_conf_coeffs("outcome law", self.outcome.confounders)
        if set(self.outcome.mediators) != set(self.mediator_names):
            raise ConfigError("outcome law: mediator coefficient keys mismatch")
        for mname, vec in self.outcome.mediators.items():
            sizes = {ml.name: ml.levels for ml in self.mediators}
            if len(vec) != sizes[mname]:
                raise ConfigError(f"outcome law: coefficients for {mname!r} must cover every level")
        for mname, vec in self.outcome.tm_interactions.items():
            sizes = {ml.name: ml.levels for ml in self.mediators}
            if mname not in sizes or len(vec) != sizes[mname]:
                raise ConfigError(f"outcome law: bad interaction coefficients for {mname!r}")
        if (self.outcome.u_coeffs is None) != (self.u_law is None):
            raise ConfigError("outcome law: u_coeffs must be present iff u_law is present")
        if self.outcome.u_coeffs is not None and len(self.outcome.u_coeffs) != self.n_u:
            raise ConfigError("outcome law: u_coeffs length must equal n_u")
        if self.mediator_coupling != 0.0 and len(self.mediators) < 2:
            raise ConfigError("mediator coupling needs at least two mediators")
        # Exhaustive evaluation over the finite parent grid: every law must
        # produce finite, valid probabilities.
        for t, xpos, u in self._parent_grid():
            p = self.treatment_prob(xpos, u)
            if not 0.0 <= p <= 1.0:
                raise ConfigError("treatment law produced an invalid probability")
            for j in range(len(self.mediators)):
                probs = self.mediator_probs(j, t, xpos, u)
                if not np.isfinite(probs).all():
                    raise ConfigError(f"mediator {self.mediators[j].name!r} law is non-finite")
            for mvec in itertools.product(*(range(ml.levels) for ml in self.mediators)):
                if not np.isfinite(self.outcome_prob(mvec, t, xpos, u)):
                    raise ConfigError("outcome law is non-finite")

    # -- pointwise laws -----------------------------------------------------

    def _parent_grid(self):
        ranges = [range(len(p)) for p in self.confounders.values()]
        for t in (0, 1):
            for xpos in itertools.product(*ranges):
                for u in range(self.n_u):
                    yield t, xpos, u

    def treatment_prob(self, xpos: Sequence[int], u: int = 0) -> float:
        score = self.treatment.intercept
        for value, (name, coefs) in zip(xpos, self.treatment.confounders.items()):
            score += coefs[value]
        return float(expit(score))

    def mediator_probs(
        self,
        j: int,
        t: int,
        xpos: Sequence[int],
        u: int = 0,
        first_mediator: int = 0,
        prev_outcome: int = 0,
    ) -> np.ndarray:
        ml = self.mediators[j]
        scores = np.zeros(ml.levels)
        for k in range(1, ml.levels):
            s = ml.intercepts[k - 1] + ml.treatment[k - 1] * t
            for value, name in zip(xpos, self.confounders):
                s += ml.confounders[name][k - 1][value]
            if ml.u_coeffs is not None:
                s += ml.u_coeffs[k - 1][u]
            if self.mediator_coupling != 0.0 and j == 1:
                s += self.mediator_coupling * first_mediator
            if self.temporal_carryover != 0.0:
                s += self.temporal_carryover * prev_outcome
            scores[k] = s
        e = np.exp(scores - scores.max())
        return e / e.sum()

    def outcome_prob(self, mvec: Sequence[int], t: int, xpos: Sequence[int], u: int = 0) -> float:
        law = self.outcome
        score = law.intercept + law.treatment * t
        for level, ml in zip(mvec, self.mediators):
            score += law.mediators[ml.name][level]
            inter = law.tm_interactions.get(ml.name)
            if inter is not None:
                score += inter[level] * t
        for value, name in zip(xpos, self.confounders):
            score += law.confounders[name][value]
        if law.u_coeffs is not None:
            score += law.u_coeffs[u]
        return float(expit(score))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "confounders": {k: list(v) for k, v in self.confounders.items()},
            "treatment": {
                "intercept": self.treatment.intercept,
                "confounders": {k: list(v) for k, v in self.treatment.confounders.items()},
            },
            "mediators": [
                {
                    "name": ml.name,
                    "levels": ml.levels,
                    "intercepts": list(ml.intercepts),
                    "treatment": list(ml.treatment),
                    "confounders": {k: [list(r) for r in v] for k, v in ml.confounders.items()},
                    "u_coeffs": [list(r) for r in ml.u_coeffs] if ml.u_coeffs else None,
                }
                for ml in self.mediators
            ],
            "outcome": {
                "intercept": self.outcome.intercept,
                "treatment": self.outcome.treatment,
                "mediators": {k: list(v) for k, v in self.outcome.mediators.items()},
                "tm_interactions": {
                    k: list(v) for k, v in self.outcome.tm_interactions.items()
                },
                "confounders": {k: list(v) for k, v in self.outcome.confounders.items()},
                "u_coeffs": list(self.outcome.u_coeffs) if self.outcome.u_coeffs else None,
            },
            "u_law": list(self.u_law) if self.u_law else None,
            "mediator_coupling": self.mediator_coupling,
            "temporal_carryover": self.temporal_carryover,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, obj: dict) -> "ScmSpec":
        def rows(value):
            return tuple(tuple(float(c) for c in row) for row in value) if value else None

        spec = cls(
            confounders={k: tuple(float(p) for p in v) for k, v in obj["confounders"].items()},
            treatment=TreatmentLaw(
                intercept=float(obj["treatment"]["intercept"]),
                confounders={
                    k: tuple(float(c) for c in v)
                    for k, v in obj["treatment"]["confounders"].items()
                },
            ),
            mediators=tuple(
                MediatorLaw(
                    name=m["name"],
                    levels=int(m["levels"]),
                    intercepts=tuple(float(c) for c in m["intercepts"]),
                    treatment=tuple(float(c) for c in m["treatment"]),
                    confounders={k: rows(v) for k, v in m["confounders"].items()},
                    u_coeffs=rows(m.get("u_coeffs")),
                )
                for m in obj["mediators"]
            ),
            outcome=OutcomeLaw(
                intercept=float(obj["outcome"]["intercept"]),
                treatment=float(obj["outcome"]["treatment"]),
                mediators={
                    k: tuple(float(c) for c in v) for k, v in obj["outcome"]["mediators"].items()
                },
                tm_interactions={
                    k: tuple(float(c) for c in v)
                    for k, v in (obj["outcome"].get("tm_interactions") or {}).items()
                },
                confounders={
                    k: tuple(float(c) for c in v)
                    for k, v in obj["outcome"]["confounders"].items()
                },
                u_coeffs=(
                    tuple(float(c) for c in obj["outcome"]["u_coeffs"])
                    if obj["outcome"].get("u_coeffs")
                    else None
                ),
            ),
            u_law=tuple(float(p) for p in obj["u_law"]) if obj.get("u_law") else None,
            mediator_coupling=float(obj.get("mediator_coupling", 0.0)),
            temporal_carryover=float(obj.get("temporal_carryover", 0.0)),
            seed=int(obj.get("seed", 0)),
        )
        spec.validate()
        return spec


def load_scm_spec(source: IO[str] | str) -> ScmSpec:
    text = source if isinstance(source, str) else source.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed structural model file: {exc.msg}") from exc
    except RecursionError as exc:
        raise DataError("malformed structural model file: nested too deeply") from exc
    return ScmSpec.from_dict(obj)


FIXTURE_NAMES = ("binary_scm", "two_mediator_scm")


def load_fixture(name: str) -> ScmSpec:
    """Load a coefficient fixture shipped with the package."""
    if name not in FIXTURE_NAMES:
        raise ConfigError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    text = resources.files("medlang.data.fixtures").joinpath(f"{name}.json").read_text("utf-8")
    return load_scm_spec(text)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerateResult:
    records: CodedRecords
    utterances: tuple[Utterance, ...] | None = None
    case_metadata: dict[str, dict] | None = None


def _sample_categorical(probs: Sequence[float], eps: np.ndarray) -> np.ndarray:
    cum = np.cumsum(np.asarray(probs, dtype=float))
    cum[-1] = 1.0
    return (eps[:, None] >= cum[None, :]).sum(axis=1)


def _mediator_base_scores(spec: ScmSpec, j: int, t: np.ndarray,
                          xpos: dict[str, np.ndarray], u: np.ndarray) -> np.ndarray:
    """(n, K) score matrix before coupling/carryover terms."""
    ml = spec.mediators[j]
    n = t.shape[0]
    scores = np.zeros((n, ml.levels))
    for k in range(1, ml.levels):
        s = ml.intercepts[k - 1] + ml.treatment[k - 1] * t
        for name in spec.confounders:
            s = s + np.asarray(ml.confounders[name][k - 1])[xpos[name]]
        if ml.u_coeffs is not None:
            s = s + np.asarray(ml.u_coeffs[k - 1])[u]
        scores[:, k] = s
    return scores


def _softmax_sample(scores: np.ndarray, eps: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = 1.0
    return (eps[:, None] >= cum).sum(axis=1)


def _outcome_logit(spec: ScmSpec, m: dict[str, np.ndarray], t: np.ndarray,
                   xpos: dict[str, np.ndarray], u: np.ndarray) -> np.ndarray:
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


RENDERABLE_MEDIATORS = ("hedging", "disfluency")


def _render_unit(i: int, t: int, m: Mapping[str, int], y: int) -> tuple[str, list[Utterance]]:
    case_id = f"case{i:07d}"
    surname = f"Smith{i:07d}"
    honorific = "Ms." if t == 1 else "Mr."
    core = "the record shows the statute controls here"
    if m.get("disfluency", 0) == 1:
        core = "the record - - record shows the statute controls here"
    if m.get("hedging", 0) == 1:
        body = "I think " + core
    else:
        body = core[0].upper() + core[1:]
    body = body + (" - -" if y == 1 else ".")
    turns = [
        Utterance(case_id, 0, "Chief Justice Burger", "chief_justice",
                  f"{honorific} {surname}, you may proceed."),
        Utterance(case_id, 1, f"Alex {surname}", "advocate", body),
        Utterance(case_id, 2, "Justice Marshall", "justice",
                  "What is your response to that point?"),
    ]
    return case_id, turns


def generate(
    spec: ScmSpec,
    n: int,
    seed: int | None = None,
    n_folds: int = 2,
    fold_seed: int | None = None,
    render: bool = False,
) -> GenerateResult:
    """Sample n units as CodedRecords; identical (spec, n, seed) reproduce them exactly.

    All uniform draws are generated up front in a fixed order, so the
    vectorized path (no carryover) and the sequential path (carryover on)
    agree whenever both apply. When ``render`` is set, each unit becomes a
    three-turn case (introduction, advocate turn, justice response) whose
    measured hedging/disfluency/interruption markers reproduce the sampled
    mediators and outcome exactly; confounder levels travel in the case
    metadata sidecar. Re-measuring a rendered corpus yields records
    identical to the sampled ones when the spec models both renderable
    mediators; a single-mediator spec round-trips to a strict superset
    (the measurement layer always measures hedging and disfluency).

    The records carry ``spec.domains()``.
    """
    spec.validate()
    if n < 0:
        raise ConfigError(f"n must be non-negative, got {n}")
    if render and any(name not in RENDERABLE_MEDIATORS for name in spec.mediator_names):
        raise ConfigError(
            f"transcript rendering supports mediators {RENDERABLE_MEDIATORS}, "
            f"got {spec.mediator_names}"
        )

    rng = np.random.default_rng(spec.seed if seed is None else seed)
    eps_x = {name: rng.random(n) for name in spec.confounders}
    eps_u = rng.random(n)
    eps_t = rng.random(n)
    eps_m = {ml.name: rng.random(n) for ml in spec.mediators}
    eps_y = rng.random(n)

    xpos = {name: _sample_categorical(probs, eps_x[name])
            for name, probs in spec.confounders.items()}
    u = (_sample_categorical(spec.u_law, eps_u) if spec.u_law is not None
         else np.zeros(n, dtype=np.int64))

    t_score = np.full(n, spec.treatment.intercept)
    for name in spec.confounders:
        t_score = t_score + np.asarray(spec.treatment.confounders[name])[xpos[name]]
    t = (eps_t < expit(t_score)).astype(np.int64)

    m: dict[str, np.ndarray] = {}
    if spec.temporal_carryover == 0.0:
        for j, ml in enumerate(spec.mediators):
            scores = _mediator_base_scores(spec, j, t, xpos, u)
            if spec.mediator_coupling != 0.0 and j == 1:
                first = m[spec.mediators[0].name]
                scores[:, 1:] += spec.mediator_coupling * first[:, None]
            m[ml.name] = _softmax_sample(scores, eps_m[ml.name])
        y = (eps_y < expit(_outcome_logit(spec, m, t, xpos, u))).astype(np.int64)
    else:
        base = [_mediator_base_scores(spec, j, t, xpos, u) for j in range(len(spec.mediators))]
        m = {ml.name: np.zeros(n, dtype=np.int64) for ml in spec.mediators}
        y = np.zeros(n, dtype=np.int64)
        prev_y = 0
        for i in range(n):
            first_value = 0
            for j, ml in enumerate(spec.mediators):
                scores = base[j][i].copy()
                scores[1:] += spec.temporal_carryover * prev_y
                if spec.mediator_coupling != 0.0 and j == 1:
                    scores[1:] += spec.mediator_coupling * first_value
                shifted = np.exp(scores - scores.max())
                cum = np.cumsum(shifted / shifted.sum())
                cum[-1] = 1.0
                level = int((eps_m[ml.name][i] >= cum).sum())
                m[ml.name][i] = level
                if j == 0:
                    first_value = level
            xp = tuple(int(xpos[name][i]) for name in spec.confounders)
            mvec = tuple(int(m[ml.name][i]) for ml in spec.mediators)
            p_y = spec.outcome_prob(mvec, int(t[i]), xp, int(u[i]))
            y[i] = int(eps_y[i] < p_y)
            prev_y = int(y[i])

    if render:
        unit_ids = [f"case{i:07d}:1" for i in range(n)]
    else:
        unit_ids = [f"u{i:07d}" for i in range(n)]
    if fold_seed is None:
        fold_seed = derive_seed(spec.seed if seed is None else seed, "folds")
    folds = assign_folds(unit_ids, n_folds, fold_seed) if n else {}

    # spec.domains() lists each confounder's levels in index order, so a
    # level's position is its sampled index.
    x = np.zeros(n, dtype=np.int64)
    for name, probs in spec.confounders.items():
        x = x * len(probs) + xpos[name]
    records = CodedRecords(
        unit_ids=tuple(unit_ids),
        t=t,
        x=x,
        m=m,
        y=y,
        fold=np.asarray([folds[uid] for uid in unit_ids], dtype=np.int64),
        domains=spec.domains(),
    )
    if not render:
        return GenerateResult(records=records)

    utterances: list[Utterance] = []
    case_metadata: dict[str, dict] = {}
    for i, rec in enumerate(records):
        case_id, turns = _render_unit(i, rec.t, rec.m, rec.y)
        utterances.extend(turns)
        case_metadata[case_id] = rec.x
    return GenerateResult(
        records=records, utterances=tuple(utterances), case_metadata=case_metadata
    )


# ---------------------------------------------------------------------------
# Exact oracle by enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """True effects for one mediator, computed exactly from the law."""

    mediator_name: str
    nde_true: float
    nie_true: float
    te_true: float
    nie_reversed_true: float

    def validate(self) -> None:
        if abs(self.te_true - self.nde_true - self.nie_reversed_true) > 1e-12:
            raise ConfigError("oracle identity te = nde + reversed nie violated")


def _require_oracle_clean(spec: ScmSpec) -> None:
    if spec.mediator_coupling != 0.0 or spec.temporal_carryover != 0.0:
        raise ConfigError(
            "exact oracle is defined only with zero mediator coupling and carryover"
        )


def _resolve_mediator(spec: ScmSpec, mediator_name: str | None) -> int:
    names = spec.mediator_names
    if mediator_name is None:
        if len(names) == 1:
            return 0
        raise ConfigError(f"spec has mediators {names}; name the one to analyze")
    try:
        return names.index(mediator_name)
    except ValueError:
        raise ConfigError(f"unknown mediator {mediator_name!r}; spec has {names}")


def exact_effects(spec: ScmSpec, mediator_name: str | None = None) -> OracleResult:
    """Exact NDE/NIE/TE for one mediator by summation over the finite grid.

    Other mediators follow treatment naturally (they are part of the
    pathway the per-mediator analysis leaves aside); an unmeasured
    confounder, when present, is marginalized as part of the true law.
    """
    spec.validate()
    _require_oracle_clean(spec)
    j = _resolve_mediator(spec, mediator_name)

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
            probs0 = [spec.mediator_probs(jj, 0, xpos, u) for jj in range(len(spec.mediators))]
            probs1 = [spec.mediator_probs(jj, 1, xpos, u) for jj in range(len(spec.mediators))]

            def expected_y(t_out: int, probs_by_mediator: list[np.ndarray]) -> float:
                total = 0.0
                for mvec in itertools.product(*level_ranges):
                    weight = 1.0
                    for jj, level in enumerate(mvec):
                        weight *= float(probs_by_mediator[jj][level])
                    if weight == 0.0:
                        continue
                    total += weight * spec.outcome_prob(mvec, t_out, xpos, u)
                return total

            mixed_nde = [probs0[jj] if jj == j else probs1[jj] for jj in range(len(spec.mediators))]
            mixed_nie = [probs1[jj] if jj == j else probs0[jj] for jj in range(len(spec.mediators))]
            y11 += w * expected_y(1, probs1)
            y00 += w * expected_y(0, probs0)
            y_nde_treated += w * expected_y(1, mixed_nde)
            y_nie += w * expected_y(0, mixed_nie)

    result = OracleResult(
        mediator_name=spec.mediators[j].name,
        nde_true=y_nde_treated - y00,
        nie_true=y_nie - y00,
        te_true=y11 - y00,
        nie_reversed_true=y11 - y_nde_treated,
    )
    result.validate()
    return result


def exact_effects_all(spec: ScmSpec) -> dict[str, OracleResult]:
    return {name: exact_effects(spec, name) for name in spec.mediator_names}


# ---------------------------------------------------------------------------
# Counterfactual Monte Carlo (independent second oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloEffects:
    mediator_name: str
    nde: float
    nie: float
    te: float
    nde_se: float
    nie_se: float
    te_se: float
    n_draws: int


def monte_carlo_effects(
    spec: ScmSpec,
    mediator_name: str | None = None,
    n_draws: int = 10_000_000,
    seed: int = 0,
    chunk_size: int = 1_000_000,
) -> MonteCarloEffects:
    """Counterfactual simulation of the potential-outcome contrasts.

    Mediator and outcome noise is shared across arms (inverse-CDF coupling
    for categorical draws, one uniform per outcome), so each draw produces
    coherent counterfactuals; averages estimate the same estimands as
    exact_effects.
    """
    spec.validate()
    _require_oracle_clean(spec)
    j = _resolve_mediator(spec, mediator_name)
    names = list(spec.confounders)
    rng = np.random.default_rng(seed)

    sums = np.zeros(3)
    sq_sums = np.zeros(3)
    done = 0
    while done < n_draws:
        size = min(chunk_size, n_draws - done)
        xpos = {
            name: _sample_categorical(spec.confounders[name], rng.random(size))
            for name in names
        }
        u = (_sample_categorical(spec.u_law, rng.random(size)) if spec.u_law is not None
             else np.zeros(size, dtype=np.int64))
        m_arm: dict[int, dict[str, np.ndarray]] = {0: {}, 1: {}}
        for jj, ml in enumerate(spec.mediators):
            eps = rng.random(size)
            for t_arm in (0, 1):
                scores = _mediator_base_scores(
                    spec, jj, np.full(size, t_arm, dtype=np.int64), xpos, u
                )
                m_arm[t_arm][ml.name] = _softmax_sample(scores, eps)
        eps_y = rng.random(size)

        def y_of(t_out: int, m_map: dict[str, np.ndarray]) -> np.ndarray:
            t_vec = np.full(size, t_out, dtype=np.int64)
            return (eps_y < expit(_outcome_logit(spec, m_map, t_vec, xpos, u))).astype(np.int64)

        name_j = spec.mediators[j].name
        m_nde = {n_: (m_arm[0][n_] if n_ == name_j else m_arm[1][n_]) for n_ in m_arm[0]}
        m_nie = {n_: (m_arm[1][n_] if n_ == name_j else m_arm[0][n_]) for n_ in m_arm[0]}
        y_base = y_of(0, m_arm[0])
        diffs = np.stack(
            [
                y_of(1, m_nde) - y_base,
                y_of(0, m_nie) - y_base,
                y_of(1, m_arm[1]) - y_base,
            ]
        )
        sums += diffs.sum(axis=1)
        sq_sums += (diffs * diffs).sum(axis=1)
        done += size

    means = sums / n_draws
    variances = np.maximum(sq_sums / n_draws - means**2, 0.0)
    ses = np.sqrt(variances / n_draws)
    return MonteCarloEffects(
        mediator_name=spec.mediators[j].name,
        nde=float(means[0]),
        nie=float(means[1]),
        te=float(means[2]),
        nde_se=float(ses[0]),
        nie_se=float(ses[1]),
        te_se=float(ses[2]),
        n_draws=n_draws,
    )


# ---------------------------------------------------------------------------
# Violation knobs and studies
# ---------------------------------------------------------------------------


def with_knob(spec: ScmSpec, knob: str, magnitude: float) -> ScmSpec:
    """Return a copy of the spec with one violation knob set."""
    if knob == "unmeasured_confounder":
        if spec.u_law is not None:
            raise ConfigError("base spec already carries an unmeasured confounder")
        mediators = tuple(
            replace(ml, u_coeffs=tuple((0.0, magnitude) for _ in range(ml.levels - 1)))
            for ml in spec.mediators
        )
        out = replace(
            spec,
            u_law=(0.5, 0.5),
            mediators=mediators,
            outcome=replace(spec.outcome, u_coeffs=(0.0, magnitude)),
        )
    elif knob == "mediator_coupling":
        if len(spec.mediators) < 2:
            raise ConfigError("mediator coupling needs at least two mediators")
        out = replace(spec, mediator_coupling=magnitude)
    elif knob == "temporal_carryover":
        out = replace(spec, temporal_carryover=magnitude)
    else:
        raise ConfigError(f"unknown knob {knob!r}; choose from {VIOLATION_KNOBS}")
    out.validate()
    return out


@dataclass(frozen=True)
class ViolationRow:
    knob: str
    magnitude: float
    mediator: str
    nde_estimate: float
    nie_estimate: float
    nde_true: float
    nie_true: float
    nde_bias: float
    nie_bias: float


def violation_study(
    spec_base: ScmSpec,
    knob: str,
    magnitude_grid: Sequence[float],
    n: int,
    seed: int,
    n_folds: int = 2,
    x_weighting: str = "unit",
) -> list[ViolationRow]:
    """Bias of the full estimation pipeline as one knob turns.

    For each magnitude, samples data with the knob active, runs the
    cross-fitted estimators for every mediator, and reports the deviation
    from the zero-knob exact oracle.
    """
    from .mediation import fit_models, sample_effects

    spec_base.validate()
    if not spec_base.assumption_clean:
        raise ConfigError("violation studies need an assumption-clean base spec")
    if knob not in VIOLATION_KNOBS:
        raise ConfigError(f"unknown knob {knob!r}; choose from {VIOLATION_KNOBS}")
    oracles = exact_effects_all(spec_base)

    rows: list[ViolationRow] = []
    for magnitude in magnitude_grid:
        spec_m = with_knob(spec_base, knob, float(magnitude))
        result = generate(
            spec_m,
            n,
            seed=derive_seed(seed, f"{knob}:{magnitude!r}"),
            n_folds=n_folds,
            fold_seed=derive_seed(seed, f"{knob}:{magnitude!r}:folds"),
        )
        records = result.records
        for name in spec_base.mediator_names:
            nde_est, nie_est, _, _ = sample_effects(records, *fit_models(records, name),
                                                    x_weighting)
            oracle = oracles[name]
            rows.append(
                ViolationRow(
                    knob=knob,
                    magnitude=float(magnitude),
                    mediator=name,
                    nde_estimate=nde_est,
                    nie_estimate=nie_est,
                    nde_true=oracle.nde_true,
                    nie_true=oracle.nie_true,
                    nde_bias=nde_est - oracle.nde_true,
                    nie_bias=nie_est - oracle.nie_true,
                )
            )
    return rows
