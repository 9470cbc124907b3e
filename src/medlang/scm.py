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

Every law has finite parents, so each is evaluated exactly once, as a table
over its parent grid (``_tabulate``): P(X = x) and P(T = 1 | x) by the
mixed-radix confounder code x that CodedRecords carries; each mediator's
distribution over (t, x, u, previous unit's outcome, first mediator); and
P(Y = 1 | t, x, u, m_1..m_J). Validation checks those tables, sampling
draws from their cumulative forms by inverse CDF, and the exact oracle is
the mediation formula: a weighted sum over the same tables. With all knobs
off, sequential ignorability and mediator independence hold by
construction, so that sum gives the true effects. A counterfactual Monte
Carlo estimator cross-checks the sum by simulation.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import cache, cached_property
from importlib import resources
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import IO, Mapping, Sequence

import numpy as np

from .corpus import Utterance, case_metadata_template, lone_surrogate, utterance_to_json
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


def _check_seed(seed: int) -> int:
    """A seed for np.random.default_rng, which takes only non-negative integers."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


@dataclass(frozen=True)
class TreatmentLaw:
    """P(T = 1 | X) = logistic(intercept + sum_c confounders[c][x_c])."""

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
    """P(Y = 1 | M, T, X) = logistic of a linear score in the parents.

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
        """Raise ConfigError unless the spec is well formed and its laws are valid."""
        _tabulate(self)

    def _check_structure(self) -> None:
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
        sizes = {ml.name: ml.levels for ml in self.mediators}
        for mname, vec in self.outcome.mediators.items():
            if len(vec) != sizes[mname]:
                raise ConfigError(f"outcome law: coefficients for {mname!r} must cover every level")
        for mname, vec in self.outcome.tm_interactions.items():
            if mname not in sizes or len(vec) != sizes[mname]:
                raise ConfigError(f"outcome law: bad interaction coefficients for {mname!r}")
        if (self.outcome.u_coeffs is None) != (self.u_law is None):
            raise ConfigError("outcome law: u_coeffs must be present iff u_law is present")
        if self.outcome.u_coeffs is not None and len(self.outcome.u_coeffs) != self.n_u:
            raise ConfigError("outcome law: u_coeffs length must equal n_u")
        if self.mediator_coupling != 0.0 and len(self.mediators) < 2:
            raise ConfigError("mediator coupling needs at least two mediators")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, obj) -> "ScmSpec":
        """Build and validate a spec from parsed JSON.

        A wrong shape, a missing key or a wrong value type is a DataError that
        names the key; a well-typed spec with an invalid law is a ConfigError.
        """
        root = _SpecNode(obj)
        treatment, outcome = root["treatment"], root["outcome"]
        spec = cls(
            confounders=root["confounders"].by_name(1),
            treatment=TreatmentLaw(
                intercept=treatment["intercept"].floats(0),
                confounders=treatment["confounders"].by_name(1),
            ),
            mediators=tuple(
                MediatorLaw(
                    name=m["name"].of(str, "a string"),
                    levels=m["levels"].of(int, "an integer"),
                    intercepts=m["intercepts"].floats(1),
                    treatment=m["treatment"].floats(1),
                    confounders=m["confounders"].by_name(2),
                    u_coeffs=m.get("u_coeffs", 2),
                )
                for m in root["mediators"].elements()
            ),
            outcome=OutcomeLaw(
                intercept=outcome["intercept"].floats(0),
                treatment=outcome["treatment"].floats(0),
                mediators=outcome["mediators"].by_name(1),
                tm_interactions=(outcome["tm_interactions"].by_name(1)
                                 if outcome.is_set("tm_interactions") else {}),
                confounders=outcome["confounders"].by_name(1),
                u_coeffs=outcome.get("u_coeffs", 1),
            ),
            u_law=root.get("u_law", 1),
            mediator_coupling=root.get("mediator_coupling", 0, 0.0),
            temporal_carryover=root.get("temporal_carryover", 0, 0.0),
            seed=root["seed"].of(int, "an integer") if root.is_set("seed") else 0,
        )
        spec.validate()
        return spec


class _SpecNode:
    """One value of a parsed spec file with its key path, read with type checks.

    A wrong shape, a missing key or a wrong value type is a DataError that
    names the path, e.g. ``spec.mediators[1].intercepts[0]``.
    """

    def __init__(self, value, path: str = "spec"):
        self.value = value
        self.path = path

    def of(self, kind, expected: str):
        """The value, if it is an instance of kind; a bool is never a number."""
        if not isinstance(self.value, kind) or isinstance(self.value, bool):
            raise DataError(f"structural model: {self.path} must be {expected}, "
                            f"got {type(self.value).__name__}")
        return self.value

    def __getitem__(self, key: str) -> "_SpecNode":
        if key not in self.of(dict, "an object"):
            raise DataError(f"structural model: {self.path} has no key {key!r}")
        return _SpecNode(self.value[key], f"{self.path}.{key}")

    def is_set(self, key: str) -> bool:
        """Whether key holds a value other than null or an empty list or object."""
        return self.of(dict, "an object").get(key) not in (None, [], {})

    def get(self, key: str, depth: int, default=None):
        """floats(depth) of the value at key, or default if it is not set."""
        return self[key].floats(depth) if self.is_set(key) else default

    def elements(self) -> list["_SpecNode"]:
        return [_SpecNode(v, f"{self.path}[{i}]") for i, v in enumerate(self.of(list, "a list"))]

    def by_name(self, depth: int) -> dict[str, tuple]:
        return {key: self[key].floats(depth) for key in self.of(dict, "an object")}

    def floats(self, depth: int):
        """A number (depth 0), or a list of depth - 1 values, as floats."""
        if depth:
            return tuple(node.floats(depth - 1) for node in self.elements())
        try:
            return float(self.of((int, float), "a number"))
        except OverflowError:
            raise DataError(f"structural model: {self.path} is out of range") from None


def load_scm_spec(source: IO[str] | str) -> ScmSpec:
    try:
        obj = json.loads(source if isinstance(source, str) else source.read())
        surrogate = lone_surrogate(obj)
    except UnicodeDecodeError as exc:
        raise DataError("malformed structural model file: not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed structural model file: {exc.msg}") from exc
    except RecursionError as exc:
        raise DataError("malformed structural model file: nested too deeply") from exc
    if surrogate:
        raise DataError(f"malformed structural model file: lone surrogate {surrogate}")
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
    """Sampled records, and whether generate rendered them as transcripts.

    Rendered unit i is the three-turn case ``case{i:07d}``. Its turns and
    metadata follow from the record columns, so ``utterances`` and
    ``case_metadata`` are built when first read (they are None unless
    rendered), and write_rendered_transcript/write_rendered_metadata
    write the files without them.
    """

    records: CodedRecords
    rendered: bool = False

    @cached_property
    def utterances(self) -> tuple[Utterance, ...] | None:
        if not self.rendered:
            return None
        rows = zip(*(column.tolist() for column in _render_columns(self.records)))
        return tuple(turn for i, row in enumerate(rows) for turn in _render_unit(i, *row)[1])

    @cached_property
    def case_metadata(self) -> dict[str, dict] | None:
        if not self.rendered:
            return None
        codes = self.records.x.tolist()
        x_levels = {code: self.records.domains.x_assignment(code) for code in set(codes)}
        return {f"case{i:07d}": dict(x_levels[code]) for i, code in enumerate(codes)}


@dataclass(frozen=True)
class _LawTables:
    """Every law of a spec, evaluated once over its finite parent grid.

    x is the mixed-radix code of the confounder levels in spec order (the
    code CodedRecords carries); u is the latent level, always 0 without a
    u_law. Mediator tables carry two knob axes: the previous unit's outcome
    (temporal carryover) and the first mediator's level (coupling, which
    enters only the second mediator's law).
    """

    x: np.ndarray  # P(X = x), shape (n_x,)
    u: np.ndarray  # P(U = u), shape (n_u,)
    treatment: np.ndarray  # P(T = 1 | x), shape (n_x,)
    # P(M_j = k | t, x, u, prev_y, m_1), shape (2, n_x, n_u, 2, K_1, K_j) per mediator
    mediators: tuple[np.ndarray, ...]
    outcome: np.ndarray  # P(Y = 1 | t, x, u, m_1..m_J), shape (2, n_x, n_u, K_1, ..., K_J)


def _expit(v: float) -> float:
    """1 / (1 + exp(-v)), bit for bit scipy.special.expit.

    This is math.exp (libm), not np.exp: numpy's SIMD exp can differ from
    libm in the last bit, which would change the sampled records and
    oracle.json.
    """
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # exp(-v) exceeds the largest double for v < -709.78
        return 0.0


def _logistic(score: np.ndarray) -> np.ndarray:
    """_expit of every cell; a law table has one cell per parent combination."""
    return np.array([_expit(v) for v in score.ravel().tolist()], dtype=float).reshape(score.shape)


# Overflow gives inf or nan scores, which the checks at the end reject.
@np.errstate(over="ignore", invalid="ignore")
def _tabulate(spec: ScmSpec) -> _LawTables:
    """Check the spec's structure, tabulate every law and check its values.

    Each score adds its terms in one fixed order (intercept, treatment,
    mediators, confounders in spec order, u, carryover, coupling), so
    generation and both oracles read the same floats.
    """
    spec._check_structure()
    names = spec.confounder_names
    x_levels = np.indices([len(spec.confounders[name]) for name in names]).reshape(len(names), -1)
    n_x, n_u = x_levels.shape[1], spec.n_u

    def add_confounders(score, coeffs, x):
        for vec, levels in zip(coeffs, x_levels):
            score = score + np.asarray(vec)[levels[x]]
        return score

    p_x = 1.0
    for name, levels in zip(names, x_levels):
        p_x = p_x * np.asarray(spec.confounders[name])[levels]
    law_t = spec.treatment
    treatment = _logistic(add_confounders(np.full(n_x, law_t.intercept),
                                          [law_t.confounders[name] for name in names],
                                          np.arange(n_x)))

    parents = (2, n_x, n_u, 2, spec.mediators[0].levels)
    t, x, u, prev_y, first = np.ix_(*(np.arange(size) for size in parents))
    mediators = []
    for j, ml in enumerate(spec.mediators):
        coupling = spec.mediator_coupling if j == 1 else 0.0
        scores = np.zeros(parents + (ml.levels,))
        for k in range(1, ml.levels):
            s = add_confounders(ml.intercepts[k - 1] + ml.treatment[k - 1] * t,
                                [ml.confounders[name][k - 1] for name in names], x)
            if ml.u_coeffs is not None:
                s = s + np.asarray(ml.u_coeffs[k - 1])[u]
            scores[..., k] = s + spec.temporal_carryover * prev_y + coupling * first
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        mediators.append(e / e.sum(axis=-1, keepdims=True))

    law_y = spec.outcome
    t, x, u, *m = np.ix_(np.arange(2), np.arange(n_x), np.arange(n_u),
                         *(np.arange(ml.levels) for ml in spec.mediators))
    score = law_y.intercept + law_y.treatment * t
    for ml, levels in zip(spec.mediators, m):
        score = score + np.asarray(law_y.mediators[ml.name])[levels]
        inter = law_y.tm_interactions.get(ml.name)
        if inter is not None:
            score = score + np.asarray(inter)[levels] * t
    score = add_confounders(score, [law_y.confounders[name] for name in names], x)
    if law_y.u_coeffs is not None:
        score = score + np.asarray(law_y.u_coeffs)[u]
    outcome = _logistic(score)

    if not ((treatment >= 0.0) & (treatment <= 1.0)).all():
        raise ConfigError("treatment law produced an invalid probability")
    for ml, table in zip(spec.mediators, mediators):
        if not np.isfinite(table).all():
            raise ConfigError(f"mediator {ml.name!r} law is non-finite")
    if not np.isfinite(outcome).all():
        raise ConfigError("outcome law is non-finite")
    u_law = spec.u_law if spec.u_law is not None else (1.0,)
    return _LawTables(x=p_x, u=np.asarray(u_law, dtype=float), treatment=treatment,
                      mediators=tuple(mediators), outcome=outcome)


def _cdf(pmf) -> np.ndarray:
    """Cumulative distribution over the last axis, its top pinned to exactly 1."""
    cdf = np.cumsum(np.asarray(pmf, dtype=float), axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _inverse_cdf(cdf: np.ndarray, eps: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """The level each uniform in eps draws by inverse CDF.

    cdf holds one distribution per row: its last axis is the level, its
    other axes are flattened in C order. eps[i] draws from row index[i], or,
    without an index, from the one row of a 1-D cdf. A level is the number
    of CDF columns at or below its uniform, counted one column at a time
    from a 1-D gather. The pinned top column is skipped: a uniform in
    [0, 1) never reaches 1.
    """
    columns = np.ascontiguousarray(np.reshape(cdf, (-1, np.shape(cdf)[-1])).T)
    level = np.zeros(len(eps), dtype=np.int64)
    for column in columns[:-1]:
        level += eps >= (column[0] if index is None else column.take(index))
    return level


def _draw_confounders(spec: ScmSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """Mixed-radix x codes of size draws, one uniform vector per confounder in spec order.

    spec.domains() lists each confounder's levels in index order, so a
    level's position in the domain is its drawn index.
    """
    x = np.zeros(size, dtype=np.int64)
    for probs in spec.confounders.values():
        x = x * len(probs) + _inverse_cdf(_cdf(probs), rng.random(size))
    return x


RENDERABLE_MEDIATORS = ("hedging", "disfluency")


def _render_turns(number: str, t: int, hedging: int, disfluency: int,
                  y: int) -> list[Utterance]:
    """The three turns of the case numbered ``number``: the one source of rendered text."""
    case_id = f"case{number}"
    surname = f"Smith{number}"
    honorific = "Ms." if t == 1 else "Mr."
    core = "the record shows the statute controls here"
    if disfluency == 1:
        core = "the record - - record shows the statute controls here"
    if hedging == 1:
        body = "I think " + core
    else:
        body = core[0].upper() + core[1:]
    body = body + (" - -" if y == 1 else ".")
    return [
        Utterance(case_id, 0, "Chief Justice Burger", "chief_justice",
                  f"{honorific} {surname}, you may proceed."),
        Utterance(case_id, 1, f"Alex {surname}", "advocate", body),
        Utterance(case_id, 2, "Justice Marshall", "justice",
                  "What is your response to that point?"),
    ]


def _render_unit(i: int, t: int, hedging: int, disfluency: int,
                 y: int) -> tuple[str, list[Utterance]]:
    turns = _render_turns(f"{i:07d}", t, hedging, disfluency, y)
    return turns[0].case_id, turns


def _render_columns(records: CodedRecords) -> tuple[np.ndarray, ...]:
    """The columns t, hedging, disfluency, y; a mediator the spec lacks renders as absent."""
    absent = np.zeros(len(records), dtype=np.int64)
    return (records.t, *(records.m.get(name, absent) for name in RENDERABLE_MEDIATORS),
            records.y)


@cache
def _transcript_templates() -> tuple[tuple[str, ...], ...]:
    """A case's three transcript lines by the code 8t + 4 hedging + 2 disfluency + y.

    Each is rendered once with a NUL case number and split where that
    number stands, so joining the pieces with a case number gives the
    lines utterance_to_json writes for that case.
    """
    placeholder = encode_basestring("\0")[1:-1]  # the NUL as its JSON escape
    return tuple(
        tuple("".join(utterance_to_json(turn) + "\n" for turn in _render_turns("\0", *bits))
              .split(placeholder))
        for bits in itertools.product((0, 1), repeat=4)
    )


def _case_order(n: int, digits: int = 7) -> Sequence[int]:
    """Unit indices 0..n-1 in the sorted order of their case numbers, zero-padded to digits.

    While every number has the same width (n <= 10**digits) that is index
    order; a wider number sorts by its text among the narrower ones.
    """
    if n <= 10**digits:
        return range(n)
    return sorted(range(n), key=lambda i: f"{i:0{digits}d}")


def write_rendered_transcript(result: GenerateResult, stream: IO[str]) -> None:
    """A rendered result's transcript, as write_transcript writes result.utterances."""
    templates = _transcript_templates()
    t, hedging, disfluency, y = _render_columns(result.records)
    codes = (8 * t + 4 * hedging + 2 * disfluency + y).tolist()
    stream.write("".join([f"{i:07d}".join(templates[code]) for i, code in enumerate(codes)]))


def write_rendered_metadata(result: GenerateResult, stream: IO[str]) -> None:
    """A rendered result's metadata sidecar, as write_case_metadata writes result.case_metadata."""
    codes = result.records.x.tolist()
    domains = result.records.domains
    around = {code: case_metadata_template(domains.x_assignment(code)) for code in set(codes)}
    stream.write("".join([encode_basestring_ascii(f"case{i:07d}").join(around[codes[i]])
                          for i in _case_order(len(codes))]))


def generate(
    spec: ScmSpec,
    n: int,
    seed: int | None = None,
    n_folds: int = 2,
    fold_seed: int | None = None,
    render: bool = False,
) -> GenerateResult:
    """Sample n units as CodedRecords; identical (spec, n, seed) reproduce them exactly.

    All uniform draws are generated up front in a fixed order, and each
    becomes a level by inverse CDF on the law tables. Under temporal
    carryover a unit's mediators and outcome also depend on the previous
    unit's outcome; that outcome is binary, so every unit's draws are made
    under both values at once and one pass over the units follows the chain.

    When ``render`` is set, each unit becomes a
    three-turn case (introduction, advocate turn, justice response) whose
    measured hedging/disfluency/interruption markers reproduce the sampled
    mediators and outcome exactly; confounder levels travel in the case
    metadata sidecar. A marker is present or absent, so rendering needs
    binary hedging/disfluency mediators. Re-measuring a rendered corpus
    yields records identical to the sampled ones when the spec models both
    renderable mediators; a single-mediator spec round-trips to a strict
    superset (the measurement layer always measures hedging and disfluency).

    The records carry ``spec.domains()``.
    """
    laws = _tabulate(spec)
    if n < 0:
        raise ConfigError(f"n must be non-negative, got {n}")
    if render and any(name not in RENDERABLE_MEDIATORS for name in spec.mediator_names):
        raise ConfigError(
            f"transcript rendering supports mediators {RENDERABLE_MEDIATORS}, "
            f"got {spec.mediator_names}"
        )
    not_binary = {ml.name: ml.levels for ml in spec.mediators if ml.levels != 2}
    if render and not_binary:
        raise ConfigError(
            "transcript rendering marks a mediator present or absent, so each needs "
            f"2 levels; got levels {not_binary}"
        )

    rng = np.random.default_rng(_check_seed(spec.seed if seed is None else seed))
    x = _draw_confounders(spec, rng, n)
    eps_u = rng.random(n)
    eps_t = rng.random(n)
    eps_m = [rng.random(n) for _ in spec.mediators]
    eps_y = rng.random(n)
    u = _inverse_cdf(_cdf(laws.u), eps_u)
    t = (eps_t < laws.treatment[x]).astype(np.int64)
    cdfs = [_cdf(table) for table in laws.mediators]
    # Each unit's (t, x, u) row of a mediator table, scaled past the prev_y axis.
    row = ((t * laws.x.size + x) * laws.u.size + u) * 2
    n_first = spec.mediators[0].levels

    def draw(prev_y):
        """Every unit's mediator levels and outcome, given its previous unit's outcome."""
        levels: list[np.ndarray] = []
        for cdf, eps in zip(cdfs, eps_m):
            first = levels[0] if levels else 0
            levels.append(_inverse_cdf(cdf, eps, (row + prev_y) * n_first + first))
        return levels, (eps_y < laws.outcome[(t, x, u, *levels)]).astype(np.int64)

    prev_y = 0
    if spec.temporal_carryover != 0.0:
        chain, y_last = [], 0
        for y_if_0, y_if_1 in zip(*(draw(value)[1].tolist() for value in (0, 1))):
            chain.append(y_last)
            y_last = y_if_1 if y_last else y_if_0
        prev_y = np.asarray(chain, dtype=np.int64)
    levels, y = draw(prev_y)
    m = dict(zip(spec.mediator_names, levels))

    if render:
        unit_ids = [f"case{i:07d}:1" for i in range(n)]
    else:
        unit_ids = [f"u{i:07d}" for i in range(n)]
    if fold_seed is None:
        fold_seed = derive_seed(spec.seed if seed is None else seed, "folds")
    folds = assign_folds(unit_ids, n_folds, fold_seed) if n else {}

    records = CodedRecords(
        unit_ids=tuple(unit_ids),
        t=t,
        x=x,
        m=m,
        y=y,
        fold=np.asarray([folds[uid] for uid in unit_ids], dtype=np.int64),
        domains=spec.domains(),
    )
    return GenerateResult(records=records, rendered=render)


# ---------------------------------------------------------------------------
# Exact oracle: the mediation formula over the law tables
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


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order (np.sum adds pairwise, which rounds differently)."""
    return np.cumsum(a, axis=-1)[..., -1]


def exact_effects(spec: ScmSpec, mediator_name: str | None = None) -> OracleResult:
    """Exact NDE/NIE/TE for one mediator: the mediation formula over the law tables.

    Each contrast is built from E[Y(t, M_j(a), M_rest(b))], the sum over
    (x, u, m) of P(x) P(u) P(m_j | a, x, u) prod_{k != j} P(m_k | b, x, u)
    P(Y = 1 | t, x, u, m) (Pearl, "Direct and Indirect Effects", UAI 2001).
    Other mediators follow treatment naturally (they are part of the
    pathway the per-mediator analysis leaves aside); an unmeasured
    confounder, when present, is marginalized as part of the true law.
    Cells are summed in index order: m innermost, then u, then x.
    """
    laws = _tabulate(spec)
    _require_oracle_clean(spec)
    j = _resolve_mediator(spec, mediator_name)
    w = (laws.x[:, None] * laws.u[None, :]).reshape(-1)
    # P(m_k | t, x, u) with both knob axes at 0, shaped to broadcast over the m grid.
    m_axes = range(3, 3 + len(spec.mediators))
    pmfs = [np.expand_dims(table[:, :, :, 0, 0], [a for a in m_axes if a != 3 + k])
            for k, table in enumerate(laws.mediators)]

    def mean_outcome(t: int, a: int, b: int) -> float:
        """E[Y(t, M_j(a), M_rest(b))]."""
        weight = 1.0
        for k, pmf in enumerate(pmfs):
            weight = weight * pmf[a if k == j else b]
        cells = (weight * laws.outcome[t]).reshape(w.size, -1)
        return float(_ordered_sum(w * _ordered_sum(cells)))

    y00, y11 = mean_outcome(0, 0, 0), mean_outcome(1, 1, 1)
    y_nde_treated, y_nie = mean_outcome(1, 0, 1), mean_outcome(0, 1, 0)
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
# Counterfactual Monte Carlo (second oracle, simulating from the same tables)
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


#: Draws per Monte Carlo batch; the batch size fixes the random stream.
_MC_BATCH = 1_000_000


def monte_carlo_effects(
    spec: ScmSpec,
    mediator_name: str | None = None,
    n_draws: int = 10_000_000,
    seed: int = 0,
) -> MonteCarloEffects:
    """Counterfactual simulation of the potential-outcome contrasts.

    Mediator and outcome noise is shared across arms (inverse-CDF coupling
    for categorical draws, one uniform per outcome), so each draw produces
    coherent counterfactuals; averages estimate the same estimands as
    exact_effects.

    Each draw's (x, u) is one row code, and every table is read by one
    flat index: a mediator's CDF columns by that row, the outcome table by
    the mixed-radix code of (t, x, u, m_1..m_J). Each contrast is a
    difference of two binary outcomes, so its sum and its sum of squares
    are counts.
    """
    if n_draws < 1:
        raise ConfigError(f"n_draws must be at least 1, got {n_draws}")
    laws = _tabulate(spec)
    _require_oracle_clean(spec)
    j = _resolve_mediator(spec, mediator_name)
    u_cdf = _cdf(laws.u)
    # Per mediator, P(M_j <= k | t, x, u) for each arm t, rows by the (x, u) code.
    cdfs = [[_cdf(table[t_arm, :, :, 0, 0]) for t_arm in (0, 1)] for table in laws.mediators]
    outcome = laws.outcome.ravel()
    n_m = math.prod(ml.levels for ml in spec.mediators)
    arm_offset = laws.x.size * laws.u.size * n_m  # flat distance from t = 0 to t = 1
    strides = [math.prod(ml.levels for ml in spec.mediators[k + 1:])
               for k in range(len(spec.mediators))]
    rng = np.random.default_rng(_check_seed(seed))

    sums = np.zeros(3)
    sq_sums = np.zeros(3)
    for start in range(0, n_draws, _MC_BATCH):
        size = min(_MC_BATCH, n_draws - start)
        row = _draw_confounders(spec, rng, size)
        if spec.u_law is not None:
            row = row * laws.u.size + _inverse_cdf(u_cdf, rng.random(size))
        arms: tuple[list[np.ndarray], list[np.ndarray]] = ([], [])
        for arm_cdfs in cdfs:
            eps = rng.random(size)
            for t_arm in (0, 1):
                arms[t_arm].append(_inverse_cdf(arm_cdfs[t_arm], eps, row))
        eps_y = rng.random(size)
        block = row * n_m

        def y_of(t: int, a: int, b: int) -> np.ndarray:
            """Y(t, M_j(a), M_rest(b)) of every draw, as booleans."""
            index = block + t * arm_offset
            for k, stride in enumerate(strides):
                index = index + arms[a if k == j else b][k] * stride
            return eps_y < outcome.take(index)

        y_base = y_of(0, 0, 0)
        n_base = np.count_nonzero(y_base)
        for c, (t, a, b) in enumerate(((1, 0, 1), (0, 1, 0), (1, 1, 1))):
            y = y_of(t, a, b)
            sums[c] += np.count_nonzero(y) - n_base
            sq_sums[c] += np.count_nonzero(y != y_base)

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
