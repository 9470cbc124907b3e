"""Measurement functions mapping transcript text to causal variables.

Treatment is the gender signal read off the chief justice's honorific
introduction ("Ms." vs "Mr."); the outcome is the trailing double-dash
interruption marker; mediators are hedging (lexicon match), speech
disfluency (a unigram repeated across a transcribed double dash), and
optionally the dominant topic under a fitted topic model.

All measurement here is deterministic given its configuration. Model-based
measurement (topics) is configured on training text and frozen before it is
applied; see topics.fit_topic_model.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import IO, Iterable, Mapping, Sequence

from .corpus import AnalysisUnit, Utterance, _iter_lines, ends_with_interruption_marker
from .errors import ConfigError, DataError, ParseError
from .seeding import assign_folds
from .textutil import DASH_TOKEN, normalize_phrase, tokenize
from .topics import TopicModel, measure_topic


def load_lexicon(source: IO[str] | Iterable[str] | str) -> tuple[str, ...]:
    """Read a lexicon file: one phrase per line, "#" comments, UTF-8.

    Raises ConfigError if no phrases remain, per the non-empty invariant.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source
    phrases = []
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if body:
            phrases.append(normalize_phrase(body))
    if not phrases:
        raise ConfigError("hedging lexicon is empty")
    return tuple(dict.fromkeys(phrases))


def default_hedging_lexicon() -> tuple[str, ...]:
    text = resources.files("medlang.data").joinpath("hedging_lexicon.txt").read_text("utf-8")
    return load_lexicon(text)


@dataclass
class MeasurementSpec:
    """Configuration of the text-to-variable measurement layer."""

    hedging_lexicon: tuple[str, ...]
    disfluency_marker: str = DASH_TOKEN
    honorific_map: Mapping[str, int] = field(
        default_factory=lambda: {"Ms.": 1, "Mr.": 0}
    )
    topic_model: TopicModel | None = None
    strict_interruption_marker: bool = False

    def __post_init__(self) -> None:
        if not self.hedging_lexicon:
            raise ConfigError("hedging lexicon is empty")
        self.hedging_lexicon = tuple(normalize_phrase(p) for p in self.hedging_lexicon)
        values = sorted(self.honorific_map.values())
        if values != [0, 1]:
            raise ConfigError(
                f"honorific map must be a bijection onto {{0, 1}}, got {dict(self.honorific_map)}"
            )

    @classmethod
    def default(cls, **overrides) -> "MeasurementSpec":
        return cls(hedging_lexicon=default_hedging_lexicon(), **overrides)


def measure_hedging(text: str, lexicon: Sequence[str]) -> int:
    """1 iff any lexicon phrase occurs on token boundaries, case-insensitively."""
    if not lexicon:
        raise ConfigError("hedging lexicon is empty")
    tokens = tokenize(text)
    for phrase in lexicon:
        ptoks = phrase.split()
        span = len(ptoks)
        if span == 0 or span > len(tokens):
            continue
        for i in range(len(tokens) - span + 1):
            if tokens[i : i + span] == ptoks:
                return 1
    return 0


def measure_disfluency(text: str) -> int:
    """1 iff the token stream contains w, "-", "-", w for some unigram w.

    The repeated word must be identical on both sides of the double dash;
    restarts with a different word do not count.
    """
    tokens = tokenize(text)
    for i in range(len(tokens) - 3):
        w = tokens[i]
        if (
            w != DASH_TOKEN
            and tokens[i + 1] == DASH_TOKEN
            and tokens[i + 2] == DASH_TOKEN
            and tokens[i + 3] == w
        ):
            return 1
    return 0


def label_interruption(unit: AnalysisUnit, strict: bool = False) -> int:
    """1 iff the advocate turn ends with the interruption marker.

    Requires a responding turn; without one the outcome is undefined.
    """
    if unit.p2_utterance is None:
        raise DataError(f"unit {unit.unit_id}: outcome undefined (no responding turn)")
    return int(ends_with_interruption_marker(unit.p1_utterance.text, strict=strict))


def _surname(speaker_id: str) -> str:
    parts = speaker_id.split()
    if not parts:
        raise DataError(f"cannot derive surname from speaker id {speaker_id!r}")
    return parts[-1]


def label_treatment(
    case_utterances: Sequence[Utterance],
    advocate_id: str,
    honorific_map: Mapping[str, int] | None = None,
) -> int | None:
    """Gender-signal label from the chief justice's honorific introduction.

    Scans chief-justice turns in case order for the first honorific applied
    to the advocate's surname (the last whitespace token of the speaker id)
    and returns its mapped value. Returns None when no introduction is
    found; callers exclude such units with a counted warning.
    """
    honorific_map = honorific_map or {"Ms.": 1, "Mr.": 0}
    surname = _surname(advocate_id)
    patterns = {
        hon: re.compile(r"(?<!\w)" + re.escape(hon) + r"\s+" + re.escape(surname) + r"(?!\w)")
        for hon in honorific_map
    }
    for utt in sorted(case_utterances, key=lambda u: u.index):
        if utt.speaker_role != "chief_justice":
            continue
        best: tuple[int, str] | None = None
        for hon, pattern in patterns.items():
            match = pattern.search(utt.text)
            if match and (best is None or match.start() < best[0]):
                best = (match.start(), hon)
        if best is not None:
            return honorific_map[best[1]]
    return None


# ---------------------------------------------------------------------------
# Causal records and their finite domains
# ---------------------------------------------------------------------------

TOPIC_MEDIATOR = "topic"


@dataclass(frozen=True)
class Domains:
    """Declared finite domains for confounders and mediators.

    Confounder levels are opaque strings in a fixed order; mediator levels
    are 0..size-1. Grid enumeration order is the declared order, so every
    table materialized downstream is deterministic.
    """

    confounders: tuple[tuple[str, tuple[str, ...]], ...]
    mediators: tuple[tuple[str, int], ...]

    @property
    def confounder_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.confounders)

    @property
    def mediator_sizes(self) -> dict[str, int]:
        return dict(self.mediators)

    @property
    def n_x(self) -> int:
        n = 1
        for _, levels in self.confounders:
            n *= len(levels)
        return n

    def x_index(self, x: Mapping[str, object]) -> int:
        idx = 0
        for name, levels in self.confounders:
            value = str(x[name])
            try:
                pos = levels.index(value)
            except ValueError:
                raise DataError(f"confounder {name!r}: level {value!r} not in domain {levels}")
            idx = idx * len(levels) + pos
        return idx

    def x_assignment(self, index: int) -> dict[str, str]:
        out: dict[str, str] = {}
        for name, levels in reversed(self.confounders):
            index, pos = divmod(index, len(levels))
            out[name] = levels[pos]
        return {name: out[name] for name, _ in self.confounders}


@dataclass(frozen=True)
class CausalRecord:
    """One unit's measured (T, X, M, Y) tuple plus its cross-fit fold id.

    The valence field is reserved for an interruption-valence outcome
    refinement and is never populated by this toolkit.
    """

    unit_id: str
    t: int
    x: Mapping[str, str]
    m: Mapping[str, int]
    y: int
    fold: int
    valence: str | None = None


def validate_record(record: CausalRecord, domains: Domains) -> None:
    if record.t not in (0, 1):
        raise DataError(f"record {record.unit_id}: t must be binary, got {record.t}")
    if record.y not in (0, 1):
        raise DataError(f"record {record.unit_id}: y must be binary, got {record.y}")
    if record.fold < 0:
        raise DataError(f"record {record.unit_id}: negative fold id")
    names = set(record.x)
    expected = set(domains.confounder_names)
    if names != expected:
        raise DataError(
            f"record {record.unit_id}: confounders {sorted(names)} != declared {sorted(expected)}"
        )
    domains.x_index(record.x)
    for name, size in domains.mediators:
        if name not in record.m:
            raise DataError(f"record {record.unit_id}: missing mediator {name!r}")
        level = record.m[name]
        if not isinstance(level, int) or not 0 <= level < size:
            raise DataError(
                f"record {record.unit_id}: mediator {name!r} level {level!r} outside 0..{size - 1}"
            )


def record_to_json(record: CausalRecord) -> str:
    return json.dumps(
        {
            "unit_id": record.unit_id,
            "t": record.t,
            "x": dict(record.x),
            "m": dict(record.m),
            "y": record.y,
            "fold": record.fold,
            "valence": record.valence,
        },
        ensure_ascii=False,
        sort_keys=True,
    )


def records_from_json(source) -> list[CausalRecord]:
    """Read NDJSON causal records; a malformed line raises ParseError with its number."""
    records = []
    for lineno, line in enumerate(_iter_lines(source), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed causal record: {exc.msg}", lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError("causal record is not an object", lineno)
        try:
            records.append(
                CausalRecord(
                    unit_id=obj["unit_id"],
                    t=int(obj["t"]),
                    x={k: str(v) for k, v in obj["x"].items()},
                    m={k: int(v) for k, v in obj["m"].items()},
                    y=int(obj["y"]),
                    fold=int(obj["fold"]),
                    valence=obj.get("valence"),
                )
            )
        except KeyError as exc:
            raise ParseError(f"causal record lacks key {exc.args[0]!r}", lineno) from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed causal record: {exc}", lineno) from exc
    return records


@dataclass(frozen=True)
class Exclusion:
    unit_id: str
    reason: str


@dataclass(frozen=True)
class BuildResult:
    records: tuple[CausalRecord, ...]
    domains: Domains
    exclusions: tuple[Exclusion, ...]

    def exclusion_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for exc in self.exclusions:
            counts[exc.reason] = counts.get(exc.reason, 0) + 1
        return counts


DEFAULT_CONFOUNDERS = ("prior_interruption_bucket", "issue_area")


def build_records(
    units: Sequence[AnalysisUnit],
    spec: MeasurementSpec,
    n_folds: int,
    case_utterances: Mapping[str, Sequence[Utterance]],
    seed: int = 0,
    confounders: Sequence[str] | None = None,
) -> BuildResult:
    """Measure every unit with a defined treatment and outcome.

    Units without a responding turn or without an honorific introduction
    are excluded and counted, never silently dropped. Fold ids come from a
    seeded balanced shuffle of the included unit ids.

    ``case_utterances`` maps case_id to the full turn sequence of the case;
    the honorific scan needs turns that are not part of any unit.
    ``confounders`` selects which context features become X (default: the
    prior-interruption bucket plus issue_area where available).
    """
    if n_folds < 2:
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")

    if confounders is None:
        available = set()
        for unit in units:
            available.update(unit.context_features)
        confounders = tuple(c for c in DEFAULT_CONFOUNDERS if c in available)
        if not confounders:
            confounders = ("prior_interruption_bucket",)

    treatment_cache: dict[tuple[str, str], int | None] = {}
    exclusions: list[Exclusion] = []
    measured: list[tuple[AnalysisUnit, int, int]] = []
    for unit in units:
        if unit.p2_utterance is None:
            exclusions.append(Exclusion(unit.unit_id, "no_responder"))
            continue
        case_id = unit.p1_utterance.case_id
        advocate = unit.p1_utterance.speaker_id
        key = (case_id, advocate)
        if key not in treatment_cache:
            turns = case_utterances.get(case_id)
            if turns is None:
                raise DataError(f"unit {unit.unit_id}: no utterances supplied for case {case_id!r}")
            treatment_cache[key] = label_treatment(turns, advocate, spec.honorific_map)
        t = treatment_cache[key]
        if t is None:
            exclusions.append(Exclusion(unit.unit_id, "no_honorific_introduction"))
            continue
        y = label_interruption(unit, strict=spec.strict_interruption_marker)
        measured.append((unit, t, y))

    mediator_domains: list[tuple[str, int]] = [("hedging", 2), ("disfluency", 2)]
    if spec.topic_model is not None:
        mediator_domains.append((TOPIC_MEDIATOR, spec.topic_model.n_topics + 1))

    level_sets: dict[str, set[str]] = {name: set() for name in confounders}
    rows: list[tuple[AnalysisUnit, int, int, dict[str, str], dict[str, int]]] = []
    for unit, t, y in measured:
        x: dict[str, str] = {}
        for name in confounders:
            if name not in unit.context_features:
                raise DataError(f"unit {unit.unit_id}: missing context feature {name!r}")
            value = str(unit.context_features[name])
            x[name] = value
            level_sets[name].add(value)
        text = unit.p1_utterance.text
        m: dict[str, int] = {
            "hedging": measure_hedging(text, spec.hedging_lexicon),
            "disfluency": measure_disfluency(text),
        }
        if spec.topic_model is not None:
            m[TOPIC_MEDIATOR] = measure_topic(spec.topic_model, text)
        rows.append((unit, t, y, x, m))

    domains = Domains(
        confounders=tuple((name, tuple(sorted(level_sets[name]))) for name in confounders),
        mediators=tuple(mediator_domains),
    )

    unit_ids = [unit.unit_id for unit, *_ in rows]
    folds = assign_folds(unit_ids, n_folds, seed) if unit_ids else {}
    records = tuple(
        CausalRecord(unit_id=unit.unit_id, t=t, x=x, m=m, y=y, fold=folds[unit.unit_id])
        for unit, t, y, x, m in rows
    )
    for record in records:
        validate_record(record, domains)
    return BuildResult(records=records, domains=domains, exclusions=tuple(exclusions))
