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

import functools
import json
import operator
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from json.encoder import encode_basestring
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import (
    _BLOCK,
    AnalysisUnit,
    Utterance,
    _first_object,
    _iter_objects,
    _json_object,
    _line_pattern,
    _read_whole,
    _split_columns,
    ends_with_interruption_marker,
)
from .errors import ConfigError, DataError, ParseError
from .seeding import assign_folds
from .textutil import DASH_TOKEN, normalize_phrase, tokenize
# measure_topic stays importable from here: bench/tracer.py wraps this name.
from .topics import TopicModel, measure_topic, measure_topics  # noqa: F401


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


@functools.lru_cache(maxsize=32)
def _phrase_pattern(lexicon: tuple[str, ...]) -> re.Pattern:
    """Matches any non-empty lexicon phrase between spaces; with none, matches nothing."""
    phrases = dict.fromkeys(" ".join(phrase.split()) for phrase in lexicon if phrase.split())
    return re.compile("|".join(re.escape(f" {phrase} ") for phrase in phrases) or "(?!)")


def measure_hedging(text: str | list[str], lexicon: Sequence[str]) -> int:
    """1 iff any lexicon phrase occurs on token boundaries, case-insensitively.

    ``text`` may be given as its tokenize() list. Tokens hold no whitespace, so
    a phrase in the tokens joined by single spaces is a run of whole tokens.
    """
    if not lexicon:
        raise ConfigError("hedging lexicon is empty")
    tokens = tokenize(text) if isinstance(text, str) else text
    return 1 if _phrase_pattern(tuple(lexicon)).search(f" {' '.join(tokens)} ") else 0


def measure_disfluency(text: str | list[str]) -> int:
    """1 iff the token stream contains w, "-", "-", w for some unigram w.

    The repeated word must be identical on both sides of the double dash;
    restarts with a different word do not count. ``text`` may be given as
    its tokenize() list.
    """
    tokens = tokenize(text) if isinstance(text, str) else text
    start = 1
    while True:
        try:
            i = tokens.index(DASH_TOKEN, start, len(tokens) - 2)
        except ValueError:
            return 0
        if tokens[i + 1] == DASH_TOKEN and tokens[i - 1] == tokens[i + 2] != DASH_TOKEN:
            return 1
        start = i + 1


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


_INDEX = operator.attrgetter("index")
_SPACE = re.compile(r"\s+")
_WORD = re.compile(r"\w")


@functools.lru_cache(maxsize=32)
def _honorific_starts(honorifics: tuple[str, ...]) -> re.Pattern:
    """Zero-width matches at every position where an honorific and a space begin.

    Zero-width, so overlapping honorifics are all seen.
    """
    alternatives = "|".join(re.escape(hon) for hon in honorifics)
    return re.compile(r"(?<!\w)(?=(?:" + alternatives + r")\s)")


def label_treatment(
    case_utterances: Sequence[Utterance],
    advocate_id: str,
    honorific_map: Mapping[str, int] | None = None,
) -> int | None:
    """Gender-signal label from the chief justice's honorific introduction.

    Scans chief-justice turns in case order for the first honorific applied
    to the advocate's surname (the last whitespace token of the speaker id)
    and returns its mapped value: the earliest position in the first such
    turn, ties going to the first honorific of the map. The surname must
    not run on into a word character ("Mr. Smith's" counts for Smith,
    "Mr. Smithson" does not). Returns None when no introduction is found;
    callers exclude such units with a counted warning.
    """
    honorific_map = honorific_map or {"Ms.": 1, "Mr.": 0}
    surname = _surname(advocate_id)
    starts = _honorific_starts(tuple(honorific_map))
    for utt in sorted(case_utterances, key=_INDEX):
        if utt.speaker_role != "chief_justice":
            continue
        text = utt.text
        for start in starts.finditer(text):
            pos = start.start()
            for hon, value in honorific_map.items():
                if not text.startswith(hon, pos):
                    continue
                # The surname holds no whitespace, so it starts where the run ends.
                space = _SPACE.match(text, pos + len(hon))
                if (space and text.startswith(surname, space.end())
                        and not _WORD.match(text, space.end() + len(surname))):
                    return value
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

    def x_assignment(self, index: int) -> dict[str, str]:
        out: dict[str, str] = {}
        for name, levels in reversed(self.confounders):
            index, pos = divmod(index, len(levels))
            out[name] = levels[pos]
        return {name: out[name] for name, _ in self.confounders}


@dataclass(frozen=True)
class CausalRecord:
    """One unit's measured (T, X, M, Y) tuple plus its cross-fit fold id.

    This is the row of one records-file line; record sets are held as
    CodedRecords, which yield these rows when iterated.
    """

    unit_id: str
    t: int
    x: Mapping[str, str]
    m: Mapping[str, int]
    y: int
    fold: int


@dataclass(frozen=True)
class CodedRecords:
    """A record set: one integer column per variable plus the declared domains.

    ``x`` holds each unit's mixed-radix confounder index (Domains.x_assignment
    inverts it). Iterating yields each unit's CausalRecord row in column
    order.
    """

    unit_ids: tuple[str, ...]
    t: np.ndarray
    x: np.ndarray
    m: Mapping[str, np.ndarray]
    y: np.ndarray
    fold: np.ndarray
    domains: Domains

    def __len__(self) -> int:
        return len(self.unit_ids)

    def __iter__(self) -> Iterator[CausalRecord]:
        m = {name: levels.tolist() for name, levels in self.m.items()}
        columns = zip(self.unit_ids, self.t.tolist(), self.x.tolist(), self.y.tolist(),
                      self.fold.tolist())
        for i, (unit_id, t, x, y, fold) in enumerate(columns):
            yield CausalRecord(unit_id, t, self.domains.x_assignment(x),
                               {name: levels[i] for name, levels in m.items()}, y, fold)

    @property
    def n_folds(self) -> int:
        return int(self.fold.max()) + 1 if len(self) else 0


def _code(unit_ids, t, x, m, y, fold, domains: Domains, lines=None) -> CodedRecords:
    """Check raw record columns against the domains and code them.

    ``x`` maps each declared confounder to its units' level strings and
    ``m`` each declared mediator to its units' levels. t and y must be 0 or
    1, folds non-negative, mediator levels in 0..size-1, each of them an
    integer (a bool is not one), and every confounder level declared. The
    first bad record raises DataError naming its unit, or ParseError naming
    its source line when ``lines`` holds each record's line number.
    """

    def fail(i: int, message: str):
        if lines is None:
            raise DataError(f"record {unit_ids[i]}: {message}")
        raise ParseError(f"malformed causal record: {message}", lines[i])

    def integers(values: list, what: str, size: int | None = None) -> np.ndarray:
        limit = min(size, 2**63) if size else 2**63  # the columns are int64
        try:  # one type test and a range check per column; a bool is not an int here
            column = np.asarray(values, dtype=np.int64) if set(map(type, values)) <= {int} else None
        except OverflowError:
            column = None
        if column is None or len(column) and not (column.min() >= 0 and int(column.max()) < limit):
            i, v = next((i, v) for i, v in enumerate(values)  # the first bad value
                        if type(v) is not int or not 0 <= v < limit)
            bound = f"an integer in 0..{limit - 1}" if size else "a non-negative integer"
            fail(i, f"{what} must be {bound}, got {v!r}")
        return column

    index = np.zeros(len(unit_ids), dtype=np.int64)
    for name, levels in domains.confounders:
        codes = list(map({level: pos for pos, level in enumerate(levels)}.get, x[name]))
        if None in codes:
            i = codes.index(None)
            fail(i, f"confounder {name!r} level {x[name][i]!r} not in domain {levels}")
        index = index * len(levels) + np.asarray(codes, dtype=np.int64)
    return CodedRecords(
        unit_ids=tuple(unit_ids),
        t=integers(t, "t", 2),
        x=index,
        m={name: integers(m[name], f"mediator {name!r} level", size)
           for name, size in domains.mediators},
        y=integers(y, "y", 2),
        fold=integers(fold, "fold"),
        domains=domains,
    )


def encode_records(rows: Iterable[CausalRecord], domains: Domains) -> CodedRecords:
    """Code record rows over declared domains; rows become columns only here.

    Raises DataError naming the first record whose confounders are not the
    declared ones, that lacks a declared mediator, or whose values fall
    outside the domains (see _code).
    """
    rows = list(rows)
    names = domains.confounder_names
    for rec in rows:
        if set(rec.x) != set(names):
            raise DataError(
                f"record {rec.unit_id}: confounders {sorted(rec.x)} != declared {sorted(names)}"
            )
        for name, _ in domains.mediators:
            if name not in rec.m:
                raise DataError(f"record {rec.unit_id}: missing mediator {name!r}")
    return _code(
        [rec.unit_id for rec in rows],
        [rec.t for rec in rows],
        {name: [str(rec.x[name]) for rec in rows] for name in names},
        {name: [rec.m[name] for rec in rows] for name, _ in domains.mediators},
        [rec.y for rec in rows],
        [rec.fold for rec in rows],
        domains,
    )


def infer_domains(x: Mapping[str, Sequence[str]], m: Mapping[str, Sequence[int]]) -> Domains:
    """Domains observed in record columns (see _code for their layout).

    Names and confounder levels are sorted; a mediator's size is its
    largest integer level + 1, at least two. Prefer declared domains:
    inference cannot see levels that never occur.
    """
    def size(levels: Sequence[int]) -> int:
        if not set(map(type, levels)) <= {int}:
            levels = [v for v in levels if type(v) is int]
        return max(max(levels, default=1), 1) + 1

    return Domains(
        confounders=tuple((name, tuple(sorted(set(x[name])))) for name in sorted(x)),
        mediators=tuple((name, size(m[name])) for name in sorted(m)),
    )


def _record_format(mediators: Sequence[str]) -> str:
    """The one records line format: a %-format of fold, each mediator's level, t, unit_id, x, y.

    ``mediators`` are the names in sorted order; unit_id and x are JSON
    texts. The lines are those json.dumps(row, ensure_ascii=False,
    sort_keys=True) gives.
    """
    levels = ", ".join(encode_basestring(name).replace("%", "%%") + ": %d" for name in mediators)
    return '{"fold": %d, "m": {' + levels + '}, "t": %d, "unit_id": %s, "x": %s, "y": %d}\n'


def _record_lines(unit_ids, t, x, m: Mapping[str, Iterable[int]], y, fold) -> str:
    """Records-file lines, newline-terminated, from columns.

    ``x`` holds each row's confounder object as JSON text and ``m`` each
    mediator's integer levels; every other column holds one value per row.
    """
    names = sorted(m)
    rows = zip(fold, *(m[name] for name in names), t, map(encode_basestring, unit_ids), x, y)
    return "".join(map(_record_format(names).__mod__, rows))


@functools.lru_cache(maxsize=32)
def _record_pattern(mediators: tuple[str, ...], confounders: tuple[str, ...]) -> re.Pattern:
    """Matches each whole line, with its newline, that _record_lines writes with these names.

    Its groups capture fold, each mediator's level, t, unit_id, each
    confounder's level (names sorted) and y as written; strings need no escape.
    """
    # Escaped JSON text holds no NUL, so NUL marks each field in the line.
    x = _json_object(dict.fromkeys(confounders, "\0s"))
    line = re.sub("%[d%]", lambda f: f[0].replace("d", "s"), _record_format(mediators))
    line %= ("\0d",) * (len(mediators) + 2) + ("\0s", x, "\0d")
    return _line_pattern(line[:-1])


def _x_json(x: Mapping[str, str]) -> str:
    return _json_object({name: encode_basestring(level) for name, level in x.items()})


def record_to_json(record: CausalRecord) -> str:
    """One records-file line, without its newline."""
    return _record_lines([record.unit_id], [record.t], [_x_json(record.x)],
                         {name: [level] for name, level in record.m.items()},
                         [record.y], [record.fold])[:-1]


def write_records(records: CodedRecords, stream: IO[str]) -> None:
    """Write a records file from the columns, one line per record.

    The confounder object is encoded once per distinct confounder code.
    """
    codes = records.x.tolist()
    x_json = {code: _x_json(records.domains.x_assignment(code)) for code in set(codes)}
    stream.write(_record_lines(records.unit_ids, records.t.tolist(), map(x_json.__getitem__, codes),
                               {name: levels.tolist() for name, levels in records.m.items()},
                               records.y.tolist(), records.fold.tolist()))


def records_from_json(source) -> CodedRecords:
    """Read NDJSON causal records into CodedRecords over the domains they show.

    The domains are inferred from the lines (see infer_domains). A line
    that is not a JSON object, lacks a key, names other variables than the
    first line, repeats an earlier line's unit id, or holds a value that
    is not an integer in its domain raises ParseError with its line number.

    A file whose every non-blank line is in the exact form write_records
    gives is read as columns by one pattern (_record_columns); any other
    source goes through the per-line reader, _records_from_lines. Both give
    the same records, and only the per-line reader raises.
    """
    data, source = _read_whole(source)
    columns = None if data is None else _record_columns(data)
    if columns is None:
        return _records_from_lines(source)
    del data, source  # the columns hold all that is kept: free the file before coding them
    unit_ids, t, x, m, y, fold = columns
    return _code(unit_ids, t, x, m, y, fold, infer_domains(x, m))


def _record_columns(data: bytes) -> tuple | None:
    """The columns (unit_ids, t, x, m, y, fold) of a file in the exact form of _record_lines.

    The variable names are the first line's; integers have at most 18
    digits and strings need no escape. Any other file, one that is not
    UTF-8, a repeated unit id or a t or y outside 0..1 gives None; _code
    accepts whatever this returns.
    """
    first = _first_object(data)
    if not (first and isinstance(first.get("m"), dict) and isinstance(first.get("x"), dict)):
        return None
    mediators, confounders = tuple(sorted(first["m"])), tuple(sorted(first["x"]))
    pattern = _record_pattern(mediators, confounders)
    # The groups: fold, each mediator's level, t, unit_id, each confounder's level, y.
    k = len(mediators)
    columns = _split_columns(data, pattern, [*range(1, k + 3), pattern.groups], _BLOCK)
    if columns is None:
        return None
    fold, *levels, t, unit_ids = columns[:k + 3]
    y = columns[-1]
    ids = sorted(unit_ids)  # not a set, which would be the read's largest transient
    if any(map(str.__eq__, ids, ids[1:])) or max(t, default=0) > 1 or max(y, default=0) > 1:
        return None
    return (unit_ids, t, dict(zip(confounders, columns[k + 3:-1])), dict(zip(mediators, levels)),
            y, fold)


def _records_from_lines(source) -> CodedRecords:
    """records_from_json one line at a time, for any source _iter_lines reads.

    This reader raises every error of records_from_json.
    """
    lines, unit_ids, t, y, fold = [], [], [], [], []
    x: dict[str, list[str]] = {}
    m: dict[str, list] = {}
    for lineno, obj in _iter_objects(source, "causal record"):
        try:
            rx, rm = obj["x"], obj["m"]
            if not isinstance(rx, dict) or not isinstance(rm, dict):
                raise ParseError("malformed causal record: x and m must be objects", lineno)
            if not lines:
                x, m = {name: [] for name in sorted(rx)}, {name: [] for name in sorted(rm)}
            if rx.keys() != x.keys() or rm.keys() != m.keys():
                raise ParseError("causal record names other variables than line "
                                 f"{lines[0]}", lineno)
            for column, key in ((unit_ids, "unit_id"), (t, "t"), (y, "y"), (fold, "fold")):
                column.append(obj[key])
        except KeyError as exc:
            raise ParseError(f"causal record lacks key {exc.args[0]!r}", lineno) from exc
        if type(unit_ids[-1]) is not str:
            raise ParseError("malformed causal record: unit_id must be a string, "
                             f"got {unit_ids[-1]!r}", lineno)
        for name, levels in x.items():
            levels.append(str(rx[name]))
        for name, levels in m.items():
            levels.append(rm[name])
        lines.append(lineno)
    records = _code(unit_ids, t, x, m, y, fold, infer_domains(x, m), lines)
    if len(set(unit_ids)) < len(unit_ids):
        first_line: dict[str, int] = {}
        for unit_id, lineno in zip(unit_ids, lines):
            if first_line.setdefault(unit_id, lineno) != lineno:
                raise ParseError(f"duplicate unit_id {unit_id!r}, first on line "
                                 f"{first_line[unit_id]}", lineno)
    return records


@dataclass(frozen=True)
class Exclusion:
    unit_id: str
    reason: str


@dataclass(frozen=True)
class BuildResult:
    records: CodedRecords
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
    """Measure every unit with a defined treatment and outcome into CodedRecords.

    Units without a responding turn or without an honorific introduction
    are excluded and counted, never silently dropped. Fold ids come from a
    seeded balanced shuffle of the included unit ids.

    ``case_utterances`` maps case_id to the full turn sequence of the case
    (Transcript.cases, say); the honorific scan needs turns that are not
    part of any unit, and gets the chief justice's in index order.
    ``confounders`` selects which context features become X (default: the
    prior-interruption bucket plus issue_area where available). Their
    names and observed levels are sorted, as infer_domains sorts them.
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
    unit_ids: list[str] = []
    t_column: list[int] = []
    y_column: list[int] = []
    x: dict[str, list[str]] = {name: [] for name in confounders}
    m: dict[str, list[int]] = {"hedging": [], "disfluency": []}
    docs: list[list[str]] = []  # the topic fold-in's input
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
            chief = sorted([t for t in turns if t.speaker_role == "chief_justice"], key=_INDEX)
            treatment_cache[key] = label_treatment(chief, advocate, spec.honorific_map)
        t = treatment_cache[key]
        if t is None:
            exclusions.append(Exclusion(unit.unit_id, "no_honorific_introduction"))
            continue
        y_column.append(label_interruption(unit, strict=spec.strict_interruption_marker))
        t_column.append(t)
        unit_ids.append(unit.unit_id)
        for name in confounders:
            if name not in unit.context_features:
                raise DataError(f"unit {unit.unit_id}: missing context feature {name!r}")
            x[name].append(str(unit.context_features[name]))
        tokens = tokenize(unit.p1_utterance.text)  # once, for every mediator
        m["hedging"].append(measure_hedging(tokens, spec.hedging_lexicon))
        m["disfluency"].append(measure_disfluency(tokens))
        if spec.topic_model is not None:
            docs.append(tokens)
    mediator_domains: list[tuple[str, int]] = [("hedging", 2), ("disfluency", 2)]
    if spec.topic_model is not None:
        mediator_domains.append((TOPIC_MEDIATOR, spec.topic_model.n_topics + 1))
        m[TOPIC_MEDIATOR] = measure_topics(spec.topic_model, docs).tolist()

    # Confounders follow the reader's rule, so a records file read back
    # carries the same domains.
    domains = replace(infer_domains(x, {}), mediators=tuple(mediator_domains))
    folds = assign_folds(unit_ids, n_folds, seed) if unit_ids else {}
    records = _code(unit_ids, t_column, x, m, y_column, [folds[u] for u in unit_ids], domains)
    return BuildResult(records=records, exclusions=tuple(exclusions))
