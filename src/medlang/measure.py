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
import re
from dataclasses import dataclass
from importlib import resources
from itertools import chain, compress
from json.encoder import encode_basestring
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import (
    _ABSENT,
    AnalysisUnit,
    Transcript,
    Units,
    Utterance,
    _first_object,
    _iter_objects,
    _json_object,
    _line_pattern,
    _read_whole,
    _split_columns,
    _transcript_of,
    ends_with_interruption_marker,
    unit_table,
)
from .errors import ConfigError, DataError, ParseError
from .seeding import assign_folds
from .textutil import DASH_TOKEN, normalize_phrase, tokenize
# measure_topic stays importable from here: bench/tracer.py wraps this name.
from .topics import TopicModel, measure_topic, measure_topics  # noqa: F401


def load_lexicon(text: str) -> tuple[str, ...]:
    """Read a lexicon file's text: one phrase per line, "#" comments, a leading byte order
    mark dropped.

    Raises ConfigError if no phrases remain, per the non-empty invariant.
    """
    phrases = []
    for line in text.removeprefix("\ufeff").splitlines():
        phrase = normalize_phrase(line.split("#", 1)[0])
        if phrase:
            phrases.append(phrase)
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
    topic_model: TopicModel | None = None

    def __post_init__(self) -> None:
        if not self.hedging_lexicon:
            raise ConfigError("hedging lexicon is empty")

    @classmethod
    def default(cls, **overrides) -> "MeasurementSpec":
        return cls(hedging_lexicon=default_hedging_lexicon(), **overrides)


@functools.lru_cache(maxsize=32)
def _phrase_pattern(lexicon: tuple[str, ...]) -> re.Pattern:
    """Matches any non-empty normalized lexicon phrase between spaces; with none, nothing."""
    phrases = dict.fromkeys(filter(None, map(normalize_phrase, lexicon)))
    return re.compile("|".join(re.escape(f" {phrase} ") for phrase in phrases) or "(?!)")


def measure_hedging(tokens: list[str], lexicon: Sequence[str]) -> int:
    """1 iff any lexicon phrase occurs on token boundaries, case-insensitively.

    ``tokens`` is a text's tokenize() list. Tokens hold no whitespace, so a
    phrase in the tokens joined by single spaces is a run of whole tokens.
    """
    if not lexicon:
        raise ConfigError("hedging lexicon is empty")
    return 1 if _phrase_pattern(tuple(lexicon)).search(f" {' '.join(tokens)} ") else 0


def measure_disfluency(tokens: list[str]) -> int:
    """1 iff a text's tokenize() list contains w, "-", "-", w for some unigram w.

    The repeated word must be identical on both sides of the double dash;
    restarts with a different word do not count.
    """
    start = 1
    while True:
        try:
            i = tokens.index(DASH_TOKEN, start, len(tokens) - 2)
        except ValueError:
            return 0
        if tokens[i + 1] == DASH_TOKEN and tokens[i - 1] == tokens[i + 2] != DASH_TOKEN:
            return 1
        start = i + 1


def _surname(speaker_id: str) -> str:
    parts = speaker_id.split()
    if not parts:
        raise DataError(f"cannot derive surname from speaker id {speaker_id!r}")
    return parts[-1]


#: The treatment value of each honorific the chief justice may introduce an advocate with.
HONORIFICS = {"Ms.": 1, "Mr.": 0}
# An honorific followed by whitespace, not run on from a word character. No
# honorific can overlap another, so the matches are every honorific there.
_HONORIFIC = re.compile(r"(?<!\w)(" + "|".join(map(re.escape, HONORIFICS)) + r")(?=\s)")
_SPACE = re.compile(r"\s+")
_WORD = re.compile(r"\w")


def label_treatment(chief_texts: Sequence[str], advocate_id: str) -> int | None:
    """Gender-signal label from the chief justice's honorific introduction.

    Scans ``chief_texts``, the texts of the case's chief-justice turns in
    index order, for the first honorific applied to the advocate's surname
    (the last whitespace token of the speaker id) and returns its
    HONORIFICS value: the earliest position in the first such turn. The
    surname must not run on into a word character ("Mr. Smith's" counts
    for Smith, "Mr. Smithson" does not). Returns None when no introduction
    is found; callers exclude such units with a counted warning.
    """
    surname = _surname(advocate_id)
    for text in chief_texts:
        for honorific in _HONORIFIC.finditer(text):
            # The surname holds no whitespace, so it starts where the run ends.
            after = _SPACE.match(text, honorific.end()).end()
            if text.startswith(surname, after) and not _WORD.match(text, after + len(surname)):
                return HONORIFICS[honorific[1]]
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
    largest integer level + 1, at least two.
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


def records_from_json(source: IO[bytes] | bytes | str) -> CodedRecords:
    """Read NDJSON causal records into CodedRecords over the domains they show.

    The domains are inferred from the lines (see infer_domains). A line that
    is not a JSON object, lacks a key, names other variables than the first
    line, repeats an earlier line's unit id, or holds an x level that is not a
    string or another value not an integer in its domain raises ParseError
    with its line number.

    A file whose every non-blank line is in the exact form write_records
    gives is read as columns by one pattern (_record_columns); any other
    file goes through the per-line reader, _records_from_lines. Both give
    the same records, and only the per-line reader raises.
    """
    data = _read_whole(source)
    columns = _record_columns(data)
    if columns is None:
        return _records_from_lines(data)
    del data  # the columns hold all that is kept: free the file before coding them
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
    columns = _split_columns(data, pattern, [*range(1, k + 3), pattern.groups])
    if columns is None:
        return None
    fold, *levels, t, unit_ids = columns[:k + 3]
    y = columns[-1]
    ids = sorted(unit_ids)  # not a set, which would be the read's largest transient
    if any(map(str.__eq__, ids, ids[1:])) or max(t, default=0) > 1 or max(y, default=0) > 1:
        return None
    return (unit_ids, t, dict(zip(confounders, columns[k + 3:-1])), dict(zip(mediators, levels)),
            y, fold)


def _records_from_lines(data: bytes) -> CodedRecords:
    """records_from_json one line at a time.

    This reader raises every error of records_from_json.
    """
    lines, unit_ids, t, y, fold = [], [], [], [], []
    x: dict[str, list[str]] = {}
    m: dict[str, list] = {}
    for lineno, obj in _iter_objects(data, "causal record"):
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
            if type(rx[name]) is not str:
                raise ParseError(f"malformed causal record: confounder {name!r} must be a "
                                 f"string, got {rx[name]!r}", lineno)
            levels.append(rx[name])
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
    units: Units | Iterable[AnalysisUnit],
    spec: MeasurementSpec,
    n_folds: int,
    case_utterances: Transcript | Mapping[str, Sequence[Utterance]],
    seed: int = 0,
    confounders: Sequence[str] | None = None,
) -> BuildResult:
    """Measure every unit with a defined treatment and outcome into CodedRecords.

    Units without a responding turn or without an honorific introduction
    are excluded and counted, never silently dropped. Fold ids come from a
    seeded balanced shuffle of the included unit ids.

    ``units`` is a Units table and ``case_utterances`` the Transcript whose
    cases the honorific scan reads (AnalysisUnit rows, or a mapping of each
    case_id to all its turns, are copied into one). ``confounders`` selects
    which context features become X (default: the prior-interruption bucket
    plus issue_area where available); a unit whose value of one is not a
    string raises DataError. Their names and observed levels are sorted, as
    infer_domains sorts them.
    """
    if n_folds < 2:
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    units = unit_table(units)
    turns = units.turns
    if confounders is None:
        confounders = tuple(c for c in DEFAULT_CONFOUNDERS if c in units.features)
        if not confounders:
            confounders = ("prior_interruption_bucket",)
    columns = {name: units.features.get(name) or [_ABSENT] * len(units) for name in confounders}
    if not isinstance(case_utterances, Transcript):
        case_utterances = _transcript_of(chain.from_iterable(case_utterances.values()))
    roles, texts = case_utterances.roles, case_utterances.texts
    chief = {case_id: [texts[row] for row in rows if roles[row] == "chief_justice"]
             for case_id, rows in case_utterances.case_rows.items()}
    keys = list(zip(map(turns.case_ids.__getitem__, units.p1),
                    map(turns.speaker_ids.__getitem__, units.p1)))
    labels: dict[tuple[str, str], int | None] = {}  # t: one label per (case, advocate)
    included: list[bool] = []
    for i, (unit_id, key, p2) in enumerate(zip(units.unit_ids, keys, units.p2)):
        if p2 >= 0 and key not in labels:
            if key[0] not in chief:
                raise DataError(f"unit {unit_id}: no utterances supplied for case {key[0]!r}")
            labels[key] = label_treatment(chief[key[0]], key[1])
        included.append(p2 >= 0 and labels[key] is not None)
        for name, column in columns.items() if included[-1] else ():
            if type(column[i]) is not str:
                raise DataError(f"unit {unit_id}: missing context feature {name!r}"
                                if column[i] is _ABSENT else f"unit {unit_id}: context feature "
                                f"{name!r} must be a string, got {column[i]!r}")
    x = {name: list(compress(column, included)) for name, column in columns.items()}
    unit_ids = list(compress(units.unit_ids, included))
    texts = list(compress(map(turns.texts.__getitem__, units.p1), included))
    m: dict[str, list[int]] = {"hedging": [], "disfluency": []}
    docs = []  # the topic fold-in's input
    for tokens in map(tokenize, texts):  # once per text, for every mediator
        m["hedging"].append(measure_hedging(tokens, spec.hedging_lexicon))
        m["disfluency"].append(measure_disfluency(tokens))
        if spec.topic_model is not None:
            docs.append(tokens)
    if spec.topic_model is not None:
        m[TOPIC_MEDIATOR] = measure_topics(spec.topic_model, docs).tolist()
    # The reader's rule, so a records file reads back with the domains of its run.
    domains = infer_domains(x, m)
    folds = assign_folds(unit_ids, n_folds, seed).tolist() if unit_ids else []
    records = _code(unit_ids, list(map(labels.__getitem__, compress(keys, included))), x, m,
                    [1 if ends_with_interruption_marker(text) else 0 for text in texts],
                    folds, domains)
    exclusions = tuple(Exclusion(unit_id, "no_responder" if p2 < 0 else "no_honorific_introduction")
                       for unit_id, p2, kept in zip(units.unit_ids, units.p2, included) if not kept)
    return BuildResult(records=records, exclusions=exclusions)
