"""Transcript ingestion: turn-level parsing and adjacent-pair extraction.

Transcripts arrive as newline-delimited JSON, one speaking turn per line,
with exactly the fields case_id, index, speaker_id, speaker_role, text.
The unit of analysis is an advocate turn paired with the immediately
following justice turn of the same case, when one exists.
"""

from __future__ import annotations

import functools
import io
import json
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, count, islice
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import IO, NamedTuple

from .errors import DataError, ParseError

SPEAKER_ROLES = ("advocate", "justice", "chief_justice")
RESPONDER_ROLES = ("justice", "chief_justice")

#: Trailing markers treated as an interruption of the current speaker: the
#: transcripts' "- -" and its variant "--".
INTERRUPTION_MARKERS = ("- -", "--")

#: The context features extract_units computes; no metadata attribute may take their names.
COMPUTED_FEATURES = frozenset({"prior_interruption_bucket", "responder_role"})

_RECORD_FIELDS = ("case_id", "index", "speaker_id", "speaker_role", "text")
#: The one transcript line format, without its newline: a %-format of the fields' JSON texts.
_TURN_FORMAT = '{"case_id": %s, "index": %d, "speaker_id": %s, "speaker_role": %s, "text": %s}'


class Utterance(NamedTuple):
    """One speaking turn. Indices are contiguous per case starting at 0."""

    case_id: str
    index: int
    speaker_id: str
    speaker_role: str
    text: str


class Transcript(Sequence):
    """A transcript's turns in file order, as parse_transcript reads them; read-only.

    It holds the columns case_ids, indices, speaker_ids, roles and texts;
    ``case_rows`` maps each case_id to its rows in index order. Indexing
    and iterating build Utterance rows.
    """

    def __init__(self, columns, case_rows: dict[str, list[int]]) -> None:
        self.case_ids, self.indices, self.speaker_ids, self.roles, self.texts = columns
        self.columns, self.case_rows = columns, case_rows

    def __len__(self) -> int:
        return len(self.case_ids)

    def __getitem__(self, i):
        return self._rows[i]

    @functools.cached_property
    def _rows(self) -> list[Utterance]:
        return list(map(Utterance, *self.columns))

    def lines(self, rows: Sequence[int]) -> Iterator[str]:
        """The transcript lines of ``rows``, without newlines, as utterance_to_json writes them."""
        return _turn_lines(*(map(column.__getitem__, rows) for column in self.columns))


def _columns(utterances: Sequence[Utterance]) -> tuple:
    """The field columns of ``utterances``."""
    return tuple(zip(*utterances)) or ((),) * len(_RECORD_FIELDS)


@dataclass(frozen=True)
class AnalysisUnit:
    """An advocate turn plus the immediately following justice turn, if any; a Units row.

    Units with no responder are retained (p2_utterance None) but excluded
    downstream because their outcome is undefined.
    """

    unit_id: str
    p1_utterance: Utterance
    p2_utterance: Utterance | None
    context_features: Mapping[str, object] = field(default_factory=dict)


_ABSENT = object()  # a context feature a unit lacks, in its Units.features column


@dataclass(frozen=True, eq=False)
class Units(Sequence):
    """A unit table, as extract_units and units_from_json give it: one row per unit.

    ``p1`` and ``p2`` hold each unit's turns as rows of ``turns`` (-1: no
    responder): the transcript the units came from, or, for units read from
    a file, their own turns with no ``case_rows``. ``features`` holds a
    column per context feature that any unit has, _ABSENT where a unit lacks
    it. Indexing or iterating builds AnalysisUnit rows.
    """

    turns: Transcript
    p1: list[int]
    p2: list[int]
    unit_ids: list[str]
    features: dict[str, list]

    def __len__(self) -> int:
        return len(self.p1)

    def __getitem__(self, i: int) -> AnalysisUnit:
        i = range(len(self))[i]
        return AnalysisUnit(self.unit_ids[i], self.turns[self.p1[i]],
                            self.turns[self.p2[i]] if self.p2[i] >= 0 else None,
                            {name: column[i] for name, column in self.features.items()
                             if column[i] is not _ABSENT})


def _feature_columns(contexts: Sequence[Mapping]) -> dict[str, list]:
    """A column per name that any of ``contexts`` holds, _ABSENT where one lacks it."""
    return {name: [context.get(name, _ABSENT) for context in contexts]
            for name in dict.fromkeys(chain.from_iterable(contexts))}


def unit_table(units: Iterable[AnalysisUnit]) -> Units:
    """AnalysisUnit rows copied into a Units table."""
    units, turns, p1, p2 = list(units), [], [], []
    for unit in units:
        p1.append(len(turns))
        p2.append(-1 if unit.p2_utterance is None else len(turns) + 1)
        turns += [turn for turn in (unit.p1_utterance, unit.p2_utterance) if turn is not None]
    return Units(Transcript(_columns(turns), {}), p1, p2, [unit.unit_id for unit in units],
                 _feature_columns([unit.context_features for unit in units]))


def ends_with_interruption_marker(text: str) -> bool:
    return text.rstrip().endswith(INTERRUPTION_MARKERS)


def _read_whole(source: IO[bytes] | bytes | str) -> bytes:
    """The bytes of ``source``: bytes, a binary stream's, or a str's as UTF-8.

    A str keeps any lone surrogate (surrogatepass), so a raw one is not
    UTF-8 text to the decoders. Any other source raises TypeError.
    """
    if isinstance(source, str):
        return source.encode("utf-8", "surrogatepass")
    if hasattr(source, "read") and not isinstance(source, io.TextIOBase):
        source = source.read()
    if not isinstance(source, bytes):
        raise TypeError(f"a reader takes bytes, a str or a binary stream, not "
                        f"{type(source).__name__}")
    return source


#: What a line pattern matches for a field: "d", an integer of at most 18 digits
#: (so it fits int64) as JSON writes it; "s", a string that needs no escape.
_PATTERN_FIELDS = {"d": "(0|[1-9][0-9]{0,17})", "s": r'"([^"\\\x00-\x1f]*)"'}
_BLOCK = 1 << 15  # bytes of whole lines decoded at a time: a whole decoded file outweighs it


def _line_pattern(line: str) -> re.Pattern:
    """Matches each whole line of ``line``'s form; groups capture its NUL+"d"/"s" fields."""
    head, *fields = line.split("\0")
    body = re.escape(head) + "".join(_PATTERN_FIELDS[f[0]] + re.escape(f[1:]) for f in fields)
    return re.compile("^" + body + r"(?:\n|\Z)", re.MULTILINE)


_TURN_PATTERN = _line_pattern(_TURN_FORMAT.replace("%d", "%s") % ("\0s", "\0d", *["\0s"] * 3))
_ROLES = dict(zip(SPEAKER_ROLES, SPEAKER_ROLES))


def _first_object(data: bytes) -> dict | None:
    """The JSON object on the first non-empty line of ``data``, or None."""
    line = re.search(rb".+", data)
    try:
        first = json.loads(line[0].decode("utf-8")) if line else None
    except (ValueError, RecursionError):
        return None
    return first if isinstance(first, dict) else None


def _split_columns(data: bytes, pattern: re.Pattern, integers) -> list[list] | None:
    """Each group's captures in file order (ints for ``integers``), if ``pattern`` matches
    every non-blank line of ``data``; None for bytes not UTF-8 or a line of another form."""
    step = pattern.groups + 1
    columns: list[list] = [[] for _ in range(pattern.groups)]
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + _BLOCK) + 1 or len(data)
        try:  # a newline byte never falls inside a UTF-8 character
            pieces = pattern.split(data[start:end].decode("utf-8"))
        except UnicodeDecodeError:
            return None
        if "".join(pieces[::step]).strip():  # what lies between matches must be blank lines
            return None
        for group, column in enumerate(columns, 1):
            values = pieces[group::step]
            if group in integers:
                value = {digits: int(digits) for digits in set(values)}
                values = map(value.__getitem__, values)
            column += values
        start = end
    return columns


def load_json(data: bytes | str, error) -> object:
    """The JSON value of ``data``, UTF-8 bytes or a str decoded from them; a fault raises
    ``error(reason)``.

    The reasons: "not UTF-8 text", json.loads's message, "nested too deeply"
    and "lone surrogate \\ud800" (say): a string holding one could never be
    written back as UTF-8.
    """
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
        obj = json.loads(text)
        if "\\u" in text:  # an escaped lone surrogate
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeDecodeError as exc:
        raise error("not UTF-8 text") from exc
    except UnicodeEncodeError as exc:
        raise error(f"lone surrogate \\u{ord(exc.object[exc.start]):04x}") from None
    except json.JSONDecodeError as exc:
        raise error(exc.msg) from exc
    except RecursionError as exc:
        raise error("nested too deeply") from exc
    return obj


def _iter_objects(data: bytes, what: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank JSON line of ``what`` records.

    Only "\\n" ends a line, as when iterating a binary stream: str.splitlines
    would also split inside a JSON string holding U+2028 or a lone "\\r". Each
    line holds one JSON value with only JSON whitespace around it. A line
    that is not UTF-8, not JSON or not a JSON object, or whose strings hold a
    lone surrogate escape such as "\\ud800", raises ParseError.
    """
    for lineno, line in enumerate(io.BytesIO(data), 1):
        try:
            line = line.decode("utf-8").rstrip("\n")
        except UnicodeDecodeError as exc:
            raise ParseError("not UTF-8 text", lineno) from exc
        if line.strip():
            obj = load_json(line, lambda reason: ParseError(f"malformed {what}: {reason}", lineno))
            if not isinstance(obj, dict):
                raise ParseError(f"{what} is not an object", lineno)
            yield lineno, obj


def _parse_turn(obj, lineno: int, label: str = "") -> Utterance:
    """One turn object checked against the per-turn rules of the transcript format.

    Exactly the expected fields, a known speaker role, a non-negative
    integer index (a bool is not one), non-empty text and string case and
    speaker ids; ``label`` prefixes each error message.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{label}is not an object", lineno)
    missing = [f for f in _RECORD_FIELDS if f not in obj]
    extra = [k for k in obj if k not in _RECORD_FIELDS]
    if missing:
        raise ParseError(f"{label}missing fields {missing}", lineno)
    if extra:
        raise ParseError(f"{label}unexpected fields {extra}", lineno)
    role = obj["speaker_role"]
    if role not in SPEAKER_ROLES:
        raise ParseError(f"{label}unknown speaker_role {role!r}", lineno)
    index = obj["index"]
    if type(index) is not int or index < 0:
        raise ParseError(f"{label}index must be a non-negative integer, got {index!r}", lineno)
    text = obj["text"]
    if not isinstance(text, str) or not text.strip():
        raise ParseError(f"{label}text is empty after whitespace trimming", lineno)
    for key in ("case_id", "speaker_id"):
        if type(obj[key]) is not str:
            raise ParseError(f"{label}{key} must be a string, got {obj[key]!r}", lineno)
    return Utterance(obj["case_id"], index, obj["speaker_id"], role, text)


def parse_transcript(source: IO[bytes] | bytes | str) -> Transcript:
    """Parse newline-delimited turn records into utterances, in file order.

    Validates the invariants of the format: each turn passes _parse_turn,
    and per-case indices are unique and contiguous from 0 in file order.
    A file in the writer's form is read as columns (_transcript_columns),
    any other line by line: same utterances, and only the latter raises.
    """
    data = _read_whole(source)
    transcript = _transcript_columns(data)
    if transcript is not None:
        return transcript
    utterances: list[Utterance] = []
    case_rows: dict[str, list[int]] = {}
    for lineno, obj in _iter_objects(data, "record"):
        utt = _parse_turn(obj, lineno)
        case_id, index = utt.case_id, utt.index
        rows = case_rows.setdefault(case_id, [])
        expected = len(rows)
        if index != expected:
            # Indices so far are 0..expected-1, so a smaller one is a repeat.
            if index < expected:
                raise ParseError(f"duplicate (case_id, index) = ({case_id!r}, {index})", lineno)
            raise ParseError(f"non-contiguous index for case {case_id!r}: expected {expected}, "
                             f"got {index}", lineno)
        rows.append(len(utterances))
        utterances.append(utt)
    return Transcript(_columns(utterances), case_rows)


# ---------------------------------------------------------------------------
# NDJSON lines, written from string fragments
# ---------------------------------------------------------------------------
# Every NDJSON artifact line is the text json.dumps(obj, sort_keys=True)
# gives: keys in sorted order, ", " and ": " separators, strings escaped by
# the escaper json.dumps itself uses (encode_basestring writes non-ASCII raw,
# encode_basestring_ascii escapes it). Building lines from fragments skips
# json.dumps's per-object set-up, which dominates on short lines.


def _json_object(fields: Mapping[str, str], escape=encode_basestring) -> str:
    """A JSON object from its keys and each value's JSON text, keys sorted and escaped."""
    return "{" + ", ".join(f"{escape(key)}: {fields[key]}" for key in sorted(fields)) + "}"


def _turn_lines(case_ids, indices, speaker_ids, roles, texts) -> Iterator[str]:
    """Transcript lines, without newlines, from field columns: the one turn writer."""
    return map(_TURN_FORMAT.__mod__, zip(map(encode_basestring, case_ids), indices,
                                         map(encode_basestring, speaker_ids),
                                         map(encode_basestring, roles), map(encode_basestring, texts)))


def utterance_to_json(utt: Utterance) -> str:
    """One transcript line, without its newline."""
    return next(_turn_lines(*([field] for field in utt)))


def write_transcript(utterances: Iterable[Utterance], stream: IO[str]) -> None:
    stream.write("".join([utterance_to_json(utt) + "\n" for utt in utterances]))


def case_metadata_template(attrs: Mapping[str, str]) -> list[str]:
    """A metadata line of string attributes, split where its case_id value goes.

    The line is ASCII-escaped, case_id sorted in among the attribute names;
    joining the pieces with an escaped case id gives the whole line. The NUL
    placeholder cannot occur in escaped JSON. An attribute named case_id
    replaces the case id, as a dict merge would, and leaves no placeholder.
    """
    fields = {"case_id": "\0", **{name: encode_basestring_ascii(v) for name, v in attrs.items()}}
    return (_json_object(fields, encode_basestring_ascii) + "\n").split("\0")


def write_case_metadata(case_metadata: Mapping[str, Mapping[str, str]], stream: IO[str]) -> None:
    """Write a metadata sidecar of string attributes: one line per case, in case_id order.

    Each distinct attribute set is encoded once, as a case_metadata_template.
    """
    around: dict[tuple, list[str]] = {}
    lines = []
    for case_id, attrs in sorted(case_metadata.items()):
        key = tuple(attrs.items())
        if key not in around:
            around[key] = case_metadata_template(attrs)
        lines.append(encode_basestring_ascii(case_id).join(around[key]))
    stream.write("".join(lines))


def parse_case_metadata(source: IO[bytes] | bytes | str) -> dict[str, dict]:
    """Parse the optional per-case metadata sidecar (one object per case_id).

    A line without a string case_id, whose case_id repeats an earlier one,
    or with an attribute named in COMPUTED_FEATURES raises ParseError; the
    other values are copied as given. Read as parse_transcript reads.
    """
    data = _read_whole(source)
    meta = _metadata_columns(data)
    if meta is not None:
        return meta
    meta = {}
    for lineno, obj in _iter_objects(data, "metadata record"):
        if "case_id" not in obj:
            raise ParseError("metadata record must be an object with a case_id", lineno)
        case_id = obj["case_id"]
        if type(case_id) is not str:
            raise ParseError(f"metadata case_id must be a string, got {type(case_id).__name__}",
                             lineno)
        if case_id in meta:
            raise ParseError(f"duplicate metadata for case {case_id!r}", lineno)
        computed = sorted(COMPUTED_FEATURES.intersection(obj))
        if computed:
            raise ParseError(f"metadata attribute {computed[0]!r} is a computed context feature",
                             lineno)
        meta[case_id] = {k: v for k, v in obj.items() if k != "case_id"}
    return meta


def _transcript_columns(data: bytes) -> Transcript | None:
    """The Transcript of ``data`` if every non-blank line matches _TURN_PATTERN, every
    role known, every text non-blank and each case's indices run 0, 1, ...; else None."""
    columns = _split_columns(data, _TURN_PATTERN, (2,))
    if columns is None:
        return None
    case_ids, indices, speaker_ids, roles, texts = columns
    roles = list(map(_ROLES.get, roles))  # one string object per role
    if None in roles or not all(map(str.strip, texts)):
        return None
    case_rows: dict[str, list[int]] = {}
    for row, case_id, index in zip(count(), case_ids, indices):
        rows = case_rows.setdefault(case_id, [])
        if len(rows) != index:
            return None
        rows.append(row)
    return Transcript((case_ids, indices, speaker_ids, roles, texts), case_rows)


def _metadata_columns(data: bytes) -> dict[str, dict] | None:
    """The metadata of ``data`` if every non-blank line is as write_case_metadata writes the
    first line's names, with strings that need no escape and no case_id twice; else None."""
    first = _first_object(data) or {}
    if "case_id" not in first or not COMPUTED_FEATURES.isdisjoint(first):
        return None
    names = sorted(first)
    pattern = _line_pattern(_json_object(dict.fromkeys(names, "\0s"), encode_basestring_ascii))
    columns = _split_columns(data, pattern, ())
    if columns is None:
        return None
    case_ids = columns.pop(names.index("case_id"))
    names.remove("case_id")
    meta = dict(zip(case_ids, [dict(zip(names, values)) for values in zip(*columns)]))
    return meta if len(meta) == len(case_ids) else None


_BUCKETS = ("0", "1", "2+")  # earlier marked advocate turns: 0, 1, 2 or more


def extract_units(
    utterances: Transcript,
    case_metadata: Mapping[str, Mapping[str, object]] | None = None,
) -> Units:
    """One unit per advocate utterance, in advocate-utterance order, as a Units table.

    ``utterances`` is a Transcript, as parse_transcript reads it; turns
    built in Python become one through write_transcript then
    parse_transcript. The responder slot is filled iff the next turn of the
    same case has a justice or chief-justice role. Context features:

    - prior_interruption_bucket: count of earlier advocate turns in the case
      ending with the interruption marker, bucketed to {0, 1, 2+};
    - responder_role: role of the responding turn, or "none";
    - all attributes from the case metadata sidecar, copied as given. One
      named as a computed feature raises DataError.
    """
    case_metadata = case_metadata or {}
    clash = [case for case, meta in case_metadata.items() if not COMPUTED_FEATURES.isdisjoint(meta)]
    if clash:
        raise DataError(f"case {clash[0]!r}: metadata names one of {sorted(COMPUTED_FEATURES)}")
    case_ids, indices, _, roles, texts = utterances.columns
    p2, buckets = {}, {}  # by advocate row
    for rows in utterances.case_rows.values():
        marked = 0  # the case's earlier advocate turns that end with the marker
        for row, nxt in zip(rows, [*rows[1:], -1]):
            if roles[row] == "advocate":
                p2[row] = nxt if nxt >= 0 and roles[nxt] in RESPONDER_ROLES else -1
                buckets[row] = _BUCKETS[min(marked, 2)]
                marked += ends_with_interruption_marker(texts[row])
    advocates = sorted(p2)
    p2 = list(map(p2.__getitem__, advocates))
    features = {"prior_interruption_bucket": list(map(buckets.__getitem__, advocates)),
                "responder_role": [roles[row] if row >= 0 else "none" for row in p2],
                **_feature_columns([case_metadata.get(case_ids[row], {}) for row in advocates])}
    # The id is unique: (case_id, index) is, and the index holds no ":".
    unit_ids = list(map("%s:%d".__mod__, zip(map(case_ids.__getitem__, advocates),
                                             map(indices.__getitem__, advocates))))
    return Units(utterances, advocates, p2, unit_ids, features)


_UNIT_FORMAT = '{"context": %s, "p1": %s, "p2": %s, "unit_id": %s}\n'


def _context_texts(features: dict[str, list], n: int) -> Iterator[str]:
    """Each of ``n`` units' context objects as JSON text, from the feature columns.

    A context of strings is encoded once, then shared: only strings, for
    1, 1.0 and true, or 0.0 and -0.0, compare equal but encode differently.
    """
    names, columns = list(features), list(features.values())
    contexts = list(zip(*columns)) if columns else [()] * n

    def text(values: tuple) -> str:
        context = {name: value for name, value in zip(names, values) if value is not _ABSENT}
        return json.dumps(context, ensure_ascii=False, sort_keys=True)

    if all(set(map(type, column)) <= {str, object} for column in columns):  # object: _ABSENT
        return map({values: text(values) for values in set(contexts)}.__getitem__, contexts)
    return map(text, contexts)


def write_units(units: Units, stream: IO[str]) -> None:
    """Write a units file from the table's columns, 1,024 lines to a write: a whole file's
    text would outweigh the units."""
    # Row -1, no responder, is null: the line made for it (the last turn's) is dropped.
    p2 = map(lambda row, line: line if row >= 0 else "null", units.p2, units.turns.lines(units.p2))
    rows = zip(_context_texts(units.features, len(units)), units.turns.lines(units.p1), p2,
               map(encode_basestring, units.unit_ids))
    while text := "".join(map(_UNIT_FORMAT.__mod__, islice(rows, 1024))):
        stream.write(text)


def unit_to_json(unit: AnalysisUnit) -> str:
    """One units-file line, without its newline."""
    stream = io.StringIO()
    write_units(unit_table([unit]), stream)
    return stream.getvalue()[:-1]


def units_from_json(source: IO[bytes] | bytes | str) -> Units:
    """Read a units file into a Units table; p1 and p2 follow the transcript's per-turn rules.

    A line that lacks a key, whose unit_id is not a string or repeats an
    earlier one, whose context is not an object or whose turns break a
    per-turn rule raises ParseError with its line number; a null p2 is a
    unit with no responder.
    """
    units, first_line = [], {}
    for lineno, obj in _iter_objects(_read_whole(source), "unit record"):
        try:
            unit_id, p1, p2, context = obj["unit_id"], obj["p1"], obj["p2"], obj["context"]
        except KeyError as exc:
            raise ParseError(f"unit record lacks key {exc.args[0]!r}", lineno) from exc
        if type(unit_id) is not str:
            raise ParseError(f"malformed unit record: unit_id must be a string, got {unit_id!r}",
                             lineno)
        if not isinstance(context, dict):
            raise ParseError("malformed unit record: context must be an object", lineno)
        units.append(
            AnalysisUnit(
                unit_id=unit_id,
                p1_utterance=_parse_turn(p1, lineno, "malformed unit record: p1 "),
                p2_utterance=None if p2 is None else _parse_turn(
                    p2, lineno, "malformed unit record: p2 "),
                context_features=context,
            )
        )
        if first_line.setdefault(unit_id, lineno) != lineno:
            raise ParseError(f"duplicate unit_id {unit_id!r}, first on line "
                             f"{first_line[unit_id]}", lineno)
    return unit_table(units)
