"""Transcript ingestion: turn-level parsing and adjacent-pair extraction.

Transcripts arrive as newline-delimited JSON, one speaking turn per line,
with exactly the fields case_id, index, speaker_id, speaker_role, text.
The unit of analysis is an advocate turn paired with the immediately
following justice turn of the same case, when one exists.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from itertools import islice, repeat
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import IO, ClassVar, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DataError, ParseError

SPEAKER_ROLES = ("advocate", "justice", "chief_justice")
RESPONDER_ROLES = ("justice", "chief_justice")

#: Trailing markers treated as an interruption of the current speaker.
#: "--" tolerates transcription variance; strict mode keeps only "- -".
INTERRUPTION_MARKERS = ("- -", "--")
STRICT_INTERRUPTION_MARKERS = ("- -",)

#: The context features extract_units computes; no metadata attribute may take their names.
COMPUTED_FEATURES = frozenset({"prior_interruption_bucket", "responder_role"})

_RECORD_FIELDS = ("case_id", "index", "speaker_id", "speaker_role", "text")
_RECORD_FIELD_SET = frozenset(_RECORD_FIELDS)
#: The one transcript line format, without its newline: a %-format of the fields' JSON texts.
_TURN_FORMAT = '{"case_id": %s, "index": %d, "speaker_id": %s, "speaker_role": %s, "text": %s}'


class Utterance(NamedTuple):
    """One speaking turn. Indices are contiguous per case starting at 0."""

    case_id: str
    index: int
    speaker_id: str
    speaker_role: str
    text: str


class Transcript(list):
    """A transcript's utterances in file order, as parse_transcript reads them; read-only.

    ``cases`` maps each case_id to its turns in index order; ``plain`` tells
    that each line was _PLAIN_TURN % turn (see _transcript_columns).
    """

    def __init__(self, utterances, cases: dict[str, list[Utterance]], plain: bool) -> None:
        super().__init__(utterances)
        self.cases, self.plain = cases, plain

    def _read_only(self, *args, **kwargs):
        raise TypeError("a Transcript is read-only; change a list() copy of it")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def __reduce__(self):  # a copy or a pickle is a list
        return list, (list(self),)


@dataclass(frozen=True)
class AnalysisUnit:
    """An advocate turn plus the immediately following justice turn, if any.

    Units with no responder are retained (p2_utterance None) but excluded
    downstream because their outcome is undefined.
    """

    unit_id: str
    p1_utterance: Utterance
    p2_utterance: Utterance | None
    context_features: Mapping[str, object] = field(default_factory=dict)
    _plain: ClassVar[bool] = False  # turns from a plain Transcript; replace() clears it


def ends_with_interruption_marker(text: str, strict: bool = False) -> bool:
    return text.rstrip().endswith(STRICT_INTERRUPTION_MARKERS if strict else INTERRUPTION_MARKERS)


def _iter_lines(source: IO[bytes] | IO[str] | Iterable[str] | bytes | str) -> Iterator[tuple[int, str]]:
    """Yield (line number, text) for each non-blank line; bad UTF-8 raises ParseError."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("not UTF-8 text", source.count(b"\n", 0, exc.start) + 1) from exc
    # Split at "\n" only, as iterating a binary stream does; str.splitlines
    # would also split inside a JSON string holding U+2028 or a lone "\r".
    lineno = 0
    try:  # a text stream decodes while it is iterated
        for lineno, line in enumerate(source.split("\n") if isinstance(source, str) else source, 1):
            if isinstance(line, bytes):
                try:
                    line = line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError("not UTF-8 text", lineno) from exc
            line = line.rstrip("\n")
            if line.strip():
                yield lineno, line
    except UnicodeDecodeError as exc:  # raised while reading the line after lineno
        raise ParseError("not UTF-8 text", lineno + 1) from exc


def _read_whole(source) -> tuple[bytes | None, object]:
    """Read ``source`` once: its bytes, and a source _iter_lines reads as it reads ``source``.

    A str is encoded as UTF-8; bytes read may not be UTF-8. The bytes are
    None for an iterable of lines and for a str with a lone surrogate. A
    text stream counts as an iterable of lines: it decodes while it is
    read, and _iter_lines names the line at which that fails.
    """
    if isinstance(source, io.TextIOBase):
        return None, source
    if hasattr(source, "read"):
        data = source.read()
        return (data, io.BytesIO(data)) if isinstance(data, bytes) else _read_whole(data)
    if isinstance(source, str):
        try:
            return source.encode("utf-8"), source
        except UnicodeEncodeError:
            return None, source
    return (source, source) if isinstance(source, bytes) else (None, source)


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


def _split_columns(data: bytes, pattern: re.Pattern, integers, block: int) -> list[list] | None:
    """Each group's captures in file order (ints for ``integers``), if ``pattern`` matches
    every non-blank line of ``data``; None for bytes not UTF-8 or a line of another form."""
    step = pattern.groups + 1
    columns: list[list] = [[] for _ in range(pattern.groups)]
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + block) + 1 or len(data)
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


_scan_once = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def _decode_line(line: str):
    """The value json.loads(line) gives, decoded in one call of its C scanner.

    Unless only JSON whitespace surrounds it, json.loads raises its error.
    """
    try:
        obj, end = _scan_once(line, len(line) - len(line.lstrip(_JSON_SPACE)))
        if not line[end:].strip(_JSON_SPACE):
            return obj
    except StopIteration:
        pass
    return json.loads(line)


def lone_surrogate(obj) -> str | None:
    """The escape of the first lone surrogate in the strings of a decoded JSON value, or None.

    Only a \\u escape can put one into a decoded string; such a string
    could never be written back as UTF-8.
    """
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"\\u{ord(exc.object[exc.start]):04x}"
    return None


def _iter_objects(source, what: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank JSON line of ``what`` records.

    Each line holds one JSON value with only JSON whitespace around it. A
    line that is not UTF-8, not JSON or not a JSON object, or whose strings
    hold a lone surrogate escape such as "\\ud800", raises ParseError.
    """
    for lineno, line in _iter_lines(source):
        try:
            obj = _decode_line(line)
            surrogate = lone_surrogate(obj) if "\\u" in line else None
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed {what}: {exc.msg}", lineno) from exc
        except RecursionError as exc:
            raise ParseError(f"malformed {what}: nested too deeply", lineno) from exc
        if surrogate:
            raise ParseError(f"malformed {what}: lone surrogate {surrogate}", lineno)
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


def parse_transcript(source: IO[bytes] | IO[str] | Iterable[str] | bytes | str) -> Transcript:
    """Parse newline-delimited turn records into utterances, in file order.

    Validates the invariants of the format: each turn passes _parse_turn,
    and per-case indices are unique and contiguous from 0 in file order.
    Bytes in the writer's form are read as columns (_transcript_columns),
    anything else line by line: same utterances, and only the latter raises.
    """
    data, source = _read_whole(source)
    transcript = None if data is None else _transcript_columns(data)
    if transcript is not None:
        return transcript
    utterances: list[Utterance] = []
    cases: dict[str, list[Utterance]] = {}
    for lineno, obj in _iter_objects(source, "record"):
        role, index, text = obj.get("speaker_role"), obj.get("index"), obj.get("text")
        # _parse_turn's rules in one test; _parse_turn runs only to raise.
        if not (obj.keys() == _RECORD_FIELD_SET and role in SPEAKER_ROLES
                and type(index) is int and index >= 0 and type(text) is str and text.strip()
                and type(obj["case_id"]) is str and type(obj["speaker_id"]) is str):
            _parse_turn(obj, lineno)
        case_id = obj["case_id"]
        turns = cases.setdefault(case_id, [])
        expected = len(turns)
        if index != expected:
            # Indices so far are 0..expected-1, so a smaller one is a repeat.
            if index < expected:
                raise ParseError(f"duplicate (case_id, index) = ({case_id!r}, {index})", lineno)
            raise ParseError(f"non-contiguous index for case {case_id!r}: expected {expected}, "
                             f"got {index}", lineno)
        turns.append(Utterance(case_id, index, obj["speaker_id"], role, text))
        utterances.append(turns[-1])
    return Transcript(utterances, cases, False)


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


#: _TURN_FORMAT for strings that need no escape: each as it is, between quotes.
_PLAIN_TURN = _TURN_FORMAT.replace("%s", '"%s"')


def utterance_to_json(utt: Utterance) -> str:
    """One transcript line, without its newline."""
    return _TURN_FORMAT % (encode_basestring(utt.case_id), utt.index,
                           encode_basestring(utt.speaker_id),
                           encode_basestring(utt.speaker_role), encode_basestring(utt.text))


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


def parse_case_metadata(source: IO[bytes] | IO[str] | Iterable[str] | bytes | str) -> dict[str, dict]:
    """Parse the optional per-case metadata sidecar (one object per case_id).

    A line without a string case_id, whose case_id repeats an earlier one,
    or with an attribute named in COMPUTED_FEATURES raises ParseError; the
    other values are copied as given. Read as parse_transcript reads.
    """
    data, source = _read_whole(source)
    meta = None if data is None else _metadata_columns(data)
    if meta is not None:
        return meta
    meta = {}
    for lineno, obj in _iter_objects(source, "metadata record"):
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
    """The Transcript of ``data`` if every non-blank line is as _PLAIN_TURN writes it, every
    role known, every text non-blank and each case's indices run 0, 1, ...; else None."""
    columns = _split_columns(data, _TURN_PATTERN, (2,), _BLOCK)
    if columns is None:
        return None
    case_ids, indices, speaker_ids, roles, texts = columns
    roles = list(map(_ROLES.get, roles))  # one string object per role
    if None in roles or not all(map(str.strip, texts)):
        return None
    # tuple.__new__ builds each Utterance as Utterance._make does, without a Python frame.
    utterances = list(map(tuple.__new__, repeat(Utterance),
                          zip(case_ids, indices, speaker_ids, roles, texts)))
    cases: dict[str, list[Utterance]] = {}
    for utt in utterances:
        turns = cases.setdefault(utt.case_id, [])
        if len(turns) != utt.index:
            return None
        turns.append(utt)
    return Transcript(utterances, cases, True)


def _metadata_columns(data: bytes) -> dict[str, dict] | None:
    """The metadata of ``data`` if every non-blank line is as write_case_metadata writes the
    first line's names, with strings that need no escape and no case_id twice; else None."""
    first = _first_object(data) or {}
    if "case_id" not in first or not COMPUTED_FEATURES.isdisjoint(first):
        return None
    names = sorted(first)
    pattern = _line_pattern(_json_object(dict.fromkeys(names, "\0s"), encode_basestring_ascii))
    columns = _split_columns(data, pattern, (), _BLOCK)
    if columns is None:
        return None
    case_ids = columns.pop(names.index("case_id"))
    names.remove("case_id")
    meta = dict(zip(case_ids, [dict(zip(names, values)) for values in zip(*columns)]))
    return meta if len(meta) == len(case_ids) else None


_BUCKETS = ("0", "1", "2+")  # earlier marked advocate turns: 0, 1, 2 or more


def extract_units(
    utterances: Sequence[Utterance],
    case_metadata: Mapping[str, Mapping[str, object]] | None = None,
    strict_marker: bool = False,
) -> list[AnalysisUnit]:
    """One unit per advocate utterance, in advocate-utterance order.

    The responder slot is filled iff the next turn of the same case has a
    justice or chief-justice role. Context features:

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
    if isinstance(utterances, Transcript):  # grouped as read
        cases, plain = utterances.cases, utterances.plain
    else:
        cases, plain = {}, False
        for utt in utterances:
            cases.setdefault(utt.case_id, []).append(utt)
        for case_id, turns in cases.items():
            turns.sort(key=lambda t: t.index)
            if [t.index for t in turns] != list(range(len(turns))):
                raise DataError(f"case {case_id!r}: indices not contiguous from 0")
    # prior[case][i]: the bucket of earlier advocate turns of the case ending with the marker
    prior: dict[str, list[str]] = {}
    for case_id, turns in cases.items():
        running, buckets = 0, []
        for turn in turns:
            buckets.append(_BUCKETS[running])
            if running < 2 and turn.speaker_role == "advocate" and ends_with_interruption_marker(
                turn.text, strict=strict_marker
            ):
                running += 1
        prior[case_id] = buckets

    units: list[AnalysisUnit] = []
    for utt in utterances:
        if utt.speaker_role != "advocate":
            continue
        case_id, index = utt.case_id, utt.index
        turns = cases[case_id]
        nxt = turns[index + 1] if index + 1 < len(turns) else None
        p2 = nxt if nxt is not None and nxt.speaker_role in RESPONDER_ROLES else None
        context: dict[str, object] = {
            "prior_interruption_bucket": prior[case_id][index],
            "responder_role": p2.speaker_role if p2 is not None else "none",
        }
        context.update(case_metadata.get(case_id, ()))
        # The id is unique: (case_id, index) is, and the index holds no ":".
        unit = AnalysisUnit(f"{case_id}:{index}", utt, p2, context)
        if plain:
            object.__setattr__(unit, "_plain", True)
        units.append(unit)
    return units


def _unit_line(unit: AnalysisUnit, contexts: dict[tuple, str]) -> str:
    """One units-file line, with its newline; ``contexts`` caches context texts.

    Only contexts of string keys and values are cached: 1, 1.0 and true, or
    0.0 and -0.0, compare equal but encode differently.
    """
    items = tuple(unit.context_features.items())
    try:  # a string equals only a string, so a hit is a context of strings
        context = contexts.get(items)
    except TypeError:  # an unhashable value
        context = None
    if context is None:
        context = json.dumps(dict(items), ensure_ascii=False, sort_keys=True)
        if all(type(key) is str and type(value) is str for key, value in items):
            contexts[items] = context
    turn_json = _PLAIN_TURN.__mod__ if unit._plain else utterance_to_json
    p2 = "null" if unit.p2_utterance is None else turn_json(unit.p2_utterance)
    return (f'{{"context": {context}, "p1": {turn_json(unit.p1_utterance)}, '
            f'"p2": {p2}, "unit_id": {encode_basestring(unit.unit_id)}}}\n')


def unit_to_json(unit: AnalysisUnit) -> str:
    """One units-file line, without its newline."""
    return _unit_line(unit, {})[:-1]


def write_units(units: Iterable[AnalysisUnit], stream: IO[str]) -> None:
    """Write a units file, 1,024 lines to a write: a whole file's text would outweigh the units."""
    contexts: dict[tuple, str] = {}
    lines = iter(units)
    while text := "".join([_unit_line(unit, contexts) for unit in islice(lines, 1024)]):
        stream.write(text)


def units_from_json(source: IO[bytes] | IO[str] | Iterable[str] | bytes | str) -> list[AnalysisUnit]:
    """Read a units file; p1 and p2 follow the transcript's per-turn rules.

    A line that lacks a key, whose unit_id is not a string or repeats an
    earlier one, whose context is not an object or whose turns break a
    per-turn rule raises ParseError with its line number; a null p2 is a
    unit with no responder.
    """
    units, first_line = [], {}
    for lineno, obj in _iter_objects(source, "unit record"):
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
    return units
