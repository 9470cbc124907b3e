"""Transcript ingestion: turn-level parsing and adjacent-pair extraction.

Transcripts arrive as newline-delimited JSON, one speaking turn per line,
with exactly the fields case_id, index, speaker_id, speaker_role, text.
The unit of analysis is an advocate turn paired with the immediately
following justice turn of the same case, when one exists.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DataError, ParseError

SPEAKER_ROLES = ("advocate", "justice", "chief_justice")
RESPONDER_ROLES = ("justice", "chief_justice")

#: Trailing markers treated as an interruption of the current speaker.
#: "--" tolerates transcription variance; strict mode keeps only "- -".
INTERRUPTION_MARKERS = ("- -", "--")
STRICT_INTERRUPTION_MARKERS = ("- -",)

#: Recognized units of analysis. Only adjacent pairs are implemented: the
#: estimators downstream assume independent units, which thread- and
#: conversation-level units would violate.
UNIT_LEVELS = ("adjacent_pair", "thread", "conversation")

_RECORD_FIELDS = ("case_id", "index", "speaker_id", "speaker_role", "text")
_RECORD_FIELD_SET = frozenset(_RECORD_FIELDS)


class Utterance(NamedTuple):
    """One speaking turn. Indices are contiguous per case starting at 0."""

    case_id: str
    index: int
    speaker_id: str
    speaker_role: str
    text: str


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


def parse_transcript(source: IO[bytes] | IO[str] | Iterable[str] | bytes | str) -> list[Utterance]:
    """Parse newline-delimited turn records into utterances, in file order.

    Validates the invariants of the format: each turn passes _parse_turn,
    and per-case indices are unique and contiguous from 0 in file order.
    """
    utterances: list[Utterance] = []
    next_index: dict[str, int] = {}
    for lineno, obj in _iter_objects(source, "record"):
        role, index, text = obj.get("speaker_role"), obj.get("index"), obj.get("text")
        # _parse_turn's rules in one test; _parse_turn runs only to raise.
        if not (obj.keys() == _RECORD_FIELD_SET and role in SPEAKER_ROLES
                and type(index) is int and index >= 0 and type(text) is str and text.strip()
                and type(obj["case_id"]) is str and type(obj["speaker_id"]) is str):
            _parse_turn(obj, lineno)
        case_id = obj["case_id"]
        expected = next_index.get(case_id, 0)
        if index != expected:
            # Indices so far are 0..expected-1, so a smaller one is a repeat.
            if index < expected:
                raise ParseError(f"duplicate (case_id, index) = ({case_id!r}, {index})", lineno)
            raise ParseError(f"non-contiguous index for case {case_id!r}: expected {expected}, "
                             f"got {index}", lineno)
        next_index[case_id] = expected + 1
        utterances.append(Utterance(case_id, index, obj["speaker_id"], role, text))
    return utterances


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


def utterance_to_json(utt: Utterance) -> str:
    """One transcript line, without its newline."""
    return (f'{{"case_id": {encode_basestring(utt.case_id)}, "index": {utt.index:d}, '
            f'"speaker_id": {encode_basestring(utt.speaker_id)}, '
            f'"speaker_role": {encode_basestring(utt.speaker_role)}, '
            f'"text": {encode_basestring(utt.text)}}}')


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

    A line without a string case_id, or whose case_id repeats an earlier
    one, raises ParseError; the other values are copied as given.
    """
    meta: dict[str, dict] = {}
    for lineno, obj in _iter_objects(source, "metadata record"):
        if "case_id" not in obj:
            raise ParseError("metadata record must be an object with a case_id", lineno)
        case_id = obj["case_id"]
        if type(case_id) is not str:
            raise ParseError(f"metadata case_id must be a string, got {type(case_id).__name__}",
                             lineno)
        if case_id in meta:
            raise ParseError(f"duplicate metadata for case {case_id!r}", lineno)
        meta[case_id] = {k: v for k, v in obj.items() if k != "case_id"}
    return meta


def _interruption_bucket(count: int) -> str:
    return "2+" if count >= 2 else str(count)


def extract_units(
    utterances: Sequence[Utterance],
    case_metadata: Mapping[str, Mapping[str, object]] | None = None,
    strict_marker: bool = False,
    unit_level: str = "adjacent_pair",
) -> list[AnalysisUnit]:
    """One unit per advocate utterance, in advocate-utterance order.

    The responder slot is filled iff the next turn of the same case has a
    justice or chief-justice role. Context features:

    - prior_interruption_bucket: count of earlier advocate turns in the case
      ending with the interruption marker, bucketed to {0, 1, 2+};
    - responder_role: role of the responding turn, or "none";
    - all attributes from the case metadata sidecar, copied as given.

    unit_level other than "adjacent_pair" is recognized but not implemented.
    """
    if unit_level != "adjacent_pair":
        if unit_level in UNIT_LEVELS:
            raise DataError(f"unit level {unit_level!r} is not implemented")
        raise DataError(f"unknown unit level {unit_level!r}; recognized: {UNIT_LEVELS}")
    case_metadata = case_metadata or {}
    by_case: dict[str, list[Utterance]] = {}
    for utt in utterances:
        by_case.setdefault(utt.case_id, []).append(utt)
    # prior[case][i]: earlier advocate turns of the case ending with the marker
    prior: dict[str, list[int]] = {}
    for case_id, turns in by_case.items():
        turns.sort(key=lambda t: t.index)
        if [t.index for t in turns] != list(range(len(turns))):
            raise DataError(f"case {case_id!r}: indices not contiguous from 0")
        running, counts = 0, []
        for turn in turns:
            counts.append(running)
            if turn.speaker_role == "advocate" and ends_with_interruption_marker(
                turn.text, strict=strict_marker
            ):
                running += 1
        prior[case_id] = counts

    units: list[AnalysisUnit] = []
    for utt in utterances:
        if utt.speaker_role != "advocate":
            continue
        turns = by_case[utt.case_id]
        nxt = turns[utt.index + 1] if utt.index + 1 < len(turns) else None
        p2 = nxt if nxt is not None and nxt.speaker_role in RESPONDER_ROLES else None
        context: dict[str, object] = {
            "prior_interruption_bucket": _interruption_bucket(prior[utt.case_id][utt.index]),
            "responder_role": p2.speaker_role if p2 is not None else "none",
        }
        context.update(case_metadata.get(utt.case_id, ()))
        # The id is unique: (case_id, index) is, and the index holds no ":".
        units.append(AnalysisUnit(f"{utt.case_id}:{utt.index}", utt, p2, context))
    return units


def _unit_line(unit: AnalysisUnit, contexts: dict[tuple, str]) -> str:
    """One units-file line, without its newline; ``contexts`` caches context texts.

    Only contexts of string keys and values are cached: 1, 1.0 and true, or
    0.0 and -0.0, compare equal but encode differently.
    """
    items = tuple(unit.context_features.items())
    shared = all(type(key) is str and type(value) is str for key, value in items)
    context = contexts.get(items) if shared else None
    if context is None:
        context = json.dumps(dict(items), ensure_ascii=False, sort_keys=True)
        if shared:
            contexts[items] = context
    p2 = "null" if unit.p2_utterance is None else utterance_to_json(unit.p2_utterance)
    return (f'{{"context": {context}, "p1": {utterance_to_json(unit.p1_utterance)}, '
            f'"p2": {p2}, "unit_id": {encode_basestring(unit.unit_id)}}}')


def unit_to_json(unit: AnalysisUnit) -> str:
    """One units-file line, without its newline."""
    return _unit_line(unit, {})


def write_units(units: Iterable[AnalysisUnit], stream: IO[str]) -> None:
    contexts: dict[tuple, str] = {}
    stream.write("".join([_unit_line(unit, contexts) + "\n" for unit in units]))


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
