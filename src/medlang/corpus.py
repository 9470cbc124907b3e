"""Transcript ingestion: turn-level parsing and adjacent-pair extraction.

Transcripts arrive as newline-delimited JSON, one speaking turn per line,
with exactly the fields case_id, index, speaker_id, speaker_role, text.
The unit of analysis is an advocate turn paired with the immediately
following justice turn of the same case, when one exists.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import IO, Iterable, Iterator, Mapping, Sequence

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


@dataclass(frozen=True)
class Utterance:
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
    markers = STRICT_INTERRUPTION_MARKERS if strict else INTERRUPTION_MARKERS
    stripped = text.rstrip()
    return any(stripped.endswith(m) for m in markers)


def _iter_lines(source: IO[bytes] | IO[str] | Iterable[str] | bytes | str) -> Iterator[tuple[int, str]]:
    """Yield (line number, text) for each non-blank line; bad UTF-8 raises ParseError."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("not UTF-8 text", source.count(b"\n", 0, exc.start) + 1) from exc
    lines = iter(source.splitlines() if isinstance(source, str) else source)
    for lineno in itertools.count(1):
        try:  # a text stream decodes while it is iterated
            line = next(lines, None)
            if isinstance(line, bytes):
                line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("not UTF-8 text", lineno) from exc
        if line is None:
            return
        if line.strip():
            yield lineno, line.rstrip("\n")


def _iter_objects(source, what: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank JSON line of ``what`` records.

    A line that is not UTF-8, not JSON or not a JSON object, or whose
    strings hold a lone surrogate escape such as "\\ud800", raises ParseError.
    """
    for lineno, line in _iter_lines(source):
        try:
            obj = json.loads(line)
            # Only a \u escape can put a lone surrogate into a decoded string;
            # such a string could never be written back as UTF-8.
            if "\\u" in line:
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed {what}: {exc.msg}", lineno) from exc
        except RecursionError as exc:
            raise ParseError(f"malformed {what}: nested too deeply", lineno) from exc
        except UnicodeEncodeError as exc:
            surrogate = f"\\u{ord(exc.object[exc.start]):04x}"
            raise ParseError(f"malformed {what}: lone surrogate {surrogate}", lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError(f"{what} is not an object", lineno)
        yield lineno, obj


def _parse_turn(obj, lineno: int, label: str = "") -> Utterance:
    """One turn object checked against the per-turn rules of the transcript format.

    Exactly the expected fields, a known speaker role, a non-negative
    integer index (a bool is not one) and non-empty text; ``label`` prefixes
    each error message.
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
    return Utterance(str(obj["case_id"]), index, str(obj["speaker_id"]), role, text)


def parse_transcript(source: IO[bytes] | IO[str] | Iterable[str] | bytes | str) -> list[Utterance]:
    """Parse newline-delimited turn records into utterances, in file order.

    Validates the invariants of the format: each turn passes _parse_turn,
    and per-case indices are unique and contiguous from 0 in file order.
    """
    utterances: list[Utterance] = []
    next_index: dict[str, int] = {}
    seen: set[tuple[str, int]] = set()
    for lineno, obj in _iter_objects(source, "record"):
        utt = _parse_turn(obj, lineno)
        case_id, index = utt.case_id, utt.index
        if (case_id, index) in seen:
            raise ParseError(f"duplicate (case_id, index) = ({case_id!r}, {index})", lineno)
        expected = next_index.get(case_id, 0)
        if index != expected:
            raise ParseError(
                f"non-contiguous index for case {case_id!r}: expected {expected}, got {index}",
                lineno,
            )
        seen.add((case_id, index))
        next_index[case_id] = expected + 1
        utterances.append(utt)
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


def write_case_metadata(case_metadata: Mapping[str, Mapping[str, str]], stream: IO[str]) -> None:
    """Write a metadata sidecar of string attributes: one line per case, in case_id order.

    Lines are ASCII-escaped, case_id sorted in among the attribute names.
    Each distinct attribute set is encoded once, as the text around its
    case_id value: the NUL placeholder cannot occur in escaped JSON. An
    attribute named case_id replaces the case id, as a dict merge would,
    and leaves no placeholder.
    """
    around: dict[tuple, list[str]] = {}
    lines = []
    for case_id, attrs in sorted(case_metadata.items()):
        key = tuple(attrs.items())
        if key not in around:
            fields = {"case_id": "\0", **{name: encode_basestring_ascii(v) for name, v in key}}
            around[key] = (_json_object(fields, encode_basestring_ascii) + "\n").split("\0")
        lines.append(encode_basestring_ascii(case_id).join(around[key]))
    stream.write("".join(lines))


def parse_case_metadata(source: IO[bytes] | IO[str] | Iterable[str] | bytes | str) -> dict[str, dict]:
    """Parse the optional per-case metadata sidecar (one object per case_id)."""
    meta: dict[str, dict] = {}
    for lineno, obj in _iter_objects(source, "metadata record"):
        if "case_id" not in obj:
            raise ParseError("metadata record must be an object with a case_id", lineno)
        case_id = str(obj["case_id"])
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
        ordered = sorted(t.index for t in turns)
        if ordered != list(range(len(turns))):
            raise DataError(f"case {case_id!r}: indices not contiguous from 0")
        turns.sort(key=lambda t: t.index)
        running, counts = 0, []
        for turn in turns:
            counts.append(running)
            if turn.speaker_role == "advocate" and ends_with_interruption_marker(
                turn.text, strict=strict_marker
            ):
                running += 1
        prior[case_id] = counts

    units: list[AnalysisUnit] = []
    seen_ids: set[str] = set()
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
        for key, value in case_metadata.get(utt.case_id, {}).items():
            context[key] = value
        unit_id = f"{utt.case_id}:{utt.index}"
        if unit_id in seen_ids:
            raise DataError(f"duplicate unit id {unit_id!r}")
        seen_ids.add(unit_id)
        units.append(
            AnalysisUnit(
                unit_id=unit_id,
                p1_utterance=utt,
                p2_utterance=p2,
                context_features=context,
            )
        )
    return units


def unit_to_json(unit: AnalysisUnit) -> str:
    """One units-file line, without its newline.

    Context values may be any JSON value, so the context keeps one json.dumps.
    """
    context = json.dumps(dict(unit.context_features), ensure_ascii=False, sort_keys=True)
    p2 = "null" if unit.p2_utterance is None else utterance_to_json(unit.p2_utterance)
    return (f'{{"context": {context}, "p1": {utterance_to_json(unit.p1_utterance)}, '
            f'"p2": {p2}, "unit_id": {encode_basestring(unit.unit_id)}}}')


def write_units(units: Iterable[AnalysisUnit], stream: IO[str]) -> None:
    stream.write("".join([unit_to_json(unit) + "\n" for unit in units]))


def units_from_json(source: IO[bytes] | IO[str] | Iterable[str] | bytes | str) -> list[AnalysisUnit]:
    """Read a units file; p1 and p2 follow the transcript's per-turn rules.

    A line that lacks a key, whose unit_id is not a string, whose context
    is not an object or whose turns break a per-turn rule raises
    ParseError with its line number. A null p2 is a unit with no responder.
    """
    units = []
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
    return units
