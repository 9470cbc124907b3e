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

    A line that is not UTF-8, not JSON or not a JSON object raises ParseError.
    """
    for lineno, line in _iter_lines(source):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed {what}: {exc.msg}", lineno) from exc
        except RecursionError as exc:
            raise ParseError(f"malformed {what}: nested too deeply", lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError(f"{what} is not an object", lineno)
        yield lineno, obj


def parse_transcript(source: IO[bytes] | IO[str] | Iterable[str] | bytes | str) -> list[Utterance]:
    """Parse newline-delimited turn records into utterances, in file order.

    Validates the invariants of the format: exactly the expected fields per
    record, known speaker roles, non-empty text, and per-case indices that
    are unique and contiguous from 0 in file order.
    """
    utterances: list[Utterance] = []
    next_index: dict[str, int] = {}
    seen: set[tuple[str, int]] = set()
    for lineno, obj in _iter_objects(source, "record"):
        missing = [f for f in _RECORD_FIELDS if f not in obj]
        extra = [k for k in obj if k not in _RECORD_FIELDS]
        if missing:
            raise ParseError(f"missing fields {missing}", lineno)
        if extra:
            raise ParseError(f"unexpected fields {extra}", lineno)
        role = obj["speaker_role"]
        if role not in SPEAKER_ROLES:
            raise ParseError(f"unknown speaker_role {role!r}", lineno)
        case_id = str(obj["case_id"])
        index = obj["index"]
        if not isinstance(index, int) or index < 0:
            raise ParseError(f"index must be a non-negative integer, got {index!r}", lineno)
        if (case_id, index) in seen:
            raise ParseError(f"duplicate (case_id, index) = ({case_id!r}, {index})", lineno)
        expected = next_index.get(case_id, 0)
        if index != expected:
            raise ParseError(
                f"non-contiguous index for case {case_id!r}: expected {expected}, got {index}",
                lineno,
            )
        text = obj["text"]
        if not isinstance(text, str) or not text.strip():
            raise ParseError("text is empty after whitespace trimming", lineno)
        seen.add((case_id, index))
        next_index[case_id] = expected + 1
        utterances.append(
            Utterance(
                case_id=case_id,
                index=index,
                speaker_id=str(obj["speaker_id"]),
                speaker_role=role,
                text=text,
            )
        )
    return utterances


def utterance_to_json(utt: Utterance) -> str:
    return json.dumps(
        {
            "case_id": utt.case_id,
            "index": utt.index,
            "speaker_id": utt.speaker_id,
            "speaker_role": utt.speaker_role,
            "text": utt.text,
        },
        ensure_ascii=False,
        sort_keys=True,
    )


def write_transcript(utterances: Iterable[Utterance], stream: IO[str]) -> None:
    for utt in utterances:
        stream.write(utterance_to_json(utt) + "\n")


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
    for case_id, turns in by_case.items():
        ordered = sorted(t.index for t in turns)
        if ordered != list(range(len(turns))):
            raise DataError(f"case {case_id!r}: indices not contiguous from 0")
        turns.sort(key=lambda t: t.index)

    units: list[AnalysisUnit] = []
    seen_ids: set[str] = set()
    for utt in utterances:
        if utt.speaker_role != "advocate":
            continue
        turns = by_case[utt.case_id]
        nxt = turns[utt.index + 1] if utt.index + 1 < len(turns) else None
        p2 = nxt if nxt is not None and nxt.speaker_role in RESPONDER_ROLES else None
        prior = sum(
            1
            for other in turns[: utt.index]
            if other.speaker_role == "advocate"
            and ends_with_interruption_marker(other.text, strict=strict_marker)
        )
        context: dict[str, object] = {
            "prior_interruption_bucket": _interruption_bucket(prior),
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


def _utterance_dict(utt: Utterance) -> dict:
    return {
        "case_id": utt.case_id,
        "index": utt.index,
        "speaker_id": utt.speaker_id,
        "speaker_role": utt.speaker_role,
        "text": utt.text,
    }


def unit_to_json(unit: AnalysisUnit) -> str:
    return json.dumps(
        {
            "unit_id": unit.unit_id,
            "p1": _utterance_dict(unit.p1_utterance),
            "p2": _utterance_dict(unit.p2_utterance) if unit.p2_utterance else None,
            "context": dict(unit.context_features),
        },
        ensure_ascii=False,
        sort_keys=True,
    )


def units_from_json(source: IO[bytes] | IO[str] | Iterable[str] | bytes | str) -> list[AnalysisUnit]:
    units = []
    for lineno, obj in _iter_objects(source, "unit record"):
        try:
            units.append(
                AnalysisUnit(
                    unit_id=obj["unit_id"],
                    p1_utterance=Utterance(**obj["p1"]),
                    p2_utterance=Utterance(**obj["p2"]) if obj.get("p2") else None,
                    context_features=obj.get("context", {}),
                )
            )
        except KeyError as exc:
            raise ParseError(f"unit record lacks key {exc.args[0]!r}", lineno) from exc
        except TypeError as exc:
            raise ParseError(f"malformed unit record: {exc}", lineno) from exc
    return units
