import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import near_lines
from medlang.corpus import (
    AnalysisUnit,
    Utterance,
    ends_with_interruption_marker,
    extract_units,
    parse_case_metadata,
    parse_transcript,
    units_from_json,
    unit_to_json,
    utterance_to_json,
    write_transcript,
)
from medlang.errors import DataError, MedlangError, ParseError


def line(case_id, index, speaker, role, text):
    return json.dumps(
        {
            "case_id": case_id,
            "index": index,
            "speaker_id": speaker,
            "speaker_role": role,
            "text": text,
        }
    )


def test_parse_single_justice_turn():
    src = line("2008-07-636", 0, "Antonin Scalia", "justice",
               "Well, if it's an alienation, but his point is that a waiver is not an alienation.")
    (utt,) = parse_transcript(src)
    assert utt.speaker_role == "justice"
    assert utt.case_id == "2008-07-636"
    assert utt.index == 0
    assert utt.text.startswith("Well, if it's an alienation")


def test_parse_empty_stream():
    assert parse_transcript("") == []
    assert parse_transcript(io.BytesIO(b"")) == []


def test_parse_interleaved_cases_matches_reference_reader():
    rows = [
        ("a", 0, "adv one", "advocate", "First point."),
        ("b", 0, "adv two", "advocate", "Other case opening."),
        ("a", 1, "justice j", "justice", "A question?"),
        ("b", 1, "justice j", "justice", "Another question?"),
        ("a", 2, "adv one", "advocate", "An answer."),
    ]
    text = "\n".join(line(*row) for row in rows)

    # Reference reader: plain line-by-line json decoding, no validation.
    reference = [json.loads(l) for l in text.splitlines()]
    parsed = parse_transcript(text)
    assert len(parsed) == len(reference)
    for utt, ref in zip(parsed, reference):
        assert utt.case_id == ref["case_id"]
        assert utt.index == ref["index"]
        assert utt.speaker_id == ref["speaker_id"]
        assert utt.speaker_role == ref["speaker_role"]
        assert utt.text == ref["text"]
    # per-case indices remain contiguous from 0
    for case in ("a", "b"):
        indices = [u.index for u in parsed if u.case_id == case]
        assert indices == list(range(len(indices)))


def test_parse_duplicate_index_errors():
    text = "\n".join([
        line("a", 0, "s", "advocate", "x"),
        line("a", 1, "s", "justice", "y"),
        line("a", 1, "s", "justice", "z"),
    ])
    with pytest.raises(ParseError, match="duplicate"):
        parse_transcript(text)


def test_parse_noncontiguous_index_errors():
    text = "\n".join([line("a", 0, "s", "advocate", "x"), line("a", 2, "s", "justice", "y")])
    with pytest.raises(ParseError, match="non-contiguous"):
        parse_transcript(text)


def test_parse_unknown_role_names_value():
    with pytest.raises(ParseError, match="'clerk'"):
        parse_transcript(line("a", 0, "s", "clerk", "x"))


def test_parse_malformed_line_carries_line_number():
    text = line("a", 0, "s", "advocate", "x") + "\n{not json"
    with pytest.raises(ParseError, match="line 2"):
        parse_transcript(text)


def test_parse_field_discipline():
    missing = json.dumps({"case_id": "a", "index": 0, "speaker_id": "s", "text": "x"})
    with pytest.raises(ParseError, match="missing"):
        parse_transcript(missing)
    extra = json.dumps(
        {"case_id": "a", "index": 0, "speaker_id": "s", "speaker_role": "justice",
         "text": "x", "mood": "stern"}
    )
    with pytest.raises(ParseError, match="unexpected"):
        parse_transcript(extra)


def test_parse_blank_text_errors():
    with pytest.raises(ParseError, match="empty"):
        parse_transcript(line("a", 0, "s", "advocate", "   "))


def test_round_trip_is_field_exact(paired_utterances):
    buf = io.StringIO()
    write_transcript(paired_utterances, buf)
    again = parse_transcript(buf.getvalue())
    assert again == paired_utterances
    # and a second serialization is byte-identical
    assert [utterance_to_json(u) for u in again] == [
        utterance_to_json(u) for u in paired_utterances
    ]


def test_extract_minimal_pair():
    utts = parse_transcript("\n".join([
        line("a", 0, "adv", "advocate", "Opening argument."),
        line("a", 1, "justice j", "justice", "A question?"),
    ]))
    units = extract_units(utts)
    assert len(units) == 1
    assert units[0].p2_utterance is not None
    assert units[0].p2_utterance.speaker_role == "justice"


def test_extract_four_turn_fixture_by_hand_enumeration():
    # [justice, advocate, advocate, justice]: the first advocate turn is
    # followed by another advocate turn, so its responder slot is empty.
    utts = parse_transcript("\n".join([
        line("a", 0, "justice j", "justice", "Preliminary question?"),
        line("a", 1, "adv", "advocate", "First answer."),
        line("a", 2, "adv", "advocate", "Continued answer."),
        line("a", 3, "justice j", "justice", "Follow-up?"),
    ]))
    units = extract_units(utts)
    assert len(units) == 2
    assert units[0].p2_utterance is None
    assert units[1].p2_utterance is not None
    assert units[1].p2_utterance.index == 3


def test_extract_pairs_adams_with_followup(paired_units):
    adams = [u for u in paired_units if u.p1_utterance.speaker_id == "Ann O'Connell Adams"]
    assert len(adams) == 1
    assert adams[0].p2_utterance is not None
    assert adams[0].p2_utterance.text.startswith("Have they exercised it?")


def test_extract_unit_order_and_count(paired_units, paired_utterances):
    advocates = [u for u in paired_utterances if u.speaker_role == "advocate"]
    assert len(paired_units) == len(advocates)
    assert [u.p1_utterance for u in paired_units] == advocates


def test_context_features(paired_units, paired_meta):
    by_case = {u.p1_utterance.case_id: u for u in paired_units}
    assert by_case["2008-07-636"].context_features["issue_area"] == "economic_activity"
    assert by_case["2013-12-820"].context_features["issue_area"] == "civil_rights"
    for unit in paired_units:
        assert unit.context_features["prior_interruption_bucket"] == "0"
        assert unit.context_features["responder_role"] == "justice"


def test_prior_interruption_bucket_counts_earlier_marked_turns():
    utts = parse_transcript("\n".join([
        line("a", 0, "adv", "advocate", "I was saying - -"),
        line("a", 1, "justice j", "justice", "Stop."),
        line("a", 2, "adv", "advocate", "As I said - -"),
        line("a", 3, "justice j", "justice", "Again."),
        line("a", 4, "adv", "advocate", "Third attempt."),
        line("a", 5, "justice j", "justice", "Go on."),
    ]))
    units = extract_units(utts)
    buckets = [u.context_features["prior_interruption_bucket"] for u in units]
    assert buckets == ["0", "1", "2+"]


def test_chief_justice_counts_as_responder():
    utts = parse_transcript("\n".join([
        line("a", 0, "adv", "advocate", "Argument."),
        line("a", 1, "chief c", "chief_justice", "Noted."),
    ]))
    (unit,) = extract_units(utts)
    assert unit.p2_utterance is not None
    assert unit.context_features["responder_role"] == "chief_justice"


def test_other_unit_levels_recognized_but_unimplemented(paired_utterances):
    with pytest.raises(DataError, match="not implemented"):
        extract_units(paired_utterances, unit_level="thread")
    with pytest.raises(DataError, match="unknown unit level"):
        extract_units(paired_utterances, unit_level="paragraph")


def test_unit_json_round_trip(paired_units):
    text = "".join(unit_to_json(u) + "\n" for u in paired_units)
    again = units_from_json(text)
    assert [u.unit_id for u in again] == [u.unit_id for u in paired_units]
    assert again[0].p1_utterance == paired_units[0].p1_utterance


@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda unit: "{not json", "malformed unit record"),
        (lambda unit: "[1, 2]", "not an object"),
        (lambda unit: {k: v for k, v in unit.items() if k != "unit_id"}, "lacks key 'unit_id'"),
        (lambda unit: {**unit, "p1": {}}, "malformed unit record"),
        (lambda unit: {**unit, "p1": "text"}, "malformed unit record"),
        (lambda unit: "[" * 100_000, "malformed unit record"),
        (lambda unit: {**unit, "context": 7}, "context must be an object"),
        (lambda unit: {**unit, "unit_id": 5}, "unit_id must be a string"),
        (lambda unit: {**unit, "p1": {**unit["p1"], "index": "0"}}, "p1 index must be"),
        (lambda unit: {**unit, "p1": {**unit["p1"], "speaker_role": "clerk"}},
         "p1 unknown speaker_role 'clerk'"),
        (lambda unit: {**unit, "p2": {**unit["p2"], "text": " "}}, "p2 text is empty"),
        (lambda unit: {**unit, "p2": {}}, "p2 missing fields"),
    ],
    ids=["non-json", "non-object", "missing-key", "empty-p1", "non-object-p1", "deeply-nested",
         "non-object-context", "non-string-unit-id", "string-index", "unknown-role",
         "empty-text", "empty-p2"],
)
def test_units_reader_rejects_malformed_line_with_its_number(paired_units, change, reason):
    good = unit_to_json(paired_units[0])
    bad = change(json.loads(good))
    bad_line = bad if isinstance(bad, str) else json.dumps(bad)
    with pytest.raises(ParseError, match=reason) as info:
        units_from_json(good + "\n" + bad_line + "\n")
    assert info.value.line_number == 2


def test_units_reader_rejects_a_lone_surrogate(paired_units):
    good = unit_to_json(paired_units[0])
    obj = json.loads(good)
    obj["p1"]["text"] = "I think so \udc00"
    bad = json.dumps(obj)  # ASCII-escaped, so the surrogate is a \u escape
    with pytest.raises(ParseError, match=r"lone surrogate \\udc00") as info:
        units_from_json(good + "\n" + bad + "\n")
    assert info.value.line_number == 2


def test_transcript_reader_rejects_a_lone_surrogate():
    good = line("c", 0, "s", "advocate", "I think so \U0001f600")  # an escaped surrogate pair
    assert "\\ud83d\\ude00" in good
    assert parse_transcript(good)[0].text == "I think so \U0001f600"
    bad = line("c", 1, "s", "justice", "I think so \ud800")
    for source in (good + "\n" + bad, (good + "\n" + bad).encode("utf-8")):
        with pytest.raises(ParseError, match=r"lone surrogate \\ud800") as info:
            parse_transcript(source)
        assert info.value.line_number == 2


def test_metadata_reader_rejects_a_lone_surrogate():
    text = '{"case_id": "a", "issue_area": "x"}\n{"case_id": "c", "issue_area": "\\udc00"}'
    with pytest.raises(ParseError, match=r"lone surrogate \\udc00") as info:
        parse_case_metadata(text)
    assert info.value.line_number == 2


def test_metadata_duplicate_case_errors():
    text = '{"case_id": "a", "issue_area": "x"}\n{"case_id": "a", "issue_area": "y"}'
    with pytest.raises(ParseError, match="duplicate"):
        parse_case_metadata(text)


@settings(max_examples=60, deadline=None)
@given(
    roles=st.lists(
        st.sampled_from(["advocate", "justice", "chief_justice"]), min_size=0, max_size=12
    )
)
def test_unit_count_equals_advocate_count(roles):
    utts = [
        Utterance(case_id="c", index=i, speaker_id=f"s{i}", speaker_role=role, text=f"turn {i}.")
        for i, role in enumerate(roles)
    ]
    units = extract_units(utts)
    assert len(units) == sum(1 for r in roles if r == "advocate")
    assert [u.p1_utterance.index for u in units] == [
        u.index for u in utts if u.speaker_role == "advocate"
    ]
    assert len({u.unit_id for u in units}) == len(units)


GOOD_UNIT_LINE = unit_to_json(
    AnalysisUnit(
        unit_id="c:1",
        p1_utterance=Utterance("c", 1, "Alex Smith", "advocate", "I think so - -"),
        p2_utterance=Utterance("c", 2, "Justice J", "justice", "Go on."),
        context_features={"issue_area": "x"},
    )
).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(near_lines(GOOD_UNIT_LINE), max_size=4))
def test_units_reader_parses_or_raises_a_medlang_error(lines):
    data = b"\n".join(lines)
    for source in (data, io.BytesIO(data)):
        try:
            units = units_from_json(source)
        except MedlangError:
            continue
        assert len(units) <= len(lines)


def _prior_counts_reference(utterances, strict):
    """The rescan extract_units replaced: count earlier marked advocate turns per unit."""
    by_case = {}
    for utt in utterances:
        by_case.setdefault(utt.case_id, []).append(utt)
    for turns in by_case.values():
        turns.sort(key=lambda t: t.index)
    out = {}
    for utt in utterances:
        if utt.speaker_role == "advocate":
            out[f"{utt.case_id}:{utt.index}"] = sum(
                1 for other in by_case[utt.case_id][: utt.index]
                if other.speaker_role == "advocate"
                and ends_with_interruption_marker(other.text, strict=strict)
            )
    return out


TURN_TEXTS = ("Go on.", "I was saying - -", "As I said --", "Well -", "So - -  ", "- - x")


@settings(max_examples=200, deadline=None)
@given(
    turns=st.lists(
        st.tuples(st.sampled_from("abc"),
                  st.sampled_from(["advocate", "advocate", "justice", "chief_justice"]),
                  st.sampled_from(TURN_TEXTS)),
        max_size=20,
    ),
    strict=st.booleans(),
)
def test_prior_interruption_bucket_matches_the_rescan_reference(turns, strict):
    next_index = {}
    utts = []
    for case_id, role, text in turns:  # cases interleaved in file order
        index = next_index.get(case_id, 0)
        next_index[case_id] = index + 1
        utts.append(Utterance(case_id, index, f"{role} {case_id}", role, text))
    expected = {uid: ("2+" if n >= 2 else str(n))
                for uid, n in _prior_counts_reference(utts, strict).items()}
    units = extract_units(utts, strict_marker=strict)
    assert {u.unit_id: u.context_features["prior_interruption_bucket"] for u in units} == expected


def test_extract_checks_each_turn_for_the_marker_at_most_once(monkeypatch):
    import medlang.corpus as corpus

    calls = []

    def counting(text, strict=False):
        calls.append(text)
        return ends_with_interruption_marker(text, strict)

    monkeypatch.setattr(corpus, "ends_with_interruption_marker", counting)
    roles = ("advocate", "justice")
    texts = ("Counsel - -", "Stop.", "Counsel.", "Go on.")
    utts = [Utterance("long", i, roles[i % 2], roles[i % 2], texts[i % 4]) for i in range(2000)]
    units = extract_units(utts)
    assert len(units) == 1000
    assert units[-1].context_features["prior_interruption_bucket"] == "2+"
    assert len(calls) <= len(utts)  # the rescan made ~500,000 calls


GOOD_TRANSCRIPT_LINE = line("c", 0, "Alex Smith", "advocate", "I think so - -").encode("utf-8")
GOOD_METADATA_LINE = b'{"case_id": "c", "issue_area": "x"}'


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(near_lines(GOOD_TRANSCRIPT_LINE), max_size=4))
def test_transcript_reader_parses_or_raises_a_medlang_error(lines):
    data = b"\n".join(lines)
    for source in (data, io.BytesIO(data)):
        try:
            utts = parse_transcript(source)
        except MedlangError:
            continue
        assert len(utts) <= len(lines)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(near_lines(GOOD_METADATA_LINE), max_size=4))
def test_metadata_reader_parses_or_raises_a_medlang_error(lines):
    data = b"\n".join(lines)
    for source in (data, io.BytesIO(data)):
        try:
            meta = parse_case_metadata(source)
        except MedlangError:
            continue
        assert len(meta) <= len(lines)


def test_parse_bool_index_errors():
    # json.dumps would write the index back as false, which no reader accepts
    with pytest.raises(ParseError, match="index must be a non-negative integer, got False"):
        parse_transcript(line("a", False, "s", "advocate", "x"))
