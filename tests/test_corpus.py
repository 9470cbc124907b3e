import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import near_lines, transcript_of
from medlang.corpus import (
    SPEAKER_ROLES,
    AnalysisUnit,
    Utterance,
    _iter_objects,
    _parse_turn,
    _read_whole,
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
from medlang.measure import CausalRecord, record_to_json, records_from_json
from medlang.scm import load_scm_spec


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
    assert list(parse_transcript("")) == []
    assert list(parse_transcript(io.BytesIO(b""))) == []


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
    assert list(again) == list(paired_utterances)
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


@pytest.mark.parametrize("reader", ["transcript", "metadata", "units", "records"])
def test_every_reader_rejects_a_raw_lone_surrogate_in_text(reader):
    # Its escape is a lone surrogate error (above); the raw character in a str
    # is text that is not UTF-8, as its bytes in a file would be.
    def unit(unit_id, text):
        return unit_to_json(AnalysisUnit(unit_id, Utterance("c", 1, "A S", "advocate", text), None))

    def record(unit_id, level):
        return record_to_json(CausalRecord(unit_id, 0, {"x0": level}, {"hedging": 1}, 1, 0))

    read, first, second = {
        "transcript": (parse_transcript, line("a", 0, "s", "advocate", "Go."),
                       line("b", 0, "s", "advocate", "RAW")),
        "metadata": (parse_case_metadata, '{"case_id": "a", "issue_area": "x"}',
                     '{"case_id": "b", "issue_area": "RAW"}'),
        "units": (units_from_json, unit("c:0", "Go."), unit("c:1", "RAW")),
        "records": (records_from_json, record("u0", "a"), record("u1", "RAW")),
    }[reader]
    text = first + "\n" + second.replace("RAW", "so \ud800") + "\n"
    with pytest.raises(ParseError, match="not UTF-8 text") as info:
        read(text)
    assert info.value.line_number == 2


@pytest.mark.parametrize("kind", [
    io.StringIO,
    lambda text: text.splitlines(True),
    lambda text: io.TextIOWrapper(io.BytesIO(b"\xff" + text.encode("utf-8")), encoding="utf-8"),
], ids=["StringIO", "list", "text-stream-not-utf8"])
@pytest.mark.parametrize("read", [
    parse_transcript, parse_case_metadata, units_from_json, records_from_json, load_scm_spec,
    lambda source: list(_iter_objects(source, "estimate")),  # the report command's reader
], ids=["transcript", "metadata", "units", "records", "spec", "estimates"])
def test_a_reader_takes_no_text_stream_or_list_of_lines(read, kind):
    with pytest.raises(TypeError):
        read(kind(line("a", 0, "s", "advocate", "Go.") + "\n"))


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
    utts = transcript_of(
        Utterance(case_id="c", index=i, speaker_id=f"s{i}", speaker_role=role, text=f"turn {i}.")
        for i, role in enumerate(roles)
    )
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


def _prior_counts_reference(utterances):
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
                and ends_with_interruption_marker(other.text)
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
)
def test_prior_interruption_bucket_matches_the_rescan_reference(turns):
    next_index = {}
    utts = []
    for case_id, role, text in turns:  # cases interleaved in file order
        index = next_index.get(case_id, 0)
        next_index[case_id] = index + 1
        utts.append(Utterance(case_id, index, f"{role} {case_id}", role, text))
    expected = {uid: ("2+" if n >= 2 else str(n))
                for uid, n in _prior_counts_reference(utts).items()}
    units = extract_units(transcript_of(utts))
    assert {u.unit_id: u.context_features["prior_interruption_bucket"] for u in units} == expected


def test_extract_checks_each_turn_for_the_marker_at_most_once(monkeypatch):
    import medlang.corpus as corpus

    calls = []

    def counting(text):
        calls.append(text)
        return ends_with_interruption_marker(text)

    monkeypatch.setattr(corpus, "ends_with_interruption_marker", counting)
    roles = ("advocate", "justice")
    texts = ("Counsel - -", "Stop.", "Counsel.", "Go on.")
    utts = transcript_of(Utterance("long", i, roles[i % 2], roles[i % 2], texts[i % 4])
                         for i in range(2000))
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


# -- the line decoder against json.loads ----------------------------------------


def _reference_objects(source, what="record"):
    """The reader as it was, decoding each "\\n"-ended line with json.loads."""
    out = []
    for lineno, text in enumerate(_read_whole(source).split(b"\n"), 1):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("not UTF-8 text", lineno) from exc
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
            if "\\u" in text:
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
        out.append((lineno, obj))
    return out


def _outcome(fn, *args):
    """repr of a call's result (so NaN equals itself), or its error's type and message."""
    try:
        return repr(fn(*args))
    except (json.JSONDecodeError, ParseError, RecursionError) as exc:
        return type(exc).__name__, getattr(exc, "msg", str(exc))


#: JSON whitespace, other Unicode whitespace, and a byte order mark.
PADDING = st.text(alphabet=" \t\r\n\x0b\x0c\x1c\x85\u00a0\u2028\ufeff", max_size=3)
#: Characters, lone surrogates among them.
DECODER_CHARACTERS = st.characters() | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF,
                                                     exclude_categories=())
DECODER_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(DECODER_CHARACTERS, max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


@st.composite
def decoder_lines(draw):
    """A JSON value's text, padded, ASCII-escaped or not, maybe with one character changed."""
    value = draw(st.dictionaries(st.text(max_size=3), DECODER_VALUES, max_size=3)
                 | DECODER_VALUES)
    text = json.dumps(value, ensure_ascii=draw(st.booleans()))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from('{}[]",: \\0e.-nNu\x0b')) + text[i + 1:]
    return draw(PADDING) + text + draw(PADDING)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(decoder_lines(), max_size=4))
def test_reader_gives_the_json_loads_objects_and_errors(lines):
    text = "\n".join(lines)
    assert _outcome(lambda t: list(_iter_objects(_read_whole(t), "record")), text) == _outcome(
        _reference_objects, text)


@pytest.mark.parametrize(
    "text",
    [' \t{"a": [1, 2.5]} \r', '{"a": NaN}', '{"a": "\\ud83d\\ude00"}'],
    ids=["json-whitespace-and-trailing-cr", "nan", "escaped-surrogate-pair"],
)
def test_line_decoder_accepts(text):
    ((lineno, obj),) = _iter_objects(text.encode("utf-8"), "record")
    assert (lineno, repr(obj)) == (1, repr(json.loads(text)))  # repr: NaN equals itself


@pytest.mark.parametrize(
    "text, message",
    [
        ("\x0b{}", "Expecting value"),  # whitespace to str.strip, not to JSON
        ("{}\x0b", "Extra data"),
        ("\u00a0{}", "Expecting value"),
        ("{}\u00a0", "Extra data"),
        ("{} {}", "Extra data"),
        ("{}, {}", "Extra data"),
        ("\ufeff{}", "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ("[" * 100_000, "nested too deeply"),
        ('{"a": "\\ud800"}', "lone surrogate \\ud800"),
        ('{"a": ["\\udfff"]}', "lone surrogate \\udfff"),
        ('{"a": "x', "Unterminated string starting at"),  # not the newline that ends it
    ],
    ids=["vt-before", "vt-after", "nbsp-before", "nbsp-after", "two-values",
         "two-values-comma", "bom", "deep-nesting", "lone-high-surrogate", "lone-low-surrogate",
         "unterminated-string"],
)
def test_line_decoder_rejects_with_the_json_loads_message(text, message):
    # A binary stream, as the command line reads, splits lines at "\n" only.
    source = (line("a", 0, "s", "advocate", "x") + "\n" + text + "\n").encode("utf-8")
    with pytest.raises(ParseError) as info:
        list(_iter_objects(source, "record"))
    assert str(info.value) == f"line 2: malformed record: {message}"
    assert info.value.line_number == 2
    if not message.startswith(("nested", "lone")):
        with pytest.raises(json.JSONDecodeError) as error:
            json.loads(text)
        assert error.value.msg == message


#: Three lines that, joined into one JSON array, decode to three valid turns.
SPLIT_VALUE_LINES = (
    '{"case_id": "c", "index": 0, "speaker_id": "s", "speaker_role": "advocate"',
    '"text": "t"}',
    '{"case_id": "d", "index": 0, "speaker_id": "s", "speaker_role": "justice", "text": "t"}, '
    '{"case_id": "d", "index": 1, "speaker_id": "s", "speaker_role": "justice", "text": "t"}',
)


def test_transcript_is_not_decoded_as_one_array():
    # Decoding the file in one call, as one array of its lines, would read a
    # value spread over two lines and two values on one line as three turns.
    turns = json.loads("[" + ",".join(SPLIT_VALUE_LINES) + "]")
    assert [_parse_turn(obj, 1) for obj in turns] == [
        Utterance("c", 0, "s", "advocate", "t"),
        Utterance("d", 0, "s", "justice", "t"),
        Utterance("d", 1, "s", "justice", "t"),
    ]
    with pytest.raises(ParseError, match="^line 1: malformed record: "):
        parse_transcript("\n".join(SPLIT_VALUE_LINES))


def _reference_transcript(source):
    """parse_transcript as it was: _parse_turn on every line, repeats found with a set."""
    utterances, next_index, seen = [], {}, set()
    for lineno, obj in _iter_objects(_read_whole(source), "record"):
        utt = _parse_turn(obj, lineno)
        case_id, index = utt.case_id, utt.index
        if (case_id, index) in seen:
            raise ParseError(f"duplicate (case_id, index) = ({case_id!r}, {index})", lineno)
        expected = next_index.get(case_id, 0)
        if index != expected:
            raise ParseError(
                f"non-contiguous index for case {case_id!r}: expected {expected}, got {index}",
                lineno)
        seen.add((case_id, index))
        next_index[case_id] = expected + 1
        utterances.append(utt)
    return utterances


@st.composite
def near_turns(draw):
    """A valid turn, or one with a field dropped, added or set to an odd value."""
    turn = {"case_id": draw(st.sampled_from(["a", "b"])), "index": draw(st.integers(0, 3)),
            "speaker_id": "s", "speaker_role": draw(st.sampled_from(SPEAKER_ROLES)), "text": "x"}
    key = draw(st.sampled_from(sorted(turn) + ["mood"]))
    change = draw(st.sampled_from(["keep", "drop", "set"]))
    if change == "drop":
        turn.pop(key, None)
    elif change == "set":
        turn[key] = draw(st.sampled_from(
            [-1, True, False, 1.0, "0", None, 7, "", " ", " y ", "clerk", [], {}]))
    return turn


@settings(max_examples=500, deadline=None)
@given(turns=st.lists(near_turns(), max_size=6))
def test_transcript_reader_matches_the_per_turn_reference(turns):
    text = "\n".join(json.dumps(turn) for turn in turns)
    assert _outcome(lambda text: list(parse_transcript(text)), text) == _outcome(
        _reference_transcript, text)


# str.splitlines also breaks at each of these; a binary stream, which is what
# the command line reads, breaks at "\n" only.
SPLITLINES_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r"]


@pytest.mark.parametrize("char", SPLITLINES_BREAKS,
                         ids=[f"U+{ord(c):04X}" for c in SPLITLINES_BREAKS])
def test_only_a_newline_ends_a_line_in_every_source_kind(char):
    text = f"I think{char}so"
    first = ('{"case_id": "c", "index": 0, "speaker_id": "s", "speaker_role": "advocate", '
             f'"text": "{text}"}}')
    data = (first + "\n" + line("c", 1, "j", "justice", "Why?") + "\n").encode("utf-8")
    outcomes = []
    for source in (data, data.decode("utf-8"), io.BytesIO(data)):
        try:
            outcomes.append([utt.text for utt in parse_transcript(source)])
        except ParseError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if ord(char) >= 0x20:  # JSON allows it raw inside a string
        assert outcomes[0] == [text, "Why?"]
    else:  # a raw control character is not JSON
        assert outcomes[0].startswith("line 1: malformed record: Invalid control character")
