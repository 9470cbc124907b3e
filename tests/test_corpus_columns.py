"""Transcripts and metadata in the writer's form, read as columns.

parse_transcript and parse_case_metadata read bytes in the exact form
utterance_to_json and write_case_metadata write by one split per block of
lines; every other source goes line by line. The per-line reader is the
reference: same utterances, cases and metadata, same errors and line
numbers, for every kind of source. Extraction and labelling, which now take
each case's turns as the reader grouped them, are checked against the code
they replaced.
"""

import contextlib
import copy
import io
import json
import operator
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import medlang.corpus as corpus
from conftest import near_lines
from medlang.cli import main
from medlang.corpus import (
    SPEAKER_ROLES,
    Transcript,
    Utterance,
    ends_with_interruption_marker,
    extract_units,
    parse_case_metadata,
    parse_transcript,
    unit_to_json,
    utterance_to_json,
    write_case_metadata,
    write_transcript,
)
from medlang import measure
from medlang.errors import ConfigError, DataError, ParseError
from medlang.measure import MeasurementSpec, build_records, label_treatment


def source_kinds(data: bytes):
    """A maker of each kind of source the readers take, each holding ``data``."""
    yield lambda: data
    yield lambda: io.BytesIO(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    yield lambda: text


@contextlib.contextmanager
def per_line_only():
    """Have the readers take every source line by line."""
    saved = corpus._transcript_columns, corpus._metadata_columns
    corpus._transcript_columns = corpus._metadata_columns = lambda data: None
    try:
        yield
    finally:
        corpus._transcript_columns, corpus._metadata_columns = saved


@contextlib.contextmanager
def blocks_of(size: int):
    """Have the column readers decode and split about ``size`` bytes (whole lines) at a time."""
    saved, corpus._BLOCK = corpus._BLOCK, size
    try:
        yield
    finally:
        corpus._BLOCK = saved


def transcript_outcome(source):
    """The utterances and case rows parse_transcript gives, or its ParseError's message and line."""
    try:
        got = parse_transcript(source)
    except ParseError as exc:
        return "error", str(exc), exc.line_number
    return repr(list(got)), repr(got.case_rows)


def metadata_outcome(source):
    try:
        return repr(parse_case_metadata(source))
    except ParseError as exc:
        return "error", str(exc), exc.line_number


def assert_reads_like_the_per_line_reader(data: bytes, outcome=transcript_outcome):
    # Each source kind is compared with the per-line reader reading that same kind.
    for source in source_kinds(data):
        with per_line_only():
            reference = outcome(source())
        for size in (corpus._BLOCK, 1, 150):  # one block, a line each, one or two lines each
            with blocks_of(size):
                assert outcome(source()) == reference


def written(utterances) -> bytes:
    buf = io.StringIO()
    write_transcript(utterances, buf)
    return buf.getvalue().encode("utf-8")


# -- transcripts ------------------------------------------------------------------

#: Quotes, backslashes, control characters, a line separator, a no-break
#: space, non-ASCII and non-BMP characters, plus any other non-surrogate.
TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\n\r\t\x00\x1f\x7f\u2028\u00a0 éЖ中😀'),
                       st.characters(blacklist_categories=("Cs",))),
    max_size=8,
)


@st.composite
def transcripts(draw):
    """Turns of up to three interleaved cases, indices contiguous per case in file order."""
    case_ids = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    next_index = dict.fromkeys(case_ids, 0)
    utterances = []
    for _ in range(draw(st.integers(0, 8))):
        case_id = draw(st.sampled_from(case_ids))
        text = draw(TEXT | TEXT.map("Go on {}".format))  # mostly not blank
        utterances.append(Utterance(case_id, next_index[case_id], draw(TEXT),
                                    draw(st.sampled_from(SPEAKER_ROLES)), text))
        next_index[case_id] += 1
    return utterances


@settings(max_examples=200, deadline=None)
@given(utterances=transcripts())
def test_transcript_round_trip_reads_like_the_per_line_reader(utterances):
    data = written(utterances)
    assert_reads_like_the_per_line_reader(data)
    if all(utt.text.strip() for utt in utterances):
        assert list(parse_transcript(data)) == utterances


GOOD_LINES = [utterance_to_json(Utterance("c", 0, "Chief Justice Burger", "chief_justice",
                                          "Mr. Smith, you may proceed.")),
              utterance_to_json(Utterance("c", 1, "Alex Smith", "advocate", "I think so - -")),
              utterance_to_json(Utterance("c", 2, "Justice Marshall", "justice", "Why?"))]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_transcript_columns_equal_the_per_line_reader_on_corrupted_files(data):
    lines = [line.encode("utf-8") for line in GOOD_LINES]
    for i in data.draw(st.sets(st.integers(0, 2), min_size=1, max_size=2)):
        lines[i] = data.draw(near_lines(lines[i]))
    assert_reads_like_the_per_line_reader(b"\n".join(lines))


SECOND = GOOD_LINES[1]


@pytest.mark.parametrize("second", [
    SECOND.replace("Alex", "\\u00e9"),
    SECOND.replace("Alex", "é"),
    SECOND.replace('"index": 1', '"index":  1'),
    SECOND.replace('"index": 1', '"index":1'),
    " " + SECOND,
    SECOND + " ",
    SECOND + "\r",
    '{"index": 1, "case_id": "c", "speaker_id": "Alex Smith", "speaker_role": "advocate", '
    '"text": "I think so - -"}',
    SECOND.replace('"index": 1', '"index": 01'),
    SECOND.replace('"index": 1', '"index": true'),
    SECOND.replace('"index": 1', '"index": 1.0'),
    SECOND.replace("I think so - -", " \\t "),
    SECOND.replace("I think so - -", "\u00a0"),
    SECOND.replace('"index": 1', '"index": 0'),
    SECOND.replace('"index": 1', '"index": 2'),
    SECOND.replace("advocate", "clerk"),
    SECOND.replace("advocate", "advoc\\u0061te"),
    SECOND.replace("I think", 'I \\"think\\"'),
    SECOND.replace("I think", "I\tthink"),
    SECOND.replace("I think", "I\x7fthink"),
    SECOND.replace('"text"', '"mood": null, "text"'),
    "\u00a0",
    "  \t",
    "",
    "\u2028",
], ids=["escaped-non-ascii", "raw-non-ascii", "extra-space", "no-space", "leading-space",
        "trailing-space", "crlf", "reordered-keys", "leading-zero-index", "true-index",
        "float-index", "whitespace-only-text", "nbsp-only-text", "repeated-index", "index-gap",
        "unknown-role", "escaped-role", "escaped-quotes", "raw-tab", "raw-delete", "extra-key",
        "only-nbsp", "only-spaces", "empty", "only-line-separator"])
def test_transcript_columns_equal_the_per_line_reader_on_non_canonical_lines(second):
    first, _, third = GOOD_LINES
    assert_reads_like_the_per_line_reader(f"{first}\n{second}\n{third}\n".encode("utf-8"))


def test_writer_form_transcript_never_reaches_the_per_line_reader(monkeypatch, tmp_path):
    """A transcript write_transcript wrote, with no escape, is read by the pattern alone."""
    files = [written([Utterance(f"c{c}", 0, "s", "advocate", "t") for c in range(3)]),
             written(parse_transcript("\n".join(GOOD_LINES))),
             written([Utterance("é 中", 0, "😀 x", "advocate", "I think so - -"),
                      Utterance("b", 0, "b", "chief_justice", "Ms. B."),
                      Utterance("é 中", 1, "J", "justice", "Why?")])]
    files.append(files[1].replace(b"\n", b"\n\n \t\n\xc2\xa0\n", 1))  # blank lines
    with per_line_only():
        expected = [transcript_outcome(data) for data in files]
    assert all(want[0] != "error" for want in expected)

    def per_line_reader(source, what):
        raise AssertionError("the per-line reader ran")

    monkeypatch.setattr(corpus, "_iter_objects", per_line_reader)
    for data, want in zip(files, expected):
        for size in (corpus._BLOCK, 1, 150):
            with blocks_of(size):
                for source in source_kinds(data):
                    assert transcript_outcome(source()) == want
        path = tmp_path / "transcripts.ndjson"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            assert transcript_outcome(fh) == want


def test_a_transcript_is_a_read_only_sequence():
    transcript = parse_transcript("\n".join(GOOD_LINES))
    assert isinstance(transcript, Transcript) and transcript == list(transcript)
    assert [transcript[row].index for row in transcript.case_rows["c"]] == [0, 1, 2]
    for change in (lambda t: t.append(t[0]), lambda t: t.sort(key=repr), lambda t: t.pop(),
                   lambda t: operator.setitem(t, 0, t[1]), lambda t: operator.delitem(t, 0),
                   lambda t: operator.iadd(t, [t[0]])):
        with pytest.raises((AttributeError, TypeError)):
            change(transcript)
    assert transcript == list(transcript) and len(transcript.case_rows["c"]) == 3
    for copied in (copy.copy(transcript), pickle.loads(pickle.dumps(transcript))):
        assert type(copied) is Transcript and copied == transcript


# -- metadata ---------------------------------------------------------------------


def written_metadata(meta) -> bytes:
    buf = io.StringIO()
    write_case_metadata(meta, buf)
    return buf.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(meta=st.dictionaries(TEXT, st.dictionaries(
    st.sampled_from(["issue_area", "x0", "a", 'q"', "é", "zz"]), TEXT, max_size=2), max_size=4),
    same_names=st.booleans())
def test_metadata_round_trip_reads_like_the_per_line_reader(meta, same_names):
    if same_names:  # one attribute set, as a run's sidecar has
        meta = {case_id: {"issue_area": "x", **attrs} for case_id, attrs in meta.items()}
    data = written_metadata(meta)
    assert_reads_like_the_per_line_reader(data, metadata_outcome)
    assert parse_case_metadata(data) == meta


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_metadata_columns_equal_the_per_line_reader_on_corrupted_files(data):
    lines = written_metadata({"a": {"x0": "0"}, "b": {"x0": "1"}, "c": {"x0": "0"}}).split(b"\n")
    for i in data.draw(st.sets(st.integers(0, 2), min_size=1, max_size=2)):
        lines[i] = data.draw(near_lines(lines[i]))
    assert_reads_like_the_per_line_reader(b"\n".join(lines), metadata_outcome)


@pytest.mark.parametrize("second", [
    '{"case_id": "b", "x0": "1"}',
    '{"case_id": "a", "x0": "1"}',
    '{"case_id": "b", "x0": 1}',
    '{"case_id": "b", "x1": "1"}',
    '{"x0": "1", "case_id": "b"}',
    '{"case_id": "b", "x0": "\\u00e9"}',
    '{"case_id": "b", "x0": "é"}',
    '{"case_id": "b", "x0": "1", "responder_role": "justice"}',
    '{"case_id": "b"}',
    ' {"case_id": "b", "x0": "1"}',
], ids=["canonical", "repeated-case", "integer-value", "other-name", "reordered-keys",
        "escaped-value", "raw-non-ascii", "computed-feature", "missing-name", "leading-space"])
def test_metadata_columns_equal_the_per_line_reader_on_non_canonical_lines(second):
    data = f'{{"case_id": "a", "x0": "0"}}\n{second}\n{{"case_id": "c", "x0": "0"}}\n'
    assert_reads_like_the_per_line_reader(data.encode("utf-8"), metadata_outcome)


@pytest.mark.parametrize("name", ["prior_interruption_bucket", "responder_role"])
def test_metadata_may_not_name_a_computed_feature(name, tmp_path, capsys,
                                                  paired_transcript_path):
    # Extraction computes these; an attribute of the same name would replace them.
    line = json.dumps({"case_id": "2008-07-636", name: "0"}, sort_keys=True)
    for data in (line, '{"case_id": "x"}\n' + line):
        lineno = data.count("\n") + 1
        with pytest.raises(ParseError, match="computed context feature") as info:
            parse_case_metadata(data.encode("utf-8"))
        assert info.value.line_number == lineno and name in str(info.value)
    meta = tmp_path / "meta.ndjson"
    meta.write_text('{"case_id": "x"}\n' + line + "\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"transcripts": str(paired_transcript_path), "meta": str(meta),
                                  "out": str(tmp_path / "out"), "bootstrap": 0}))
    for argv in (["run", "--config", str(config)],
                 ["ingest", "--transcripts", str(paired_transcript_path), "--meta", str(meta),
                  "--out", str(tmp_path / "units.ndjson")]):
        assert main(argv) == 3
        assert "line 2" in capsys.readouterr().err
    utterances = parse_transcript(paired_transcript_path.read_bytes())
    with pytest.raises(DataError, match=name):
        extract_units(utterances, {"2008-07-636": {name: "0"}})


# -- extraction and labelling against the code they replaced ----------------------


def _extract_units_reference(utterances, case_metadata=None):
    """extract_units as it was: its own grouping and sort, a count per earlier marked turn."""
    case_metadata = case_metadata or {}
    by_case = {}
    for utt in utterances:
        by_case.setdefault(utt.case_id, []).append(utt)
    prior = {}
    for case_id, turns in by_case.items():
        turns.sort(key=lambda t: t.index)
        if [t.index for t in turns] != list(range(len(turns))):
            raise DataError(f"case {case_id!r}: indices not contiguous from 0")
        running, counts = 0, []
        for turn in turns:
            counts.append(running)
            if turn.speaker_role == "advocate" and ends_with_interruption_marker(turn.text):
                running += 1
        prior[case_id] = counts
    units = []
    for utt in utterances:
        if utt.speaker_role != "advocate":
            continue
        turns = by_case[utt.case_id]
        nxt = turns[utt.index + 1] if utt.index + 1 < len(turns) else None
        p2 = nxt if nxt is not None and nxt.speaker_role in ("justice", "chief_justice") else None
        count = prior[utt.case_id][utt.index]
        context = {"prior_interruption_bucket": "2+" if count >= 2 else str(count),
                   "responder_role": p2.speaker_role if p2 is not None else "none"}
        context.update(case_metadata.get(utt.case_id, ()))
        units.append((f"{utt.case_id}:{utt.index}", utt, p2, context))
    return units


#: The last two need escapes, which sends a transcript through the per-line reader.
TURN_TEXTS = ("Ms. Adams, proceed.", "Mr. Baker, go on.", "I think so - -", "As I said --",
              "Well - - well.", "Yes.", "Mr. Adams - -", 'She said "no" - -', "A\\B.")
SPEAKERS = {"advocate": ("Ann Adams", "Bo Baker"), "justice": ("Justice J",),
            "chief_justice": ("Chief Justice C",)}


@st.composite
def interleaved_cases(draw):
    """Turns of up to three cases, interleaved in file order."""
    next_index, utterances = {}, []
    for _ in range(draw(st.integers(0, 24))):
        case_id = draw(st.sampled_from("abc"))
        role = draw(st.sampled_from(["advocate", "advocate", "justice", "chief_justice"]))
        index = next_index.get(case_id, 0)
        next_index[case_id] = index + 1
        utterances.append(Utterance(case_id, index, draw(st.sampled_from(SPEAKERS[role])), role,
                                    draw(st.sampled_from(TURN_TEXTS))))
    return utterances


@settings(max_examples=300, deadline=None)
@given(utterances=interleaved_cases(), seed=st.integers(0, 2**16))
def test_extraction_matches_the_replaced_code(utterances, seed):
    meta = {"a": {"issue_area": "x"}, "c": {"issue_area": "y", "term": "1990"}}
    expected = _extract_units_reference(utterances, meta)
    shuffled = random.Random(seed).sample(utterances, len(utterances))  # out of index order
    for given_turns in (utterances, parse_transcript(written(utterances)), shuffled):
        units = extract_units(given_turns, meta)
        want = _extract_units_reference(given_turns, meta)
        assert [(u.unit_id, u.p1_utterance, u.p2_utterance, u.context_features)
                for u in units] == want
        assert sorted(want, key=repr) == sorted(expected, key=repr)
        # A unit read in writer form is written as the replaced code wrote it.
        assert [unit_to_json(unit) for unit in units] == [
            unit_to_json(corpus.AnalysisUnit(*unit)) for unit in want]


@settings(max_examples=200, deadline=None)
@given(utterances=interleaved_cases(), seed=st.integers(0, 2**16))
def test_labelling_matches_the_replaced_code(utterances, seed):
    # build_records used to hand label_treatment every turn of the case, in any order; it now
    # hands it the case's chief-justice texts in index order.
    units = extract_units(utterances)
    cases = {}
    for utt in random.Random(seed).sample(utterances, len(utterances)):
        cases.setdefault(utt.case_id, []).append(utt)
    chief = {case_id: [utt.text for utt in sorted(turns, key=lambda utt: utt.index)
                       if utt.speaker_role == "chief_justice"] for case_id, turns in cases.items()}
    spec = MeasurementSpec.default()
    handed = []

    def spy(texts, advocate):
        handed.append(texts)
        return label_treatment(texts, advocate)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measure, "label_treatment", spy)
        try:
            result = build_records(units, spec, 2, cases,
                                   confounders=("prior_interruption_bucket",))
        except ConfigError:  # fewer labelled units than folds
            assume(False)
    # Each call gets its case's chief-justice texts in index order.
    assert all(texts in chief.values() for texts in handed)
    labels = {unit.unit_id: label_treatment(chief[unit.p1_utterance.case_id],
                                            unit.p1_utterance.speaker_id)
              for unit in units if unit.p2_utterance is not None}
    assert dict(zip(result.records.unit_ids, result.records.t.tolist())) == {
        unit_id: t for unit_id, t in labels.items() if t is not None}
    assert {e.unit_id for e in result.exclusions if e.reason == "no_honorific_introduction"} == {
        unit_id for unit_id, t in labels.items() if t is None}
