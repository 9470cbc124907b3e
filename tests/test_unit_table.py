"""The unit table against the per-unit objects it replaced (unit_reference.py).

From transcripts with lines in the writer's form and lines only the per-line
reader takes, extract_units, write_units and build_records give the same
units-file bytes, records, exclusions and errors as the reference; so does
the table read back by units_from_json.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import unit_reference as reference
from conftest import transcript_of
from medlang.corpus import (
    Units,
    Utterance,
    extract_units,
    parse_case_metadata,
    parse_transcript,
    units_from_json,
    utterance_to_json,
    write_units,
)
from medlang.errors import MedlangError
from medlang.measure import MeasurementSpec, build_records, write_records
from medlang.topics import fit_topic_model

#: Each role's speakers and texts. "Cy Cole" is never introduced; "" has no surname; Adams is
#: labelled by whichever of two introductions comes first. The last three advocate texts
#: need escapes or hold U+2028, so only the per-line reader reads them.
SPEAKERS = {"advocate": ("Ann Adams", "Bo Baker", "Cy Cole"), "justice": ("Justice J",),
            "chief_justice": ("Chief Justice C",)}
TEXTS = {"advocate": ("I think so - -", "As I said --", "Well - - well.", "Yes.", "sort of, yes",
                      'She said "no" - -', "A\\B.", "kind of\u2028maybe - -"),
         "justice": ("Why?", "Go on - -"),
         "chief_justice": ("Ms. Adams and Mr. Baker, proceed.", "Mr. Adams, go on.",
                           "We will hear argument.")}
#: Each line form: the writer's, then forms only the per-line reader takes.
LINE_FORMS = (utterance_to_json,
              lambda utt: json.dumps(utt._asdict()),  # non-ASCII escaped
              lambda utt: json.dumps(utt._asdict(), separators=(",", ":  ")),
              lambda utt: " " + utterance_to_json(utt))
SPEC = MeasurementSpec.default()
TOPIC_SPEC = MeasurementSpec.default(topic_model=fit_topic_model(
    ["think so well yes", "proceed go on said"] * 4, k=2, seed=0, n_sweeps=6, burn_in=2))


@st.composite
def corpora(draw):
    """(transcript bytes, metadata bytes): two interleaved cases, each with or without
    metadata, and blank lines."""
    next_index, lines = {}, []
    writer_form, blank_speaker = draw(st.booleans()), draw(st.integers(0, 9)) == 0
    for _ in range(draw(st.integers(0, 24) | st.integers(8, 24))):
        case_id = draw(st.sampled_from("ab"))
        role = draw(st.sampled_from(["advocate", "advocate", "justice", "chief_justice"]))
        next_index[case_id] = next_index.get(case_id, -1) + 1
        speakers = SPEAKERS[role] + ("",) * (blank_speaker and role == "advocate")
        texts = TEXTS[role][:-3] if writer_form and role == "advocate" else TEXTS[role]
        utt = Utterance(case_id, next_index[case_id], draw(st.sampled_from(speakers)), role,
                        draw(st.sampled_from(texts)))
        form = LINE_FORMS[0] if writer_form else draw(st.sampled_from(LINE_FORMS))
        lines.append(form(utt) + draw(st.sampled_from(["", "", "\n", "\n \t"])))
    levels = st.sampled_from(["x", "y", 1, 1.0, True])  # 1, 1.0 and true encode apart
    meta = [json.dumps({"case_id": case_id, "issue_area": draw(levels)}, sort_keys=True)
            for case_id in draw(st.sets(st.sampled_from("ab")))]
    return "\n".join(lines).encode("utf-8"), "\n".join(meta).encode("utf-8")


def outcome(fn):
    """What a call gives, as comparable values, or its error's type and message."""
    try:
        result = fn()
    except MedlangError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, (list, Units)):  # units
        stream = io.StringIO()
        (write_units if isinstance(result, Units) else reference.write_units)(result, stream)
        return stream.getvalue()
    stream = io.StringIO()
    write_records(result.records, stream)
    return stream.getvalue(), result.records.domains, result.exclusions


@settings(max_examples=400, deadline=None)
@given(corpus=corpora(), seed=st.integers(0, 2**16), drop=st.sampled_from([None, None, "a", "b"]),
       topics=st.booleans(), confounders=st.sampled_from(
           [None, (), ("prior_interruption_bucket",), ("issue_area",),
            ("responder_role", "issue_area")]))
def test_the_table_path_equals_the_per_unit_reference(corpus, seed, drop, topics, confounders):
    transcript, meta = parse_transcript(corpus[0]), parse_case_metadata(corpus[1])
    units = extract_units(transcript, meta)
    ref_units = reference.extract_units(list(transcript), meta)
    text = outcome(lambda: units)
    assert text == outcome(lambda: ref_units)
    assert outcome(lambda: units_from_json(text.encode("utf-8"))) == text
    cases = {case_id: [transcript[row] for row in rows]
             for case_id, rows in transcript.case_rows.items() if case_id != drop}
    spec = TOPIC_SPEC if topics else SPEC
    want = outcome(lambda: reference.build_records(ref_units, spec, 2, cases, seed, confounders))
    # A unit of a case that the honorific scan's transcript lacks raises DataError.
    scanned = transcript if drop is None else transcript_of(
        utt for utt in transcript if utt.case_id != drop)
    for given_units in (units, units_from_json(text)):
        assert outcome(lambda: build_records(given_units, spec, 2, scanned, seed,
                                             confounders)) == want


def test_the_pipeline_builds_no_utterance():
    data = "".join(utterance_to_json(utt) + "\n" for case_id in "cd" for utt in [
        Utterance(case_id, 0, "Chief Justice C", "chief_justice", "Ms. Adams, proceed."),
        Utterance(case_id, 1, "Ann Adams", "advocate", "I think so - -"),
        Utterance(case_id, 2, "Justice J", "justice", "Why?")]).encode("utf-8")
    transcript = parse_transcript(data)
    units = extract_units(transcript)
    write_units(units, io.StringIO())
    build = build_records(units, SPEC, 2, transcript)
    assert (len(units), len(build.records)) == (2, 2)
    assert "_rows" not in vars(transcript)  # no Utterance built so far
    assert units[1].p1_utterance == transcript[4] and "_rows" in vars(transcript)
