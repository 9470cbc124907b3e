"""The NDJSON writers against the per-row json.dumps lines they replace.

Every artifact line must be byte for byte what json.dumps(row,
sort_keys=True) gives, so that reruns stay byte-exact: with
ensure_ascii=False for records, transcripts and units, and ASCII-escaped
for simulate's metadata sidecar.
"""

import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from medlang.corpus import (
    AnalysisUnit,
    Utterance,
    unit_to_json,
    utterance_to_json,
    write_case_metadata,
    write_transcript,
    write_units,
)
from medlang.measure import CodedRecords, Domains, record_to_json, write_records

# -- the per-row reference lines ----------------------------------------------


def record_reference(record) -> str:
    return json.dumps(
        {"unit_id": record.unit_id, "t": record.t, "x": dict(record.x), "m": dict(record.m),
         "y": record.y, "fold": record.fold},
        ensure_ascii=False,
        sort_keys=True,
    )


def _utterance_dict(utt: Utterance) -> dict:
    return {"case_id": utt.case_id, "index": utt.index, "speaker_id": utt.speaker_id,
            "speaker_role": utt.speaker_role, "text": utt.text}


def utterance_reference(utt: Utterance) -> str:
    return json.dumps(_utterance_dict(utt), ensure_ascii=False, sort_keys=True)


def unit_reference(unit: AnalysisUnit) -> str:
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


def metadata_reference(case_id: str, attrs: dict) -> str:
    return json.dumps({"case_id": case_id, **attrs}, sort_keys=True)


def written(writer, items) -> str:
    buf = io.StringIO()
    writer(items, buf)
    return buf.getvalue()


# -- strategies ---------------------------------------------------------------

#: Quotes, backslashes, control characters, newlines, a line separator,
#: non-ASCII letters and non-BMP characters, plus any other non-surrogate.
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\n\r\t\x00\x1f\x7f\u2028 éßЖ中😀𝄞'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)
#: Names whose declared order differs from sorted order, one with a "%".
NAMES = st.lists(st.sampled_from(["z", "a", "B", "é", "m%d", 'q"']), unique=True, max_size=4)

UTTERANCES = st.builds(
    Utterance,
    case_id=TEXT,
    index=st.integers(0, 2**70),
    speaker_id=TEXT,
    speaker_role=st.sampled_from(["advocate", "justice", "chief_justice"]),
    text=TEXT,
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=6,
)


@st.composite
def coded_records(draw):
    confounders = tuple(
        (name, tuple(draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))))
        for name in draw(NAMES)
    )
    mediators = tuple((name, draw(st.integers(2, 4))) for name in draw(NAMES))
    domains = Domains(confounders=confounders, mediators=mediators)
    n = draw(st.integers(0, 8))

    def column(hi):
        return np.asarray(draw(st.lists(st.integers(0, hi), min_size=n, max_size=n)),
                          dtype=np.int64)

    return CodedRecords(
        unit_ids=tuple(draw(st.lists(TEXT, min_size=n, max_size=n, unique=True))),
        t=column(1),
        x=column(domains.n_x - 1),
        m={name: column(size - 1) for name, size in mediators},
        y=column(1),
        fold=column(3),
        domains=domains,
    )


# -- byte equality ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(records=coded_records())
def test_records_writer_matches_json_dumps(records):
    rows = list(records)
    assert written(write_records, records) == "".join(record_reference(r) + "\n" for r in rows)
    assert [record_to_json(r) for r in rows] == [record_reference(r) for r in rows]


def test_records_writer_without_confounders():
    records = CodedRecords(
        unit_ids=("b", "a"), t=np.array([1, 0]), x=np.array([0, 0]),
        m={"z": np.array([1, 0]), "a": np.array([0, 2])}, y=np.array([0, 1]),
        fold=np.array([1, 0]), domains=Domains(confounders=(), mediators=(("z", 2), ("a", 3))),
    )
    assert written(write_records, records) == (
        '{"fold": 1, "m": {"a": 0, "z": 1}, "t": 1, "unit_id": "b", "x": {}, "y": 0}\n'
        '{"fold": 0, "m": {"a": 2, "z": 0}, "t": 0, "unit_id": "a", "x": {}, "y": 1}\n'
    )
    assert [record_to_json(r) for r in records] == [record_reference(r) for r in records]


@settings(max_examples=200, deadline=None)
@given(utterances=st.lists(UTTERANCES, max_size=5))
def test_transcript_writer_matches_json_dumps(utterances):
    assert written(write_transcript, utterances) == "".join(
        utterance_reference(u) + "\n" for u in utterances)
    assert [utterance_to_json(u) for u in utterances] == [
        utterance_reference(u) for u in utterances]


@settings(max_examples=200, deadline=None)
@given(units=st.lists(st.builds(
    AnalysisUnit,
    unit_id=TEXT,
    p1_utterance=UTTERANCES,
    p2_utterance=st.none() | UTTERANCES,
    context_features=st.dictionaries(TEXT, JSON_VALUES, max_size=4),
), max_size=4))
def test_units_writer_matches_json_dumps(units):
    assert written(write_units, units) == "".join(unit_reference(u) + "\n" for u in units)
    assert [unit_to_json(u) for u in units] == [unit_reference(u) for u in units]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_metadata_writer_matches_json_dumps(data):
    # "case_id" as an attribute name replaces the case id, as the dict merge does.
    names = data.draw(st.lists(st.sampled_from(["z", "a", "B", "é", "case_id", "d"]),
                               unique=True, max_size=4))
    attrs = st.fixed_dictionaries({name: TEXT for name in names})
    meta = data.draw(st.dictionaries(TEXT, attrs, max_size=6))
    assert written(write_case_metadata, meta) == "".join(
        metadata_reference(cid, attrs) + "\n" for cid, attrs in sorted(meta.items()))


# -- count guard --------------------------------------------------------------


def test_writers_make_no_json_dumps_call_per_row(monkeypatch):
    calls = []
    dumps = json.dumps

    def counting(*args, **kwargs):
        calls.append(args[0])
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    n = 1000
    records = CodedRecords(
        unit_ids=tuple(f"u{i}" for i in range(n)),
        t=np.arange(n) % 2, x=np.arange(n) % 6,
        m={"hedging": np.arange(n) % 2, "disfluency": np.arange(n) // 2 % 2},
        y=np.arange(n) // 3 % 2, fold=np.arange(n) % 2,
        domains=Domains(confounders=(("x1", ("0", "1", "2")), ("x0", ("0", "1"))),
                        mediators=(("hedging", 2), ("disfluency", 2))),
    )
    utterances = [Utterance(f"c{i // 3}", i % 3, "Alex Smith", "advocate", f"Turn {i} - -")
                  for i in range(n)]
    meta = {f"c{i}": {"x0": str(i % 2), "x1": str(i % 3)} for i in range(n)}
    assert written(write_records, records).count("\n") == n
    assert written(write_transcript, utterances).count("\n") == n
    assert written(write_case_metadata, meta).count("\n") == n
    assert calls == []  # the per-row writers made 3,000
