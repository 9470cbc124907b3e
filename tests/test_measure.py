import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import near_lines
from medlang.corpus import Utterance, parse_transcript
from medlang.errors import ConfigError, DataError, MedlangError, ParseError
from medlang.measure import (
    CausalRecord,
    MeasurementSpec,
    build_records,
    default_hedging_lexicon,
    label_interruption,
    label_treatment,
    load_lexicon,
    measure_disfluency,
    measure_hedging,
    encode_records,
    record_to_json,
    records_from_json,
)
from medlang.textutil import tokenize

LEXICON = default_hedging_lexicon()


# -- tokenizer ---------------------------------------------------------------


def test_tokenize_preserves_dash_tokens():
    assert tokenize("And - - and, the other") == ["and", "-", "-", "and", "the", "other"]
    assert tokenize("easy for -- for plan") == ["easy", "for", "-", "-", "for", "plan"]


def test_tokenize_strips_edge_punctuation_keeps_inner():
    assert tokenize("don't, (you) say!") == ["don't", "you", "say"]
    assert tokenize("self-defense works") == ["self-defense", "works"]


# -- hedging -----------------------------------------------------------------


def test_hedging_on_fixture_texts(paired_units):
    for unit in paired_units:
        assert measure_hedging(unit.p1_utterance.text, LEXICON) == 1


def test_hedging_negative_verified_by_exhaustive_scan():
    text = "The statute is unambiguous."
    # independent oracle: scan every phrase against the padded token string
    padded = " " + " ".join(tokenize(text)) + " "
    assert all(f" {phrase} " not in padded for phrase in LEXICON)
    assert measure_hedging(text, LEXICON) == 0


def test_hedging_respects_token_boundaries():
    # "maybe" inside a longer token is not a match
    assert measure_hedging("The maybes have it.", ("maybe",)) == 0
    assert measure_hedging("Maybe so.", ("maybe",)) == 1
    # multi-word phrase must be contiguous
    assert measure_hedging("I definitely think so.", ("i think",)) == 0


def test_hedging_empty_lexicon_is_config_error():
    with pytest.raises(ConfigError):
        measure_hedging("anything", ())
    with pytest.raises(ConfigError):
        MeasurementSpec(hedging_lexicon=())


@settings(max_examples=50, deadline=None)
@given(
    lead=st.text(alphabet=" \t\n", max_size=3),
    trail=st.text(alphabet=" \t\n", max_size=3),
    upper=st.booleans(),
)
def test_hedging_invariance_under_whitespace_and_case(lead, trail, upper):
    base = "I mean the point stands"
    text = lead + (base.upper() if upper else base) + trail
    assert measure_hedging(text, LEXICON) == 1


def _measure_hedging_reference(text, lexicon):
    """The phrase-by-phrase scan measure_hedging replaced: every phrase at every offset."""
    if not lexicon:
        raise ConfigError("hedging lexicon is empty")
    tokens = tokenize(text)
    for phrase in lexicon:
        ptoks = phrase.split()
        span = len(ptoks)
        if span == 0 or span > len(tokens):
            continue
        for i in range(len(tokens) - span + 1):
            if tokens[i : i + span] == ptoks:
                return 1
    return 0


HEDGE_WORDS = ("i", "think", "maybe", "sort", "of", "kind", "the", "court", "-", "Think")
HEDGE_PHRASES = st.lists(st.sampled_from(HEDGE_WORDS), max_size=3).map(" ".join) | st.sampled_from(
    ["", "   ", "I THINK", "  sort   of ", "kind of the", "maybe,"]
)


@settings(max_examples=300, deadline=None)
@given(
    words=st.lists(st.sampled_from(HEDGE_WORDS + ("Maybe,", "(think)", "--", "of.")), max_size=12),
    seps=st.lists(st.sampled_from([" ", "  ", "\t", "\n"]), min_size=12, max_size=12),
    lexicon=st.lists(HEDGE_PHRASES, min_size=1, max_size=5),
)
def test_hedging_matches_the_phrase_scan_reference(words, seps, lexicon):
    text = "".join(sep + word for sep, word in zip(seps, words))
    expected = _measure_hedging_reference(text, lexicon)
    assert measure_hedging(text, lexicon) == expected  # a list lexicon
    assert measure_hedging(text, tuple(lexicon)) == expected


# -- disfluency ----------------------------------------------------------------


def test_disfluency_on_fixture_texts(paired_units):
    by_speaker = {u.p1_utterance.speaker_id: u.p1_utterance.text for u in paired_units}
    assert measure_disfluency(by_speaker["Ann O'Connell Adams"]) == 1
    assert measure_disfluency(by_speaker["Mark Irving Levy"]) == 0


def test_disfluency_requires_same_unigram():
    assert measure_disfluency("you're - - that you say") == 0
    assert measure_disfluency("have - - have almost all") == 1


def test_disfluency_empty_and_edge_cases():
    assert measure_disfluency("") == 0
    assert measure_disfluency("- -") == 0
    assert measure_disfluency("word - -") == 0
    assert measure_disfluency("And -- and") == 1  # single-token spelling
    assert measure_disfluency("And - - AND") == 1  # case-insensitive


@settings(max_examples=50, deadline=None)
@given(lead=st.text(alphabet=" \t", max_size=3), upper=st.booleans())
def test_disfluency_invariance_under_whitespace_and_case(lead, upper):
    base = "and - - and the rest"
    text = lead + (base.upper() if upper else base)
    assert measure_disfluency(text) == 1


# -- interruption --------------------------------------------------------------


def test_interruption_on_fixture_units(paired_units):
    labels = {
        u.p1_utterance.speaker_id: label_interruption(u) for u in paired_units
    }
    assert labels["Ann O'Connell Adams"] == 1
    assert labels["Mark Irving Levy"] == 0


def test_interruption_marker_only_text(paired_units):
    unit = paired_units[0]
    marked = CausalRecord  # noqa: F841  (keep import use obvious)
    clone = type(unit)(
        unit_id="x",
        p1_utterance=type(unit.p1_utterance)(
            case_id="c", index=0, speaker_id="s", speaker_role="advocate", text="- -"
        ),
        p2_utterance=unit.p2_utterance,
        context_features={},
    )
    assert label_interruption(clone) == 1


def test_interruption_requires_responder(paired_units):
    unit = paired_units[0]
    orphan = type(unit)(
        unit_id="x",
        p1_utterance=unit.p1_utterance,
        p2_utterance=None,
        context_features={},
    )
    with pytest.raises(DataError, match="undefined"):
        label_interruption(orphan)


def test_interruption_strict_mode(paired_units):
    unit = paired_units[0]

    def with_text(text):
        return type(unit)(
            unit_id="x",
            p1_utterance=type(unit.p1_utterance)(
                case_id="c", index=0, speaker_id="s", speaker_role="advocate", text=text
            ),
            p2_utterance=unit.p2_utterance,
            context_features={},
        )

    assert label_interruption(with_text("cut off --"), strict=False) == 1
    assert label_interruption(with_text("cut off --"), strict=True) == 0
    assert label_interruption(with_text("cut off - -"), strict=True) == 1


# -- treatment -----------------------------------------------------------------


def test_treatment_from_fixture_cases(paired_case_utterances):
    assert label_treatment(paired_case_utterances["2013-12-820"], "Ann O'Connell Adams") == 1
    assert label_treatment(paired_case_utterances["2008-07-636"], "Mark Irving Levy") == 0


def test_treatment_hand_built_introductions():
    utts = parse_transcript("\n".join([
        '{"case_id": "c", "index": 0, "speaker_id": "Chief", "speaker_role": "chief_justice", "text": "Ms. Adams, you may proceed."}',
        '{"case_id": "c", "index": 1, "speaker_id": "Ann Adams", "speaker_role": "advocate", "text": "Thank you."}',
    ]))
    assert label_treatment(utts, "Ann Adams") == 1

    utts = parse_transcript("\n".join([
        '{"case_id": "c", "index": 0, "speaker_id": "Chief", "speaker_role": "chief_justice", "text": "Mr. Levy?"}',
        '{"case_id": "c", "index": 1, "speaker_id": "Mark Levy", "speaker_role": "advocate", "text": "Thank you."}',
    ]))
    assert label_treatment(utts, "Mark Levy") == 0


def test_treatment_undefined_cases():
    # no chief-justice turn at all
    utts = parse_transcript(
        '{"case_id": "c", "index": 0, "speaker_id": "Mark Levy", "speaker_role": "advocate", "text": "Thank you."}'
    )
    assert label_treatment(utts, "Mark Levy") is None
    # chief speaks but never applies an honorific to this surname
    utts = parse_transcript("\n".join([
        '{"case_id": "c", "index": 0, "speaker_id": "Chief", "speaker_role": "chief_justice", "text": "We will hear argument next."}',
        '{"case_id": "c", "index": 1, "speaker_id": "Mark Levy", "speaker_role": "advocate", "text": "Thank you."}',
    ]))
    assert label_treatment(utts, "Mark Levy") is None


def test_treatment_ignores_non_chief_honorifics():
    utts = parse_transcript("\n".join([
        '{"case_id": "c", "index": 0, "speaker_id": "Justice A", "speaker_role": "justice", "text": "Ms. Levy, good morning."}',
        '{"case_id": "c", "index": 1, "speaker_id": "Chief", "speaker_role": "chief_justice", "text": "Mr. Levy, proceed."}',
        '{"case_id": "c", "index": 2, "speaker_id": "Mark Levy", "speaker_role": "advocate", "text": "Thank you."}',
    ]))
    assert label_treatment(utts, "Mark Levy") == 0


def test_treatment_does_not_match_mrs():
    utts = parse_transcript(
        '{"case_id": "c", "index": 0, "speaker_id": "Chief", "speaker_role": "chief_justice", "text": "Mrs. Levy, proceed."}'
    )
    assert label_treatment(utts, "Mark Levy") is None


def _label_treatment_reference(case_utterances, advocate_id, honorific_map=None):
    """The per-surname regex search label_treatment replaced."""
    honorific_map = honorific_map or {"Ms.": 1, "Mr.": 0}
    surname = advocate_id.split()[-1]
    patterns = {
        hon: re.compile(r"(?<!\w)" + re.escape(hon) + r"\s+" + re.escape(surname) + r"(?!\w)")
        for hon in honorific_map
    }
    for utt in sorted(case_utterances, key=lambda u: u.index):
        if utt.speaker_role != "chief_justice":
            continue
        best = None
        for hon, pattern in patterns.items():
            match = pattern.search(utt.text)
            if match and (best is None or match.start() < best[0]):
                best = (match.start(), hon)
        if best is not None:
            return honorific_map[best[1]]
    return None


SURNAMES = ("Smith", "Sm", "O'Connell")
HONORIFIC_MAPS = st.sampled_from(
    [{"Ms.": 1, "Mr.": 0}, {"Mr.": 0, "Ms.": 1}, {"Mrs.": 1, "Mr.": 0}]
)


@st.composite
def chief_turns(draw, surname):
    """Turns mixing honorifics, whitespace runs and the surname with and without suffixes."""
    honorific = st.sampled_from(["Ms.", "Mr.", "Mrs.", "MMs.", "xMr."])
    space = st.sampled_from(["", " ", "  ", "\t", "\n", "\u00a0"])
    name = st.sampled_from([surname + suffix for suffix in ("", "'s", "-Jones", ",", "son", ".")]
                           + list(SURNAMES))
    introduced = st.tuples(honorific, space, name).map("".join)
    introduction = st.tuples(honorific, space, introduced | name | honorific).map("".join)
    chunk = st.one_of(introduction, honorific | space | name)
    text = st.lists(st.tuples(chunk, st.sampled_from([" ", ", ", ""])).map("".join),
                    min_size=1, max_size=6).map("".join)
    role = st.sampled_from(["chief_justice", "chief_justice", "justice", "advocate"])
    return draw(st.lists(st.tuples(role, text), max_size=4))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), surname=st.sampled_from(SURNAMES), honorific_map=HONORIFIC_MAPS,
       reverse=st.booleans())
def test_treatment_matches_the_per_surname_regex_reference(data, surname, honorific_map, reverse):
    turns = data.draw(chief_turns(surname))
    utts = [Utterance("c", i, "Chief" if role == "chief_justice" else f"S{i}", role, text)
            for i, (role, text) in enumerate(turns)]
    if reverse:
        utts.reverse()
    advocate = "Alex " + surname
    expected = _label_treatment_reference(utts, advocate, honorific_map)
    assert label_treatment(utts, advocate, honorific_map) == expected


def test_treatment_match_semantics():
    def label(*texts, honorific_map=None):
        utts = [Utterance("c", i, "Chief", "chief_justice", text) for i, text in enumerate(texts)]
        return label_treatment(utts, "Mark Smith", honorific_map)

    assert label("Mr. Smith's turn.") == 0
    assert label("Mr. Smith-Jones, proceed.") == 0
    assert label("Mr. Smithson, proceed.") is None
    assert label("Mrs. Smith, proceed.") is None
    assert label("Ms.\t\n Smith") == 1
    assert label("We begin.", "Ms. Smith, then Mr. Smith.") == 1  # first qualifying turn
    assert label("Mr. Smith, then Ms. Smith.", "Ms. Smith") == 0  # earliest position
    assert label("Mr. Ms. Smith") == 1  # overlapping candidates are all seen
    assert label("Mr.  Smith", honorific_map={"Mr.": 0, "Mr. ": 1}) == 0  # a tie: map order
    assert label("Mr.  Smith", honorific_map={"Mr. ": 1, "Mr.": 0}) == 1
    assert label("Mrs. Smith", honorific_map={"Mrs.": 1, "Mr.": 0}) == 1
    # an honorific that is a prefix of another starts at the same position
    assert label("Mr. Smith", honorific_map={"Mr": 1, "Mr.": 0}) == 0
    assert label("Mr Smith", honorific_map={"Mr": 1, "Mr.": 0}) == 1


def test_treatment_compiles_no_pattern_per_surname(monkeypatch):
    compiles = []
    compile_ = re._compile  # every re entry point compiles through re._compile

    def counting(*args, **kwargs):
        compiles.append(args[0])
        return compile_(*args, **kwargs)

    def label_all(n):
        surnames = [f"Surname{i}" for i in range(n)]
        utts = [Utterance("c", i, "Chief", "chief_justice", f"Ms. {name}, proceed.")
                for i, name in enumerate(surnames)]
        compiles.clear()
        labels = [label_treatment(utts[i:i + 1], "Alex " + name) for i, name in enumerate(surnames)]
        assert labels == [1] * n
        return len(compiles)

    monkeypatch.setattr(re, "_compile", counting)
    few, many = label_all(2), label_all(2000)
    assert many <= few <= 1


def test_build_records_folds_in_every_topic_text_in_one_batch(monkeypatch):
    import medlang.measure as measure
    import medlang.topics as topics
    from medlang.corpus import extract_units

    words = ("statute waiver provision", "custody children treaty", "zebra quokka")
    utts = [Utterance("c", 0, "Chief", "chief_justice", "Ms. Smith, you may proceed.")]
    for i in range(1, 121):
        if i % 2:
            utts.append(Utterance("c", i, "Alex Smith", "advocate", words[i % 3] + " - -"))
        else:
            utts.append(Utterance("c", i, "Justice", "justice", "Go on."))
    model = topics.fit_topic_model(words[:2] * 10, k=2, seed=0, n_sweeps=4, burn_in=2)
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((measure, "measure_topics"), (measure, "measure_topic"),
                         (topics, "fold_in"), (topics, "measure_topic"),
                         (topics, "infer_proportions")):
        counting(module, name)
    build = build_records(extract_units(utts), MeasurementSpec.default(topic_model=model), 2,
                          case_utterances={"c": utts})
    assert len(build.records) == 60
    assert calls == {"measure_topics": 1, "fold_in": 1}
    assert set(build.records.m["topic"]) >= {model.no_content_level}


# -- lexicon loading -----------------------------------------------------------


def test_load_lexicon_comments_and_normalization():
    text = "# comment\nI  Think\n\nsort of  # trailing comment\n"
    assert load_lexicon(text) == ("i think", "sort of")


def test_load_lexicon_empty_errors():
    with pytest.raises(ConfigError):
        load_lexicon("# only a comment\n")


def test_honorific_map_must_be_bijection():
    with pytest.raises(ConfigError):
        MeasurementSpec(hedging_lexicon=("i think",), honorific_map={"Ms.": 1, "Mr.": 1})


# -- build_records ---------------------------------------------------------------


def build_paired(paired_units, paired_case_utterances, **kwargs):
    spec = kwargs.pop("spec", MeasurementSpec.default())
    return build_records(
        paired_units, spec, n_folds=2, case_utterances=paired_case_utterances, **kwargs
    )


def test_build_records_fixture_labels(paired_units, paired_case_utterances):
    result = build_paired(paired_units, paired_case_utterances)
    by_case = {r.unit_id.split(":")[0]: r for r in result.records}
    levy = by_case["2008-07-636"]
    adams = by_case["2013-12-820"]
    assert (levy.t, levy.m["hedging"], levy.m["disfluency"], levy.y) == (0, 1, 0, 0)
    assert (adams.t, adams.m["hedging"], adams.m["disfluency"], adams.y) == (1, 1, 1, 1)
    assert result.exclusions == ()
    assert levy.x["issue_area"] == "economic_activity"
    assert adams.x["issue_area"] == "civil_rights"


def test_build_records_fold_balance_and_determinism():
    lines = []
    for i in range(10):
        case = f"c{i}"
        lines.append(
            f'{{"case_id": "{case}", "index": 0, "speaker_id": "Chief", '
            f'"speaker_role": "chief_justice", "text": "Mr. Smith{i}, proceed."}}'
        )
        lines.append(
            f'{{"case_id": "{case}", "index": 1, "speaker_id": "Alex Smith{i}", '
            f'"speaker_role": "advocate", "text": "The statute is unambiguous."}}'
        )
        lines.append(
            f'{{"case_id": "{case}", "index": 2, "speaker_id": "Justice J", '
            f'"speaker_role": "justice", "text": "Noted."}}'
        )
    utts = parse_transcript("\n".join(lines))
    from medlang.corpus import extract_units

    units = extract_units(utts)
    by_case = {}
    for u in utts:
        by_case.setdefault(u.case_id, []).append(u)
    spec = MeasurementSpec.default()
    first = build_records(units, spec, 2, case_utterances=by_case, seed=11)
    again = build_records(units, spec, 2, case_utterances=by_case, seed=11)
    folds = sorted(r.fold for r in first.records)
    assert folds.count(0) == 5 and folds.count(1) == 5
    assert list(first.records) == list(again.records)
    other = build_records(units, spec, 2, case_utterances=by_case, seed=12)
    assert {r.unit_id: r.fold for r in other.records} != {
        r.unit_id: r.fold for r in first.records
    }


def test_build_records_all_units_excluded(paired_units, paired_case_utterances):
    # drop the responder from the Levy unit and the introduction from Adams's case
    units = list(paired_units)
    levy = units[0]
    units[0] = type(levy)(
        unit_id=levy.unit_id,
        p1_utterance=levy.p1_utterance,
        p2_utterance=None,
        context_features=levy.context_features,
    )
    cases = dict(paired_case_utterances)
    cases["2013-12-820"] = [u for u in cases["2013-12-820"] if u.speaker_role != "chief_justice"]
    result = build_records(units, MeasurementSpec.default(), 2, case_utterances=cases)
    assert len(result.records) == 0
    assert result.exclusion_counts() == {
        "no_responder": 1,
        "no_honorific_introduction": 1,
    }


def _synthetic_corpus(n_cases, skip_intro=(), skip_responder=()):
    lines = []
    for i in range(n_cases):
        case = f"c{i}"
        idx = 0
        if i not in skip_intro:
            lines.append(
                f'{{"case_id": "{case}", "index": {idx}, "speaker_id": "Chief", '
                f'"speaker_role": "chief_justice", "text": "Mr. Smith{i}, proceed."}}'
            )
            idx += 1
        lines.append(
            f'{{"case_id": "{case}", "index": {idx}, "speaker_id": "Alex Smith{i}", '
            f'"speaker_role": "advocate", "text": "The statute is unambiguous."}}'
        )
        idx += 1
        if i not in skip_responder:
            lines.append(
                f'{{"case_id": "{case}", "index": {idx}, "speaker_id": "Justice J", '
                f'"speaker_role": "justice", "text": "Noted."}}'
            )
    utts = parse_transcript("\n".join(lines))
    from medlang.corpus import extract_units

    by_case = {}
    for u in utts:
        by_case.setdefault(u.case_id, []).append(u)
    return extract_units(utts), by_case


def test_build_records_exclusion_reasons():
    units, cases = _synthetic_corpus(6, skip_intro={1}, skip_responder={2, 3})
    result = build_records(
        units, MeasurementSpec.default(), 2, case_utterances=cases,
        confounders=("prior_interruption_bucket",),
    )
    assert result.exclusion_counts() == {
        "no_honorific_introduction": 1,
        "no_responder": 2,
    }
    assert len(result.records) == 3
    assert len(result.records) + len(result.exclusions) == len(units)


def test_build_records_with_topic_mediator():
    from medlang.topics import fit_topic_model

    units, cases = _synthetic_corpus(8)
    train_texts = [u.p1_utterance.text + " statute waiver plan" for u in units[:4]]
    train_texts += ["custody treaty discretion children order return"] * 4
    model = fit_topic_model(train_texts, k=2, seed=1, n_sweeps=20, burn_in=10)
    spec = MeasurementSpec.default(topic_model=model)
    result = build_records(units, spec, 2, case_utterances=cases)
    assert dict(result.records.domains.mediators)["topic"] == 3  # K topics + reserved level
    for rec in result.records:
        assert 0 <= rec.m["topic"] <= 2
        encode_records([rec], result.records.domains)


def test_validator_accepts_exactly_what_build_emits(paired_units, paired_case_utterances):
    result = build_paired(paired_units, paired_case_utterances)
    domains = result.records.domains
    for record in result.records:
        encode_records([record], domains)
    first = list(result.records)[0]
    bad = CausalRecord(
        unit_id="zz",
        t=2,
        x=dict(first.x),
        m=dict(first.m),
        y=0,
        fold=0,
    )
    with pytest.raises(DataError):
        encode_records([bad], domains)
    off_domain = CausalRecord(
        unit_id="zz",
        t=1,
        x={**first.x, "issue_area": "maritime"},
        m=dict(first.m),
        y=0,
        fold=0,
    )
    with pytest.raises(DataError):
        encode_records([off_domain], domains)


# -- record reader -----------------------------------------------------------------

GOOD_RECORD = CausalRecord(unit_id="c:0", t=1, x={"x0": "0"}, m={"hedging": 1}, y=0, fold=1)


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ("{not json", "malformed causal record"),
        ("[1, 2]", "not an object"),
        (json.dumps({k: v for k, v in json.loads(record_to_json(GOOD_RECORD)).items()
                     if k != "x"}), "lacks key 'x'"),
        (record_to_json(GOOD_RECORD).replace('"t": 1', '"t": "one"'), "malformed causal record"),
        (record_to_json(GOOD_RECORD).replace('"t": 1', '"t": 0.7'), "malformed causal record"),
        (record_to_json(GOOD_RECORD).replace('"y": 0', '"y": true'), "malformed causal record"),
        (record_to_json(GOOD_RECORD).replace('"fold": 1', '"fold": false'),
         "malformed causal record"),
        (record_to_json(GOOD_RECORD).replace('"fold": 1', '"fold": -1'),
         "malformed causal record"),
        (record_to_json(GOOD_RECORD).replace('"hedging": 1', '"hedging": 1.9'),
         "malformed causal record"),
        (record_to_json(GOOD_RECORD).replace('"x0"', '"x1"'), "other variables than line 1"),
        (b"\xff\xfe", "not UTF-8"),
        ("[" * 100_000, "malformed causal record"),
        (record_to_json(GOOD_RECORD), "duplicate unit_id 'c:0', first on line 1"),
        (record_to_json(GOOD_RECORD).replace('"c:0"', '["c:0"]'), "unit_id must be a string"),
    ],
    ids=["non-json", "non-object", "missing-key", "non-integer-t", "float-t", "bool-y",
         "bool-fold", "negative-fold", "float-mediator-level", "other-variables", "non-utf8",
         "deeply-nested", "duplicate-unit-id", "non-string-unit-id"],
)
def test_records_reader_rejects_malformed_line_with_its_number(bad_line, reason):
    if isinstance(bad_line, str):
        bad_line = bad_line.encode("utf-8")
    data = record_to_json(GOOD_RECORD).encode("utf-8") + b"\n\n" + bad_line + b"\n"
    for source in (data, io.BytesIO(data)):
        with pytest.raises(ParseError, match=reason) as info:
            records_from_json(source)
        assert info.value.line_number == 3
    assert list(records_from_json(record_to_json(GOOD_RECORD))) == [GOOD_RECORD]


def test_records_reader_rejects_a_lone_surrogate():
    bad = record_to_json(GOOD_RECORD).replace('"c:0"', '"c:1"').replace('"0"', '"\\udc00"')
    with pytest.raises(ParseError, match=r"lone surrogate \\udc00") as info:
        records_from_json(record_to_json(GOOD_RECORD) + "\n" + bad)
    assert info.value.line_number == 2


def test_records_with_the_old_valence_key_still_read():
    line = record_to_json(GOOD_RECORD)
    assert "valence" not in json.loads(line)
    old = line.replace('"unit_id": "c:0", ', '"unit_id": "c:0", "valence": null, ')
    assert old != line
    assert list(records_from_json(old)) == [GOOD_RECORD]


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(near_lines(record_to_json(GOOD_RECORD).encode("utf-8")), max_size=4))
def test_records_reader_parses_or_raises_a_medlang_error(lines):
    data = b"\n".join(lines)
    for source in (data, io.BytesIO(data)):
        try:
            records = records_from_json(source)
        except MedlangError:
            continue
        assert len(records) <= len(lines)
