import contextlib
import io
import json
import re
import string
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import near_lines
from medlang import cli, corpus, measure, scm
from medlang.corpus import (AnalysisUnit, Utterance, ends_with_interruption_marker,
                           extract_units, parse_transcript)
from medlang.errors import ConfigError, DataError, MedlangError, ParseError
from medlang.measure import (
    HONORIFICS,
    CausalRecord,
    CodedRecords,
    Domains,
    MeasurementSpec,
    build_records,
    default_hedging_lexicon,
    label_treatment,
    load_lexicon,
    measure_disfluency,
    measure_hedging,
    encode_records,
    record_to_json,
    records_from_json,
    write_records,
)
from medlang.textutil import tokenize
from medlang.topics import fit_topic_model, measure_topics

LEXICON = default_hedging_lexicon()


# -- tokenizer ---------------------------------------------------------------


def test_tokenize_preserves_dash_tokens():
    assert tokenize("And - - and, the other") == ["and", "-", "-", "and", "the", "other"]
    assert tokenize("easy for -- for plan") == ["easy", "for", "-", "-", "for", "plan"]


def test_tokenize_strips_edge_punctuation_keeps_inner():
    assert tokenize("don't, (you) say!") == ["don't", "you", "say"]
    assert tokenize("self-defense works") == ["self-defense", "works"]


def _tokenize_reference(text):
    """The tokenizer as it was: a set of each token's characters tells dash runs apart."""
    tokens = []
    for raw in text.lower().split():
        if raw and set(raw) == {"-"}:
            tokens.extend("-" * len(raw))
            continue
        word = raw.strip(string.punctuation)
        if word:
            tokens.append(word)
    return tokens


#: Words, punctuation runs, dash runs and Unicode whitespace, to be joined.
TEXT_PIECES = st.sampled_from(
    ["I", "think", "maybe,", "sort", "of", "kind", "and", "AND", "-", "--", "---", "- -", "...",
     "(so)", "don't", "-x-", "x-", "\u00e9t\u00e9", "12", " ", "  ", "\t", "\n", "\u00a0",
     "\u2028"])
TEXTS = st.lists(TEXT_PIECES, max_size=14).map(" ".join) | st.text(max_size=12)


@settings(max_examples=300, deadline=None)
@given(text=TEXTS)
def test_tokenize_matches_the_reference(text):
    assert tokenize(text) == _tokenize_reference(text)


# -- hedging -----------------------------------------------------------------


def test_hedging_on_fixture_texts(paired_units):
    for unit in paired_units:
        assert measure_hedging(tokenize(unit.p1_utterance.text), LEXICON) == 1


def test_hedging_negative_verified_by_exhaustive_scan():
    text = "The statute is unambiguous."
    # independent oracle: scan every phrase against the padded token string
    padded = " " + " ".join(tokenize(text)) + " "
    assert all(f" {phrase} " not in padded for phrase in LEXICON)
    assert measure_hedging(tokenize(text), LEXICON) == 0


def test_hedging_respects_token_boundaries():
    # "maybe" inside a longer token is not a match
    assert measure_hedging(tokenize("The maybes have it."), ("maybe",)) == 0
    assert measure_hedging(tokenize("Maybe so."), ("maybe",)) == 1
    # multi-word phrase must be contiguous
    assert measure_hedging(tokenize("I definitely think so."), ("i think",)) == 0


def test_hedging_empty_lexicon_is_config_error():
    with pytest.raises(ConfigError):
        measure_hedging(tokenize("anything"), ())
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
    assert measure_hedging(tokenize(text), LEXICON) == 1
    assert measure_hedging(tokenize(text), ["I  Mean"]) == 1  # a phrase not yet normalized


def _measure_hedging_reference(text, lexicon):
    """The phrase-by-phrase scan measure_hedging replaced: every phrase's tokens, every offset."""
    if not lexicon:
        raise ConfigError("hedging lexicon is empty")
    tokens = tokenize(text)
    for phrase in lexicon:
        ptoks = tokenize(phrase)
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
    assert measure_hedging(tokenize(text), lexicon) == expected  # a list lexicon
    assert measure_hedging(tokenize(text), tuple(lexicon)) == expected


# -- disfluency ----------------------------------------------------------------


def test_disfluency_on_fixture_texts(paired_units):
    by_speaker = {u.p1_utterance.speaker_id: u.p1_utterance.text for u in paired_units}
    assert measure_disfluency(tokenize(by_speaker["Ann O'Connell Adams"])) == 1
    assert measure_disfluency(tokenize(by_speaker["Mark Irving Levy"])) == 0


def test_disfluency_requires_same_unigram():
    assert measure_disfluency(tokenize("you're - - that you say")) == 0
    assert measure_disfluency(tokenize("have - - have almost all")) == 1


def test_disfluency_empty_and_edge_cases():
    assert measure_disfluency(tokenize("")) == 0
    assert measure_disfluency(tokenize("- -")) == 0
    assert measure_disfluency(tokenize("word - -")) == 0
    assert measure_disfluency(tokenize("And -- and")) == 1  # single-token spelling
    assert measure_disfluency(tokenize("And - - AND")) == 1  # case-insensitive


def _measure_disfluency_reference(text):
    """The window scan measure_disfluency replaced: w, "-", "-", w at every offset."""
    tokens = tokenize(text)
    for i in range(len(tokens) - 3):
        w = tokens[i]
        if w != "-" and tokens[i + 1] == tokens[i + 2] == "-" and tokens[i + 3] == w:
            return 1
    return 0


@settings(max_examples=300, deadline=None)
@given(text=TEXTS)
def test_disfluency_matches_the_window_scan_reference(text):
    assert measure_disfluency(tokenize(text)) == _measure_disfluency_reference(text)


@settings(max_examples=50, deadline=None)
@given(lead=st.text(alphabet=" \t", max_size=3), upper=st.booleans())
def test_disfluency_invariance_under_whitespace_and_case(lead, upper):
    base = "and - - and the rest"
    text = lead + (base.upper() if upper else base)
    assert measure_disfluency(tokenize(text)) == 1


# -- interruption --------------------------------------------------------------


def test_interruption_on_fixture_units(paired_units):
    labels = {
        u.p1_utterance.speaker_id: ends_with_interruption_marker(u.p1_utterance.text)
        for u in paired_units
    }
    assert labels["Ann O'Connell Adams"] is True
    assert labels["Mark Irving Levy"] is False


def test_interruption_marker_only_text():
    assert ends_with_interruption_marker("- -")


def test_interruption_requires_responder():
    # Without a responding turn the outcome is undefined: the unit is excluded, not labelled.
    units, cases = _synthetic_corpus(3)
    orphan = replace(units[0], p2_utterance=None)
    build = build_records([orphan, *list(units)[1:]], MeasurementSpec.default(), 2,
                          case_utterances=cases)
    assert [(e.unit_id, e.reason) for e in build.exclusions] == [(orphan.unit_id, "no_responder")]
    assert orphan.unit_id not in build.records.unit_ids


def test_interruption_marker_spellings():
    assert ends_with_interruption_marker("cut off --")
    assert ends_with_interruption_marker("cut off - -  ")
    assert not ends_with_interruption_marker("cut off -")


# -- treatment -----------------------------------------------------------------


def chief_texts(turns):
    """A case's chief-justice texts in index order, as label_treatment takes them."""
    return [utt.text for utt in sorted(turns, key=lambda utt: utt.index)
            if utt.speaker_role == "chief_justice"]


def test_treatment_from_fixture_cases(paired_case_utterances):
    assert label_treatment(chief_texts(paired_case_utterances["2013-12-820"]),
                           "Ann O'Connell Adams") == 1
    assert label_treatment(chief_texts(paired_case_utterances["2008-07-636"]),
                           "Mark Irving Levy") == 0


def test_treatment_hand_built_introductions():
    utts = parse_transcript("\n".join([
        '{"case_id": "c", "index": 0, "speaker_id": "Chief", "speaker_role": "chief_justice", "text": "Ms. Adams, you may proceed."}',
        '{"case_id": "c", "index": 1, "speaker_id": "Ann Adams", "speaker_role": "advocate", "text": "Thank you."}',
    ]))
    assert label_treatment(chief_texts(utts), "Ann Adams") == 1

    utts = parse_transcript("\n".join([
        '{"case_id": "c", "index": 0, "speaker_id": "Chief", "speaker_role": "chief_justice", "text": "Mr. Levy?"}',
        '{"case_id": "c", "index": 1, "speaker_id": "Mark Levy", "speaker_role": "advocate", "text": "Thank you."}',
    ]))
    assert label_treatment(chief_texts(utts), "Mark Levy") == 0


def test_treatment_undefined_cases():
    # no chief-justice turn at all
    utts = parse_transcript(
        '{"case_id": "c", "index": 0, "speaker_id": "Mark Levy", "speaker_role": "advocate", "text": "Thank you."}'
    )
    assert label_treatment(chief_texts(utts), "Mark Levy") is None
    # chief speaks but never applies an honorific to this surname
    utts = parse_transcript("\n".join([
        '{"case_id": "c", "index": 0, "speaker_id": "Chief", "speaker_role": "chief_justice", "text": "We will hear argument next."}',
        '{"case_id": "c", "index": 1, "speaker_id": "Mark Levy", "speaker_role": "advocate", "text": "Thank you."}',
    ]))
    assert label_treatment(chief_texts(utts), "Mark Levy") is None


def test_treatment_ignores_non_chief_honorifics():
    utts = parse_transcript("\n".join([
        '{"case_id": "c", "index": 0, "speaker_id": "Justice A", "speaker_role": "justice", "text": "Ms. Levy, good morning."}',
        '{"case_id": "c", "index": 1, "speaker_id": "Chief", "speaker_role": "chief_justice", "text": "Mr. Levy, proceed."}',
        '{"case_id": "c", "index": 2, "speaker_id": "Mark Levy", "speaker_role": "advocate", "text": "Thank you."}',
    ]))
    assert label_treatment(chief_texts(utts), "Mark Levy") == 0


def test_treatment_does_not_match_mrs():
    utts = parse_transcript(
        '{"case_id": "c", "index": 0, "speaker_id": "Chief", "speaker_role": "chief_justice", "text": "Mrs. Levy, proceed."}'
    )
    assert label_treatment(chief_texts(utts), "Mark Levy") is None


def _label_treatment_reference(case_utterances, advocate_id):
    """The per-surname regex search label_treatment replaced."""
    surname = advocate_id.split()[-1]
    patterns = {
        hon: re.compile(r"(?<!\w)" + re.escape(hon) + r"\s+" + re.escape(surname) + r"(?!\w)")
        for hon in HONORIFICS
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
            return HONORIFICS[best[1]]
    return None


SURNAMES = ("Smith", "Sm", "O'Connell")


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
@given(data=st.data(), surname=st.sampled_from(SURNAMES), reverse=st.booleans())
def test_treatment_matches_the_per_surname_regex_reference(data, surname, reverse):
    turns = data.draw(chief_turns(surname))
    utts = [Utterance("c", i, "Chief" if role == "chief_justice" else f"S{i}", role, text)
            for i, (role, text) in enumerate(turns)]
    if reverse:
        utts.reverse()
    advocate = "Alex " + surname
    expected = _label_treatment_reference(utts, advocate)
    assert label_treatment(chief_texts(utts), advocate) == expected


def test_treatment_match_semantics():
    def label(*texts):
        return label_treatment(texts, "Mark Smith")

    assert label("Mr. Smith's turn.") == 0
    assert label("Mr. Smith-Jones, proceed.") == 0
    assert label("Mr. Smithson, proceed.") is None
    assert label("Mrs. Smith, proceed.") is None
    assert label("Ms.\t\n Smith") == 1
    assert label("We begin.", "Ms. Smith, then Mr. Smith.") == 1  # first qualifying turn
    assert label("Mr. Smith, then Ms. Smith.", "Ms. Smith") == 0  # earliest position
    assert label("Mr. Ms. Smith") == 1  # overlapping candidates are all seen


def test_treatment_compiles_no_pattern_per_surname(monkeypatch):
    compiles = []
    compile_ = re._compile  # every re entry point compiles through re._compile

    def counting(*args, **kwargs):
        compiles.append(args[0])
        return compile_(*args, **kwargs)

    def label_all(n):
        surnames = [f"Surname{i}" for i in range(n)]
        texts = [f"Ms. {name}, proceed." for name in surnames]
        compiles.clear()
        labels = [label_treatment([text], "Alex " + name) for text, name in zip(texts, surnames)]
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
                         (topics, "fold_in"), (topics, "measure_topic")):
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
    assert load_lexicon("maybe,\n(Sort of)\n--\n") == ("maybe", "sort of", "- -")


def test_load_lexicon_drops_a_leading_byte_order_mark():
    lexicon = load_lexicon(b"\xef\xbb\xbfI think\nsort of\n".decode("utf-8"))
    assert lexicon == ("i think", "sort of")
    assert measure_hedging(tokenize("I think so"), lexicon) == 1


def test_load_lexicon_empty_errors():
    with pytest.raises(ConfigError):
        load_lexicon("# only a comment\n")
    with pytest.raises(ConfigError):
        load_lexicon("...\n, ,\n")


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
    cases["2013-12-820"] = [u._replace(speaker_role="justice") if u.speaker_role == "chief_justice"
                            else u for u in cases["2013-12-820"]]
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


@pytest.mark.parametrize("confounders", [("issue_area",), None])
@pytest.mark.parametrize("level", [1, None, True, 1.5, {"k": [1]}, ["a"]])
def test_build_records_rejects_a_confounder_level_that_is_not_a_string(level, confounders):
    units, cases = _synthetic_corpus(3)
    units = [replace(u, context_features={**u.context_features, "issue_area": level if i else "a"})
             for i, u in enumerate(units)]
    message = f"unit {units[1].unit_id}: context feature 'issue_area' must be a string, got {level!r}"
    with pytest.raises(DataError, match=re.escape(message)):
        build_records(units, MeasurementSpec.default(), 2, case_utterances=cases,
                      confounders=confounders)


def test_build_records_with_topic_mediator():
    from medlang.topics import fit_topic_model

    units, cases = _synthetic_corpus(8)
    train_texts = [u.p1_utterance.text + " statute waiver plan" for u in list(units)[:4]]
    train_texts += ["custody treaty discretion children order return"] * 4
    model = fit_topic_model(train_texts, k=2, seed=1, n_sweeps=20, burn_in=10)
    spec = MeasurementSpec.default(topic_model=model)
    result = build_records(units, spec, 2, case_utterances=cases)
    stream = io.StringIO()
    write_records(result.records, stream)
    assert records_from_json(stream.getvalue()).domains == result.records.domains
    for rec in result.records:
        assert 0 <= rec.m["topic"] <= 2
        encode_records([rec], result.records.domains)


def _cases_for(texts):
    """One case per text: an introduction, the text as the advocate turn, a reply."""
    lines = []
    for i, text in enumerate(texts):
        lines += [Utterance(f"c{i}", 0, "Chief", "chief_justice", "Ms. Smith, proceed."),
                  Utterance(f"c{i}", 1, "Alex Smith", "advocate", text),
                  Utterance(f"c{i}", 2, "Justice J", "justice", "Noted.")]
    return extract_units(lines), {f"c{i}": lines[3 * i:3 * i + 3] for i in range(len(texts))}


TOPIC_MODEL = fit_topic_model(["statute waiver provision think", "custody children treaty"] * 4,
                              k=2, seed=0, n_sweeps=6, burn_in=2)


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(TEXTS.filter(str.strip) | st.sampled_from(
    ["statute - - statute", "I think the treaty", "custody, kind of"]), min_size=2, max_size=6))
def test_build_records_levels_equal_the_per_text_measures(texts):
    units, cases = _cases_for(texts)
    records = build_records(units, MeasurementSpec.default(topic_model=TOPIC_MODEL), 2,
                            case_utterances=cases).records
    assert records.m["hedging"].tolist() == [measure_hedging(tokenize(t), LEXICON) for t in texts]
    assert records.m["disfluency"].tolist() == [measure_disfluency(tokenize(t)) for t in texts]
    assert records.m["topic"].tolist() == [int(measure_topics(TOPIC_MODEL, [tokenize(t)])[0])
                                           for t in texts]


def test_build_records_tokenizes_each_included_text_once(monkeypatch):
    import medlang.measure as measure
    import medlang.textutil as textutil
    import medlang.topics as topics

    texts = ["I think - - think", "custody treaty", "statute waiver", "kind of"]
    units, cases = _cases_for(texts)
    cases["c3"][0] = cases["c3"][0]._replace(speaker_role="justice")  # no introduction: excluded
    units = [*units, AnalysisUnit("c9:0", Utterance("c9", 0, "Alex Smith", "advocate", "No reply"),
                                  None)]  # no responder: excluded
    calls = []

    def counting(text):
        calls.append(text)
        return textutil.tokenize(text)

    for module in (measure, topics):
        monkeypatch.setattr(module, "tokenize", counting)
    build = build_records(units, MeasurementSpec.default(topic_model=TOPIC_MODEL), 2,
                          case_utterances=cases)
    assert len(build.records) == 3
    assert sorted(calls) == sorted(texts[:3])  # hedging, disfluency and topics made 9


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
#: Confounder levels that are JSON but not strings; the reader converts none of them.
NON_STRING_LEVELS = ("null", "true", "[1]", '{"a": 1}', "1", "1.0")


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
        *[(record_to_json(GOOD_RECORD).replace('"x0": "0"', f'"x0": {level}'),
           "confounder 'x0' must be a string") for level in NON_STRING_LEVELS],
    ],
    ids=["non-json", "non-object", "missing-key", "non-integer-t", "float-t", "bool-y",
         "bool-fold", "negative-fold", "float-mediator-level", "other-variables", "non-utf8",
         "deeply-nested", "duplicate-unit-id", "non-string-unit-id",
         *[f"confounder-level-{level}" for level in NON_STRING_LEVELS]],
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


# -- the column reader against the per-line reference ---------------------------------
#
# records_from_json reads a file in the writer's exact form by one pattern;
# measure._records_from_lines, the per-line reader every other file goes
# through, is the reference: same records, same errors and line numbers.

#: Quotes, backslashes, control characters, a line separator, a no-break
#: space, non-ASCII and non-BMP characters, plus any other non-surrogate.
READER_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\n\r\t\x00\x1f\x7f\u2028\u00a0 éЖ中😀'),
                       st.characters(blacklist_categories=("Cs",))),
    max_size=8,
)
#: Names that need escaping, one with a "%", one that sorts before "fold".
READER_NAMES = ["hedging", "a", 'q"', "b\\", "n\n", "é", "m%d", " ", "\x01"]


def _sources(data: bytes):
    """A maker of each kind of source records_from_json reads, each holding ``data``."""
    yield lambda: data
    yield lambda: io.BytesIO(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    yield lambda: text


def _outcome(read, source):
    """The records ``read`` gives as plain columns, or its ParseError's message and line."""
    try:
        records = read(source)
    except ParseError as exc:
        return "error", str(exc), exc.line_number
    return (records.domains, records.unit_ids,
            [(column.dtype, column.tolist()) for column in
             (records.t, records.x, records.y, records.fold, *records.m.values())],
            tuple(records.m))


@contextlib.contextmanager
def split_blocks_of(size: int):
    """Have the column reader decode and split about ``size`` bytes (whole lines) at a time."""
    saved, corpus._BLOCK = corpus._BLOCK, size
    try:
        yield
    finally:
        corpus._BLOCK = saved


def assert_reads_like_the_reference(data: bytes):
    # Each source kind holds the same bytes, which the reference reads.
    reference = _outcome(measure._records_from_lines, data)
    for source in _sources(data):
        for size in (corpus._BLOCK, 1, 150):  # one block, a line each, one or two lines each
            with split_blocks_of(size):
                assert _outcome(records_from_json, source()) == reference


@st.composite
def reader_records(draw):
    confounders = tuple(
        (name, tuple(draw(st.lists(READER_TEXT, min_size=1, max_size=3, unique=True))))
        for name in draw(st.lists(st.sampled_from(READER_NAMES), unique=True, max_size=2)))
    mediators = tuple((name, draw(st.integers(2, 4))) for name in
                      draw(st.lists(st.sampled_from(READER_NAMES), unique=True,
                                    min_size=1, max_size=3)))
    domains = Domains(confounders=confounders, mediators=mediators)
    n = draw(st.integers(1, 6))

    def column(hi):
        return np.asarray(draw(st.lists(st.integers(0, hi), min_size=n, max_size=n)),
                          dtype=np.int64)

    return CodedRecords(
        unit_ids=tuple(draw(st.lists(READER_TEXT, min_size=n, max_size=n, unique=True))),
        t=column(1), x=column(domains.n_x - 1),
        m={name: column(size - 1) for name, size in mediators},
        y=column(1), fold=column(3), domains=domains)


def written_records(records) -> bytes:
    buf = io.StringIO()
    write_records(records, buf)
    return buf.getvalue().encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(records=reader_records())
def test_column_reader_round_trip_equals_the_reference(records):
    assert_reads_like_the_reference(written_records(records))


def _canonical_file() -> bytes:
    return written_records(CodedRecords(
        unit_ids=("c:0", "c:1", "c:2"), t=np.array([1, 0, 1]), x=np.array([0, 1, 1]),
        m={"hedging": np.array([1, 0, 0]), "disfluency": np.array([0, 1, 0])},
        y=np.array([0, 1, 1]), fold=np.array([1, 0, 1]),
        domains=Domains(confounders=(("x0", ("0", "1")),),
                        mediators=(("hedging", 2), ("disfluency", 2)))))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_column_reader_equals_the_reference_on_corrupted_files(data):
    lines = _canonical_file().split(b"\n")
    for i in data.draw(st.sets(st.integers(0, 2), min_size=1, max_size=2)):
        lines[i] = data.draw(near_lines(lines[i]))
    assert_reads_like_the_reference(b"\n".join(lines))


SECOND = '{"fold": 0, "m": {"disfluency": 1, "hedging": 0}, "t": 0, "unit_id": "c:1", '\
         '"x": {"x0": "1"}, "y": 1}'


@pytest.mark.parametrize("second", [
    SECOND.replace('"unit_id"', '"valence": null, "unit_id"'),
    '{"t": 0, "fold": 0, "m": {"hedging": 0, "disfluency": 1}, "unit_id": "c:1", '
    '"x": {"x0": "1"}, "y": 1}',
    SECOND.replace('"t": 0', '"t":  0'),
    SECOND.replace('"t": 0', '"t":0'),
    " " + SECOND,
    SECOND + " ",
    SECOND + "\r",
    SECOND.replace('"t": 0', '"t": 1.0'),
    SECOND.replace('"t": 0', '"t": -0'),
    SECOND.replace('"t": 0', '"t": 01'),
    SECOND.replace('"fold": 0', '"fold": 1234567890123456789'),
    SECOND.replace('"fold": 0', '"fold": 123456789012345678'),
    SECOND.replace('"fold": 0', '"fold": 9999999999999999999'),
    SECOND.replace('"t": 0', '"t": 2'),
    SECOND.replace('"y": 1', '"y": 2'),
    SECOND.replace('"c:1"', '"\\u00e9"'),
    SECOND.replace('"c:1"', '"é"'),
    SECOND.replace('"c:1"', '"c:\t1"'),
    SECOND.replace('"c:1"', '"c:\x7f1"'),
    SECOND.replace('"1"}', '"\\u00e9"}'),
    SECOND.replace('"1"}', '1}'),
    SECOND.replace('"c:1"', '"c:0"'),
    SECOND.replace('"hedging"', '"h\\u0065dging"'),
    SECOND.replace('"x0"', '"x1"'),
    "\u00a0",
    "\u00a0" + SECOND,
    "  \t",
    "",
    "\u2028",
    "\x85",
], ids=["valence-null", "reordered-keys", "extra-space", "no-space", "leading-space",
        "trailing-space", "crlf", "float-t", "negative-zero-t", "leading-zero-t",
        "19-digit-fold", "18-digit-fold", "fold-past-int64", "t-out-of-domain", "y-out-of-domain",
        "escaped-unit-id", "non-ascii-unit-id", "raw-tab-in-unit-id", "raw-delete-in-unit-id",
        "escaped-level", "integer-level",
        "duplicate-unit-id", "escaped-name", "other-confounder", "only-nbsp", "nbsp-before",
        "only-spaces", "empty", "only-line-separator", "only-next-line"])
def test_column_reader_equals_the_reference_on_non_canonical_lines(second):
    first, _, third = _canonical_file().decode("utf-8").split("\n")[:3]
    assert_reads_like_the_reference(f"{first}\n{second}\n{third}\n".encode("utf-8"))


def test_writer_form_never_reaches_the_per_line_reader(monkeypatch, tmp_path):
    """A file write_records wrote is read by the pattern alone, from bytes, str or a file."""
    files = [_canonical_file(),
             written_records(scm.generate(scm.load_fixture("two_mediator_scm"), 200,
                                          seed=1).records),
             written_records(CodedRecords(
                 unit_ids=("é 中", "😀", "u "), t=np.array([0, 1, 1]),
                 x=np.array([0, 1, 0]), m={name: np.array([0, 2, 1]) for name in READER_NAMES},
                 y=np.array([1, 0, 1]), fold=np.array([0, 0, 1]),
                 domains=Domains(confounders=(('q"', ("a", "b")),),
                                 mediators=tuple((name, 3) for name in READER_NAMES))))]
    files.append(files[0].replace(b"\n", b"\n\n \t\n\xc2\xa0\n", 1))  # blank lines
    expected = [_outcome(measure._records_from_lines, data) for data in files]
    assert all(want[0] != "error" for want in expected)

    def per_line_reader(source):
        raise AssertionError("the per-line reader ran")

    monkeypatch.setattr(measure, "_records_from_lines", per_line_reader)
    for data, want in zip(files, expected):
        for size in (corpus._BLOCK, 1, 150):
            with split_blocks_of(size):
                for source in _sources(data):
                    assert _outcome(records_from_json, source()) == want
        path = tmp_path / "records.ndjson"
        path.write_bytes(data)
        assert _outcome(cli._load_records_file, str(path)) == want
