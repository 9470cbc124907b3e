"""The unit path as it was before units became a table, kept as a test reference.

extract_units built one AnalysisUnit object per advocate turn, write_units
wrote each unit's turns through utterance_to_json, and build_records
measured the units one at a time. test_unit_table.py checks the table path
against these: same units-file bytes, records, exclusions and errors.
"""

import json
from json.encoder import encode_basestring
from itertools import islice

from medlang.corpus import (
    COMPUTED_FEATURES,
    RESPONDER_ROLES,
    AnalysisUnit,
    ends_with_interruption_marker,
    utterance_to_json,
)
from medlang.errors import ConfigError, DataError
from medlang.measure import (
    DEFAULT_CONFOUNDERS,
    TOPIC_MEDIATOR,
    BuildResult,
    Exclusion,
    _code,
    infer_domains,
    label_treatment,
    measure_disfluency,
    measure_hedging,
)
from medlang.seeding import assign_folds
from medlang.textutil import tokenize
from medlang.topics import measure_topics

_BUCKETS = ("0", "1", "2+")


def extract_units(utterances, case_metadata=None):
    case_metadata = case_metadata or {}
    clash = [case for case, meta in case_metadata.items() if not COMPUTED_FEATURES.isdisjoint(meta)]
    if clash:
        raise DataError(f"case {clash[0]!r}: metadata names one of {sorted(COMPUTED_FEATURES)}")
    cases = {}
    for utt in utterances:
        cases.setdefault(utt.case_id, []).append(utt)
    for case_id, turns in cases.items():
        turns.sort(key=lambda t: t.index)
        if [t.index for t in turns] != list(range(len(turns))):
            raise DataError(f"case {case_id!r}: indices not contiguous from 0")
    prior = {}
    for case_id, turns in cases.items():
        running, buckets = 0, []
        for turn in turns:
            buckets.append(_BUCKETS[running])
            if (running < 2 and turn.speaker_role == "advocate"
                    and ends_with_interruption_marker(turn.text)):
                running += 1
        prior[case_id] = buckets
    units = []
    for utt in utterances:
        if utt.speaker_role != "advocate":
            continue
        case_id, index = utt.case_id, utt.index
        turns = cases[case_id]
        nxt = turns[index + 1] if index + 1 < len(turns) else None
        p2 = nxt if nxt is not None and nxt.speaker_role in RESPONDER_ROLES else None
        context = {
            "prior_interruption_bucket": prior[case_id][index],
            "responder_role": p2.speaker_role if p2 is not None else "none",
        }
        context.update(case_metadata.get(case_id, ()))
        units.append(AnalysisUnit(f"{case_id}:{index}", utt, p2, context))
    return units


def _unit_line(unit, contexts):
    items = tuple(unit.context_features.items())
    try:
        context = contexts.get(items)
    except TypeError:
        context = None
    if context is None:
        context = json.dumps(dict(items), ensure_ascii=False, sort_keys=True)
        if all(type(key) is str and type(value) is str for key, value in items):
            contexts[items] = context
    p2 = "null" if unit.p2_utterance is None else utterance_to_json(unit.p2_utterance)
    return (f'{{"context": {context}, "p1": {utterance_to_json(unit.p1_utterance)}, '
            f'"p2": {p2}, "unit_id": {encode_basestring(unit.unit_id)}}}\n')


def write_units(units, stream):
    contexts = {}
    lines = iter(units)
    while text := "".join([_unit_line(unit, contexts) for unit in islice(lines, 1024)]):
        stream.write(text)


def _label(turns, advocate):
    """label_treatment as it was: it took every turn of the case, in any order."""
    chief = sorted((utt for utt in turns if utt.speaker_role == "chief_justice"),
                   key=lambda utt: utt.index)
    return label_treatment([utt.text for utt in chief], advocate)


def build_records(units, spec, n_folds, case_utterances, seed=0, confounders=None):
    if n_folds < 2:
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    if confounders is None:
        available = set()
        for unit in units:
            available.update(unit.context_features)
        confounders = tuple(c for c in DEFAULT_CONFOUNDERS if c in available)
        if not confounders:
            confounders = ("prior_interruption_bucket",)
    treatment_cache = {}
    exclusions, unit_ids, t_column, y_column = [], [], [], []
    x = {name: [] for name in confounders}
    m = {"hedging": [], "disfluency": []}
    docs = []
    for unit in units:
        if unit.p2_utterance is None:
            exclusions.append(Exclusion(unit.unit_id, "no_responder"))
            continue
        case_id = unit.p1_utterance.case_id
        advocate = unit.p1_utterance.speaker_id
        key = (case_id, advocate)
        if key not in treatment_cache:
            turns = case_utterances.get(case_id)
            if turns is None:
                raise DataError(f"unit {unit.unit_id}: no utterances supplied for case {case_id!r}")
            treatment_cache[key] = _label(turns, advocate)
        t = treatment_cache[key]
        if t is None:
            exclusions.append(Exclusion(unit.unit_id, "no_honorific_introduction"))
            continue
        y_column.append(int(ends_with_interruption_marker(unit.p1_utterance.text)))
        t_column.append(t)
        unit_ids.append(unit.unit_id)
        for name in confounders:
            if name not in unit.context_features:
                raise DataError(f"unit {unit.unit_id}: missing context feature {name!r}")
            level = unit.context_features[name]
            if type(level) is not str:
                raise DataError(f"unit {unit.unit_id}: context feature {name!r} must be a string, "
                                f"got {level!r}")
            x[name].append(level)
        tokens = tokenize(unit.p1_utterance.text)
        m["hedging"].append(measure_hedging(tokens, spec.hedging_lexicon))
        m["disfluency"].append(measure_disfluency(tokens))
        if spec.topic_model is not None:
            docs.append(tokens)
    if spec.topic_model is not None:
        m[TOPIC_MEDIATOR] = measure_topics(spec.topic_model, docs).tolist()
    domains = infer_domains(x, m)
    folds = assign_folds(unit_ids, n_folds, seed).tolist() if unit_ids else []
    records = _code(unit_ids, t_column, x, m, y_column, folds, domains)
    return BuildResult(records=records, exclusions=tuple(exclusions))
