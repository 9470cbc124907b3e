"""Seeded generator of long oral-argument cases with planted labels.

Every case has one chief justice, two advocates (one introduced as "Ms.",
one as "Mr.", in seeded order) and a justice who answers every advocate
turn. The first advocate argues the first half of the case, the chief
justice introduces the second advocate at the midpoint, and the case ends
on an advocate turn with no responder, which the pipeline must exclude.

Advocate text is drawn from one planted topic per turn: each topic owns a
disjoint set of invented words, so no topic word collides with a hedging
phrase, a stop word or another topic. Topics are few and their words
distinct enough that a 40-sweep fit recovers every one of them; a fitted
topic that is dominant in only a handful of turns would make bootstrap
resamples lose that mediator level and the run fail. Hedges ("I think", ...), disfluencies ("w - - w")
and the trailing cut-off marker ("- -") are planted per turn, and their
labels are returned so that measured records can be checked exactly.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

N_TOPICS = 5
WORDS_PER_TOPIC = 8
HEDGES = ("I think", "perhaps", "I believe", "sort of", "maybe")
ISSUE_AREAS = ("civil_rights", "economic_activity")
SYLLABLES = ("ka", "lo", "mi", "nu", "pe", "ra", "si", "to", "vu", "ze", "bo", "du")


def topic_vocabulary() -> list[list[str]]:
    """Disjoint invented words per topic, e.g. "tkalomi" for topic t."""
    vocab = []
    for topic in range(N_TOPICS):
        words = []
        for j in range(WORDS_PER_TOPIC):
            a, b = divmod(j, len(SYLLABLES))
            words.append("t" + SYLLABLES[topic] + SYLLABLES[a] + SYLLABLES[b])
        vocab.append(words)
    return vocab


def _advocate_text(rng: random.Random, vocab, hedging: int, disfluency: int, y: int) -> str:
    topic = rng.randrange(N_TOPICS)
    words = [rng.choice(vocab[topic]) for _ in range(rng.randint(8, 12))]
    if disfluency:
        at = rng.randrange(1, len(words))
        words[at:at] = ["- -", words[at - 1]]
    body = " ".join(words)
    if hedging:
        body = rng.choice(HEDGES) + " " + body
    return body + (" - -" if y else ".")


def generate_long_cases(seed: int, n_cases: int, turns_per_case: int):
    """Return (utterance dicts, case metadata dicts, planted labels by unit id).

    Planted labels map "case_id:index" of every advocate turn that has a
    responding turn to {"t", "y", "hedging", "disfluency"}.
    """
    if turns_per_case < 8 or turns_per_case % 4:
        raise ValueError("turns_per_case must be a multiple of 4 and at least 8")
    rng = random.Random(seed)
    vocab = topic_vocabulary()
    areas = [ISSUE_AREAS[c % len(ISSUE_AREAS)] for c in range(n_cases)]
    rng.shuffle(areas)
    turns: list[dict] = []
    meta: list[dict] = []
    labels: dict[str, dict[str, int]] = {}
    for c in range(n_cases):
        case_id = f"long{seed}-{c:03d}"
        meta.append({"case_id": case_id, "issue_area": areas[c]})
        first_t = rng.randrange(2)
        advocates = [
            (f"Counsel Adams{c:03d}", first_t),
            (f"Counsel Baker{c:03d}", 1 - first_t),
        ]
        half = turns_per_case // 2
        for index in range(turns_per_case):
            name, t = advocates[0 if index < half else 1]
            if index in (0, half):
                role, speaker = "chief_justice", "Chief Justice Burger"
                text = f"{'Ms.' if t else 'Mr.'} {name.split()[-1]}, you may proceed."
            elif index % 2 == 1:
                role, speaker = "advocate", name
                hedging = int(rng.random() < 0.3 + 0.2 * t)
                disfluency = int(rng.random() < 0.25 + 0.15 * t)
                y = int(rng.random() < 0.2 + 0.15 * t + 0.2 * hedging)
                text = _advocate_text(rng, vocab, hedging, disfluency, y)
                # The last turn of a case has no responder and yields no record.
                if index + 1 < turns_per_case:
                    labels[f"{case_id}:{index}"] = {
                        "t": t, "y": y, "hedging": hedging, "disfluency": disfluency,
                    }
            else:
                role, speaker, text = "justice", "Justice Marshall", "What is your answer to that?"
            turns.append({"case_id": case_id, "index": index, "speaker_id": speaker,
                          "speaker_role": role, "text": text})
    return turns, meta, labels


def write_long_cases(out: Path, seed: int, n_cases: int, turns_per_case: int) -> None:
    """Write transcripts.ndjson, meta.ndjson and labels.json under ``out``."""
    turns, meta, labels = generate_long_cases(seed, n_cases, turns_per_case)
    out.mkdir(parents=True, exist_ok=True)
    (out / "transcripts.ndjson").write_text(
        "".join(json.dumps(t, sort_keys=True) + "\n" for t in turns), encoding="utf-8")
    (out / "meta.ndjson").write_text(
        "".join(json.dumps(m, sort_keys=True) + "\n" for m in meta), encoding="utf-8")
    (out / "labels.json").write_text(json.dumps(labels, sort_keys=True), encoding="utf-8")

