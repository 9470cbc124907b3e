"""From raw transcript lines to causal records.

Walks the measurement path end to end on a tiny two-case corpus: parse
speaker turns, pair each advocate turn with the justice response, then
label treatment (honorific introduction), outcome (trailing double dash),
and the hedging/disfluency mediators.
"""

from medlang import MeasurementSpec, build_records, extract_units, parse_transcript
from medlang.corpus import parse_case_metadata

TRANSCRIPT = """\
{"case_id": "case-a", "index": 0, "speaker_id": "Chief Justice Burger", "speaker_role": "chief_justice", "text": "Mr. Levin, whenever you're ready."}
{"case_id": "case-a", "index": 1, "speaker_id": "Mark Levin", "speaker_role": "advocate", "text": "I don't think so. I mean I think that reading fails."}
{"case_id": "case-a", "index": 2, "speaker_id": "Justice Marshall", "speaker_role": "justice", "text": "Why would it fail?"}
{"case_id": "case-b", "index": 0, "speaker_id": "Chief Justice Burger", "speaker_role": "chief_justice", "text": "Ms. Archer, you may proceed."}
{"case_id": "case-b", "index": 1, "speaker_id": "Ann Archer", "speaker_role": "advocate", "text": "The record - - record shows, I think, that the parties agreed. And if I - -"}
{"case_id": "case-b", "index": 2, "speaker_id": "Justice Marshall", "speaker_role": "justice", "text": "Counsel, the agreement says otherwise."}
"""

META = """\
{"case_id": "case-a", "issue_area": "economic_activity"}
{"case_id": "case-b", "issue_area": "civil_rights"}
"""


def main() -> None:
    utterances = parse_transcript(TRANSCRIPT)
    print(f"parsed {len(utterances)} turns across "
          f"{len({u.case_id for u in utterances})} cases")

    meta = parse_case_metadata(META)
    units = extract_units(utterances, meta)
    for unit in units:
        responder = unit.p2_utterance.speaker_id if unit.p2_utterance else "(none)"
        print(f"  unit {unit.unit_id}: {unit.p1_utterance.speaker_id} -> {responder}, "
              f"context {dict(unit.context_features)}")

    build = build_records(
        units, MeasurementSpec.default(), n_folds=2, case_utterances=utterances.cases, seed=0
    )
    print("\nmeasured records (t = gender signal, y = interruption):")
    for rec in build.records:
        print(f"  {rec.unit_id}: t={rec.t} hedging={rec.m['hedging']} "
              f"disfluency={rec.m['disfluency']} y={rec.y} x={dict(rec.x)} fold={rec.fold}")
    if build.exclusions:
        print(f"excluded: {build.exclusion_counts()}")


if __name__ == "__main__":
    main()
