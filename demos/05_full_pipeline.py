"""The whole pipeline on a rendered synthetic corpus, reproducibly.

Renders structural-model samples as three-turn cases (introduction,
advocate turn, justice response) whose text markers encode the sampled
mediators and outcome, then runs ingest -> measure -> fit -> estimate ->
report from one config and reruns the written manifest to show the
artifacts come back byte-identical.

The command-line equivalent:

    medlang simulate --fixture two_mediator_scm --n 400 --seed 6 --render --out sim/
    medlang run --config config.json
    medlang run --manifest out/manifest.json --out again/
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from medlang.cli import RunConfig, run_pipeline
from medlang.corpus import write_case_metadata, write_transcript
from medlang.scm import generate, load_fixture
from medlang.seeding import derive_seed


def main() -> None:
    spec = load_fixture("two_mediator_scm")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        result = generate(spec, 400, seed=6, fold_seed=derive_seed(6, "folds"), render=True)
        transcripts = tmp / "transcripts.ndjson"
        with open(transcripts, "w", encoding="utf-8") as fh:
            write_transcript(result.utterances, fh)
        meta = tmp / "meta.ndjson"
        with open(meta, "w", encoding="utf-8") as fh:
            write_case_metadata(result.case_metadata, fh)

        config = RunConfig(
            transcripts=str(transcripts),
            meta=str(meta),
            out=str(tmp / "out"),
            seed=6,
            bootstrap=200,
            mediators=("hedging", "disfluency"),
            confounders=("x0",),
        )
        manifest = run_pipeline(config)
        print((tmp / "out" / "report.txt").read_text("utf-8"))

        rerun = run_pipeline(replace(config, out=str(tmp / "again")))
        identical = manifest["artifacts"] == rerun["artifacts"]
        print(f"rerun artifacts byte-identical: {identical}")


if __name__ == "__main__":
    main()
