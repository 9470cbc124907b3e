import json
import logging
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from medlang.cli import RunConfig, main, report, run_pipeline
from medlang.errors import ConfigError
from medlang.measure import CausalRecord, record_to_json, records_from_json
from medlang.mediation import INTERPRETATION_CAVEAT, EffectEstimate


def write_config(tmp_path, transcripts, meta=None, **overrides):
    config = {
        "transcripts": str(transcripts),
        "out": str(tmp_path / "out"),
        "seed": 7,
        "folds": 2,
        "bootstrap": 0,
        "mediators": ["hedging", "disfluency"],
    }
    if meta is not None:
        config["meta"] = str(meta)
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, config


def read_artifacts(out_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "manifest.json"
    }


# -- full pipeline on the paired-case corpus -----------------------------------


def test_run_pipeline_on_paired_fixture(tmp_path, paired_transcript_path, paired_meta_path):
    config_path, config = write_config(tmp_path, paired_transcript_path, paired_meta_path)
    code = main(["run", "--config", str(config_path)])
    assert code == 0
    out = tmp_path / "out"
    records = records_from_json((out / "records.ndjson").read_text("utf-8"))
    assert len(records) == 2
    by_case = {r.unit_id.split(":")[0]: r for r in records}
    levy = by_case["2008-07-636"]
    adams = by_case["2013-12-820"]
    assert (levy.t, levy.m["hedging"], levy.m["disfluency"], levy.y) == (0, 1, 0, 0)
    assert (adams.t, adams.m["hedging"], adams.m["disfluency"], adams.y) == (1, 1, 1, 1)
    report_text = (out / "report.txt").read_text("utf-8")
    assert "hedging" in report_text and "disfluency" in report_text
    assert INTERPRETATION_CAVEAT in report_text
    warnings = json.loads((out / "warnings.json").read_text("utf-8"))
    assert warnings["n_advocate_utterances"] == 2
    assert warnings["n_records"] == 2
    assert warnings["excluded_units"] == {}
    assert warnings["clamped_intervals"] == {"hedging": 0, "disfluency": 0}
    effects_header = (out / "effects.csv").read_text("utf-8").splitlines()[0]
    assert effects_header.endswith(",n_dropped_replicates,n_clamped_intervals")
    assert (
        warnings["n_records"] + sum(warnings["excluded_units"].values())
        == warnings["n_advocate_utterances"]
    )


def test_run_twice_is_byte_identical(tmp_path, paired_transcript_path, paired_meta_path):
    config_path, config = write_config(tmp_path, paired_transcript_path, paired_meta_path)
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "b")]) == 0
    a = read_artifacts(tmp_path / "a")
    b = read_artifacts(tmp_path / "b")
    assert a == b


def test_manifest_rerun_reproduces_artifacts(tmp_path, paired_transcript_path, paired_meta_path):
    config_path, _ = write_config(tmp_path, paired_transcript_path, paired_meta_path)
    assert main(["run", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    original = read_artifacts(out)
    assert main(["run", "--manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "again")]) == 0
    again = read_artifacts(tmp_path / "again")
    assert original == again
    rerun_manifest = json.loads((tmp_path / "again" / "manifest.json").read_text("utf-8"))
    assert rerun_manifest["artifacts"] == manifest["artifacts"]


# -- stage commands ---------------------------------------------------------------


def test_ingest_then_measure_then_estimate(tmp_path, paired_transcript_path, paired_meta_path):
    units_path = tmp_path / "units.ndjson"
    assert main([
        "ingest", "--transcripts", str(paired_transcript_path),
        "--meta", str(paired_meta_path), "--out", str(units_path),
    ]) == 0
    assert units_path.exists()

    records_path = tmp_path / "records.ndjson"
    assert main([
        "measure", "--units", str(units_path),
        "--transcripts", str(paired_transcript_path),
        "--seed", "3", "--folds", "2", "--out", str(records_path),
    ]) == 0
    records = records_from_json(records_path.read_text("utf-8"))
    assert len(records) == 2

    fit_dir = tmp_path / "fit"
    assert main(["fit", "--records", str(records_path), "--out", str(fit_dir)]) == 0
    header = (fit_dir / "mediator_tables.csv").read_text("utf-8").splitlines()[0]
    assert header.startswith("fold,mediator,m,t,")

    est_dir = tmp_path / "est"
    assert main([
        "estimate", "--records", str(records_path), "--mediators", "hedging,disfluency",
        "--bootstrap", "0", "--out", str(est_dir),
    ]) == 0
    effects = (est_dir / "effects.ndjson").read_text("utf-8").splitlines()
    assert len(effects) == 2
    plot = (est_dir / "plot_data.csv").read_text("utf-8").splitlines()
    assert plot[0] == "mediator,effect,value,lower,upper"
    assert len(plot) == 5  # header + 2 mediators * 2 effects

    # the rendered report is exactly the report of the emitted estimates
    from medlang.mediation import EffectEstimate

    parsed = []
    for line in effects:
        obj = json.loads(line)
        parsed.append(
            EffectEstimate(
                mediator_name=obj["mediator"],
                nde=obj["nde"],
                nie=obj["nie"],
                nie_reversed=obj["nie_reversed"],
                total_effect=obj["total_effect"],
                ci_level=obj["ci_level"],
                nde_ci=tuple(obj["nde_ci"]),
                nie_ci=tuple(obj["nie_ci"]),
                n_units=obj["n_units"],
                n_bootstrap=obj["n_bootstrap"],
                n_dropped_replicates=obj["n_dropped_replicates"],
            )
        )
    assert report(parsed) == (est_dir / "report.txt").read_text("utf-8")


def test_simulate_render_then_pipeline_matches_records(tmp_path):
    sim_dir = tmp_path / "sim"
    assert main([
        "simulate", "--fixture", "two_mediator_scm", "--n", "240", "--seed", "5",
        "--render", "--out", str(sim_dir),
    ]) == 0
    sim_records = records_from_json((sim_dir / "records.ndjson").read_text("utf-8"))
    oracle = json.loads((sim_dir / "oracle.json").read_text("utf-8"))
    assert set(oracle) == {"hedging", "disfluency"}

    units_path = tmp_path / "units.ndjson"
    assert main([
        "ingest", "--transcripts", str(sim_dir / "transcripts.ndjson"),
        "--meta", str(sim_dir / "meta.ndjson"), "--out", str(units_path),
    ]) == 0
    records_path = tmp_path / "records.ndjson"
    assert main([
        "measure", "--units", str(units_path),
        "--transcripts", str(sim_dir / "transcripts.ndjson"),
        "--seed", "5", "--folds", "2", "--confounders", "x0",
        "--out", str(records_path),
    ]) == 0
    measured = records_from_json(records_path.read_text("utf-8"))
    assert sorted(measured, key=lambda r: r.unit_id) == sorted(
        sim_records, key=lambda r: r.unit_id
    )


def test_measure_with_topics_then_estimate_all_three(tmp_path):
    sim_dir = tmp_path / "sim"
    assert main([
        "simulate", "--fixture", "two_mediator_scm", "--n", "160", "--seed", "8",
        "--render", "--out", str(sim_dir),
    ]) == 0
    units_path = tmp_path / "units.ndjson"
    assert main([
        "ingest", "--transcripts", str(sim_dir / "transcripts.ndjson"),
        "--meta", str(sim_dir / "meta.ndjson"), "--out", str(units_path),
    ]) == 0
    records_path = tmp_path / "records.ndjson"
    assert main([
        "measure", "--units", str(units_path),
        "--transcripts", str(sim_dir / "transcripts.ndjson"),
        "--seed", "8", "--topics", "2", "--topic-sweeps", "20", "--topic-burn-in", "10",
        "--confounders", "x0", "--out", str(records_path),
    ]) == 0
    records = records_from_json(records_path.read_text("utf-8"))
    assert all("topic" in r.m for r in records)
    est_dir = tmp_path / "est"
    assert main([
        "estimate", "--records", str(records_path),
        "--mediators", "hedging,disfluency,topic",
        "--bootstrap", "0", "--out", str(est_dir),
    ]) == 0
    effects = (est_dir / "effects.ndjson").read_text("utf-8").splitlines()
    assert len(effects) == 3


def test_custom_lexicon_changes_hedging_labels(
    tmp_path, paired_transcript_path, paired_meta_path
):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("# no deference phrases from the corpus\nallegedly\n", "utf-8")
    config_path, _ = write_config(
        tmp_path, paired_transcript_path, paired_meta_path, lexicon=str(lexicon)
    )
    assert main(["run", "--config", str(config_path)]) == 0
    records = records_from_json((tmp_path / "out" / "records.ndjson").read_text("utf-8"))
    assert all(r.m["hedging"] == 0 for r in records)


def _latin1_lexicon(tmp_path) -> Path:
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_bytes("peut-être\n".encode("latin-1"))
    return lexicon


def test_non_utf8_lexicon_in_run_config_exits_2(
    tmp_path, capsys, paired_transcript_path, paired_meta_path
):
    lexicon = _latin1_lexicon(tmp_path)
    config_path, _ = write_config(
        tmp_path, paired_transcript_path, paired_meta_path, lexicon=str(lexicon)
    )
    assert main(["run", "--config", str(config_path)]) == 2
    assert f"malformed lexicon file {lexicon}: not UTF-8 text" in capsys.readouterr().err


def test_non_utf8_lexicon_on_measure_exits_2(
    tmp_path, capsys, paired_transcript_path, paired_meta_path
):
    lexicon = _latin1_lexicon(tmp_path)
    units_path = tmp_path / "units.ndjson"
    assert main(["ingest", "--transcripts", str(paired_transcript_path),
                 "--meta", str(paired_meta_path), "--out", str(units_path)]) == 0
    assert main(["measure", "--units", str(units_path),
                 "--transcripts", str(paired_transcript_path), "--lexicon", str(lexicon),
                 "--out", str(tmp_path / "records.ndjson")]) == 2
    assert f"malformed lexicon file {lexicon}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "records.ndjson").exists()


def test_simulate_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--fixture", "binary_scm", "--n", "10", "--seed", "-3",
                 "--out", str(out)]) == 2
    assert "seed must be non-negative, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_study_command_writes_csv(tmp_path):
    out = tmp_path / "study.csv"
    assert main([
        "study", "--fixture", "two_mediator_scm", "--knob", "mediator_coupling",
        "--grid", "0,1.6", "--n", "4000", "--seed", "3", "--out", str(out),
    ]) == 0
    lines = out.read_text("utf-8").splitlines()
    assert lines[0].startswith("knob,magnitude,mediator,")
    assert len(lines) == 1 + 2 * 2  # grid points * mediators


def test_report_command_header_only_for_empty_estimates(tmp_path, capsys):
    estimates = tmp_path / "effects.ndjson"
    estimates.write_text("", encoding="utf-8")
    assert main(["report", "--estimates", str(estimates)]) == 0
    captured = capsys.readouterr().out
    assert "natural direct and indirect effect estimates" in captured
    assert INTERPRETATION_CAVEAT in captured


def test_report_rows_sorted_by_mediator(tmp_path):
    from medlang.mediation import EffectEstimate

    estimates = [
        EffectEstimate("topic", 0.1, 0.0, 0.0, 0.1, 0.9, (0.1, 0.1), (0.0, 0.0), 5, 0),
        EffectEstimate("hedging", 0.2, 0.0, 0.0, 0.2, 0.9, (0.2, 0.2), (0.0, 0.0), 5, 0),
    ]
    text = report(estimates)
    assert text.index("hedging") < text.index("topic")


# -- error handling ------------------------------------------------------------------


def test_missing_transcripts_is_config_error(tmp_path):
    config_path, _ = write_config(tmp_path, tmp_path / "nope.ndjson")
    assert main(["run", "--config", str(config_path)]) == 2


def test_malformed_transcript_is_data_error(tmp_path):
    bad = tmp_path / "bad.ndjson"
    bad.write_text("{not json\n", encoding="utf-8")
    config_path, _ = write_config(tmp_path, bad)
    assert main(["run", "--config", str(config_path)]) == 3


def test_unknown_requested_mediator_is_config_error(
    tmp_path, paired_transcript_path, paired_meta_path
):
    config_path, _ = write_config(
        tmp_path, paired_transcript_path, paired_meta_path, mediators=["topic"]
    )
    assert main(["run", "--config", str(config_path)]) == 2


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(transcripts="x", out="y", folds=1).validate()
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"transcripts": "x", "out": "y", "mystery": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"out": "y"})


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("folds", "2", "'folds' must be an integer, got str"),
        ("folds", True, "'folds' must be an integer, got bool"),
        ("ci", False, "'ci' must be a number, got bool"),
        ("mediators", "hedging", "'mediators' must be a list of strings, got str"),
        ("mediators", ["hedging", 1], "'mediators' must be a list of strings"),
        ("confounders", "x0", "'confounders' must be a list of strings or null"),
        ("strict_marker", 1, "'strict_marker' must be true or false, got int"),
        ("meta", 5, "'meta' must be a string or null, got int"),
    ],
)
def test_config_value_types(key, value, reason):
    with pytest.raises(ConfigError, match=reason):
        RunConfig.from_dict({"transcripts": "x", "out": "y", key: value})


def test_config_accepts_nulls_and_lists():
    config = RunConfig.from_dict({"transcripts": "x", "out": "y", "meta": None, "topics": None,
                                  "mediators": ["hedging"], "confounders": ["x0"], "ci": 1})
    assert config.mediators == ("hedging",) and config.confounders == ("x0",)
    assert config.meta is None and config.topics is None


def test_config_value_type_error_exits_2(tmp_path, capsys, paired_transcript_path,
                                         paired_meta_path):
    config_path, _ = write_config(tmp_path, paired_transcript_path, paired_meta_path,
                                  mediators="hedging")
    assert main(["run", "--config", str(config_path)]) == 2
    assert "'mediators' must be a list of strings" in capsys.readouterr().err


BAD_TOPIC_PRIORS = [("topic_beta", -1), ("topic_alpha", -0.5), ("topic_beta", 0),
                    ("topic_alpha", float("nan")), ("topic_beta", float("inf"))]


@pytest.mark.parametrize("key, value", BAD_TOPIC_PRIORS)
def test_bad_topic_prior_in_config_exits_2(tmp_path, capsys, paired_transcript_path,
                                           paired_meta_path, key, value):
    config_path, _ = write_config(tmp_path, paired_transcript_path, paired_meta_path,
                                  topics=2, **{key: value})
    assert main(["run", "--config", str(config_path)]) == 2
    assert f"{key.replace('_', ' ')} must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", BAD_TOPIC_PRIORS)
def test_bad_topic_prior_on_measure_exits_2(tmp_path, capsys, paired_transcript_path,
                                            paired_meta_path, key, value):
    units_path = tmp_path / "units.ndjson"
    assert main(["ingest", "--transcripts", str(paired_transcript_path),
                 "--meta", str(paired_meta_path), "--out", str(units_path)]) == 0
    assert main(["measure", "--units", str(units_path),
                 "--transcripts", str(paired_transcript_path), "--topics", "2",
                 "--" + key.replace("_", "-"), str(value),
                 "--out", str(tmp_path / "records.ndjson")]) == 2
    assert f"{key.replace('_', ' ')} must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "records.ndjson").exists()


def test_topic_run_twice_writes_identical_checksums(tmp_path):
    sim_dir = tmp_path / "sim"
    assert main([
        "simulate", "--fixture", "two_mediator_scm", "--n", "160", "--seed", "8",
        "--render", "--out", str(sim_dir),
    ]) == 0
    config = RunConfig(transcripts=str(sim_dir / "transcripts.ndjson"),
                       meta=str(sim_dir / "meta.ndjson"), out=str(tmp_path / "a"), seed=8,
                       bootstrap=100, mediators=("hedging", "disfluency", "topic"),
                       confounders=("x0",), topics=2, topic_sweeps=20, topic_burn_in=10)
    first = run_pipeline(config)
    second = run_pipeline(replace(config, out=str(tmp_path / "b")))
    assert "records.ndjson" in first["artifacts"]
    assert first["artifacts"] == second["artifacts"]
    records = records_from_json((tmp_path / "a" / "records.ndjson").read_text("utf-8"))
    assert {r.m["topic"] for r in records} <= {0, 1, 2}


def test_run_requires_config_or_manifest():
    assert main(["run"]) == 2


@pytest.mark.parametrize(
    "flag, text, reason",
    [
        ("--manifest", "{not json", "malformed manifest file"),
        ("--manifest", "[1, 2]", "is not a JSON object"),
        ("--manifest", '{"config": 5}', "has no config object"),
        ("--manifest", "{}", "has no config object"),
        ("--manifest", "[" * 100_000, "nested too deeply"),
        ("--config", "{not json", "malformed config file"),
        ("--config", "5", "is not a JSON object"),
        ("--config", "[" * 100_000, "nested too deeply"),
        ("--config", b'{"out": "\xff"}', "not UTF-8 text"),
    ],
    ids=["manifest-non-json", "manifest-non-object", "manifest-config-not-object",
         "manifest-without-config", "manifest-deeply-nested", "config-non-json",
         "config-non-object", "config-deeply-nested", "config-non-utf8"],
)
def test_malformed_run_input_file_is_config_error(tmp_path, capsys, flag, text, reason):
    path = tmp_path / "input.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert main(["run", flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert reason in err and str(path) in err


@pytest.mark.parametrize(
    "command",
    [["simulate", "--n", "10"], ["study", "--knob", "unmeasured_confounder", "--grid", "0"]],
    ids=["simulate", "study"],
)
def test_deeply_nested_spec_is_data_error(tmp_path, capsys, command):
    spec = tmp_path / "spec.json"
    spec.write_text("[" * 100_000, encoding="utf-8")
    assert main([*command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 3
    assert "nested too deeply" in capsys.readouterr().err


def _fixture_spec_with_string_intercept() -> bytes:
    from medlang.scm import load_fixture

    obj = json.loads(load_fixture("binary_scm").to_json())
    obj["treatment"]["intercept"] = "a"
    return json.dumps(obj).encode("utf-8")


@pytest.mark.parametrize(
    "command",
    [["simulate", "--n", "10"], ["study", "--knob", "unmeasured_confounder", "--grid", "0"]],
    ids=["simulate", "study"],
)
@pytest.mark.parametrize(
    "text, reason",
    [
        (b"[]", "spec must be an object, got list"),
        (b'{"confounders": {}}', "spec has no key 'treatment'"),
        (_fixture_spec_with_string_intercept(), "spec.treatment.intercept must be a number"),
        (b'{"seed": "\xff"}', "not UTF-8 text"),
    ],
    ids=["not-an-object", "missing-key", "string-number", "non-utf8"],
)
def test_malformed_spec_is_data_error(tmp_path, capsys, command, text, reason):
    spec = tmp_path / "spec.json"
    spec.write_bytes(text)
    assert main([*command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 3
    assert reason in capsys.readouterr().err


def test_simulate_render_rejects_a_three_level_mediator_with_exit_2(tmp_path, capsys):
    from medlang.scm import load_fixture

    obj = json.loads(load_fixture("binary_scm").to_json())
    hedging = obj["mediators"][0]
    hedging.update(levels=3, intercepts=[-0.4, 0.2], treatment=[0.9, -0.4],
                   confounders={"x0": [[0.0, 0.6], [0.0, -0.3]]})
    obj["outcome"].update(mediators={"hedging": [0.0, 0.9, 0.5]},
                          tm_interactions={"hedging": [0.0, -0.5, 0.2]})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    command = ["simulate", "--spec", str(spec), "--n", "50", "--out", str(tmp_path / "out")]
    assert main([*command, "--render"]) == 2
    assert "2 levels" in capsys.readouterr().err
    assert not (tmp_path / "out" / "transcripts.ndjson").exists()
    assert main(command) == 0


def test_report_rejects_malformed_lines_with_exit_3(tmp_path, capsys):
    est = EffectEstimate(
        mediator_name="hedging", nde=0.1, nie=0.05, nie_reversed=0.05, total_effect=0.15,
        ci_level=0.9, nde_ci=(0.0, 0.2), nie_ci=(0.0, 0.1), n_units=10, n_bootstrap=0,
    )
    good = est.to_json()
    lacking = json.dumps({k: v for k, v in est.to_dict().items() if k != "nie_ci"})
    for bad_line, reason in (("{not json", "not a JSON line"), (lacking, "nie_ci"),
                             ("[1, 2]", "JSON object")):
        estimates = tmp_path / "effects.ndjson"
        estimates.write_text(good + "\n" + bad_line + "\n", encoding="utf-8")
        assert main(["report", "--estimates", str(estimates)]) == 3
        err = capsys.readouterr().err
        assert "line 2" in err and reason in err
    estimates.write_text(good + "\n", encoding="utf-8")
    assert main(["report", "--estimates", str(estimates)]) == 0
    assert "hedging" in capsys.readouterr().out


def test_report_rejects_mixed_interval_levels(tmp_path, capsys):
    est = EffectEstimate(
        mediator_name="hedging", nde=0.1, nie=0.05, nie_reversed=0.05, total_effect=0.15,
        ci_level=0.9, nde_ci=(0.0, 0.2), nie_ci=(0.0, 0.1), n_units=10, n_bootstrap=0,
    )
    other = replace(est, mediator_name="topic", ci_level=0.95)
    estimates = tmp_path / "effects.ndjson"
    estimates.write_text(est.to_json() + "\n" + other.to_json() + "\n", encoding="utf-8")
    assert main(["report", "--estimates", str(estimates)]) == 3
    assert "mix interval levels" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "fit"])
@pytest.mark.parametrize(
    "bad_line",
    ["{not json", json.dumps({"unit_id": "u1", "t": 1, "m": {"hedging": 0}, "y": 0, "fold": 0}),
     record_to_json(CausalRecord(unit_id="u0", t=1, x={"x0": "0"}, m={"hedging": 0}, y=0,
                                 fold=1))],
    ids=["non-json", "missing-x", "duplicate-unit-id"],
)
def test_malformed_records_file_is_data_error(tmp_path, capsys, command, bad_line):
    good = CausalRecord(unit_id="u0", t=0, x={"x0": "0"}, m={"hedging": 1}, y=1, fold=0)
    records = tmp_path / "records.ndjson"
    records.write_text(record_to_json(good) + "\n" + bad_line + "\n", encoding="utf-8")
    assert main([command, "--records", str(records), "--out", str(tmp_path / "out")]) == 3
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, line",
    [
        ("--transcripts", '{"case_id": "c", "index": 0, "speaker_id": "s", '
                          '"speaker_role": "advocate", "text": "I think so \\ud800"}'),
        ("--meta", '{"case_id": "c", "issue_area": "\\udc00"}'),
        ("--records", '{"fold": 0, "m": {"hedging": 1}, "t": 0, "unit_id": "u0", '
                      '"x": {"x0": "\\udc00"}, "y": 1}'),
    ],
    ids=["ingest", "ingest-meta", "fit"],
)
def test_lone_surrogate_input_exits_3(tmp_path, capsys, paired_transcript_path, flag, line):
    bad = tmp_path / "bad.ndjson"
    bad.write_text(line + "\n", encoding="utf-8")
    units = str(tmp_path / "out" / "units.ndjson")
    args = {
        "--transcripts": ["ingest", "--transcripts", str(bad), "--out", units],
        "--meta": ["ingest", "--transcripts", str(paired_transcript_path), "--meta", str(bad),
                   "--out", units],
        "--records": ["fit", "--records", str(bad), "--out", str(tmp_path / "out")],
    }[flag]
    assert main(args) == 3
    assert "line 1: malformed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_study_non_numeric_grid_exits_2(tmp_path, capsys):
    out = tmp_path / "study.csv"
    assert main(["study", "--fixture", "binary_scm", "--knob", "mediator_coupling",
                 "--grid", "abc", "--out", str(out)]) == 2
    assert "magnitude grid 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_records_file_is_parse_error(tmp_path, capsys):
    good = CausalRecord(unit_id="u0", t=0, x={"x0": "0"}, m={"hedging": 1}, y=1, fold=0)
    records = tmp_path / "records.ndjson"
    records.write_bytes(record_to_json(good).encode("utf-8") + b"\n\xff\xfe\n")
    assert main(["estimate", "--records", str(records), "--out", str(tmp_path / "out")]) == 3
    assert "line 2: not UTF-8 text" in capsys.readouterr().err


# -- one fit per mediator, one writer per bundle ---------------------------------------


def _simulated_run(tmp_path, confounders=("x0",)) -> Path:
    """Run the pipeline with 100 replicates on a rendered 300-unit two-mediator corpus."""
    sim_dir = tmp_path / "sim"
    assert main([
        "simulate", "--fixture", "two_mediator_scm", "--n", "300", "--seed", "6",
        "--render", "--out", str(sim_dir),
    ]) == 0
    config_path, _ = write_config(
        tmp_path, sim_dir / "transcripts.ndjson", sim_dir / "meta.ndjson",
        bootstrap=100, confounders=list(confounders),
    )
    assert main(["run", "--config", str(config_path)]) == 0
    return tmp_path / "out"


def test_run_fits_each_model_once(tmp_path, paired_transcript_path, paired_meta_path, caplog):
    _, config = write_config(tmp_path, paired_transcript_path, paired_meta_path)
    with caplog.at_level(logging.INFO, logger="medlang"):
        run_pipeline(RunConfig.from_dict(config))
    fills = Counter(
        re.match(r"(\w+) model for '(\w+)', fold (\d+): ", r.getMessage()).groups()
        for r in caplog.records
        if "empty cells filled" in r.getMessage()
    )
    # every fold of every model has empty cells on the two-record corpus
    assert set(fills) == {
        (model, name, fold)
        for model in ("mediator", "outcome")
        for name in ("hedging", "disfluency")
        for fold in ("0", "1")
    }
    assert set(fills.values()) == {1}


@pytest.mark.parametrize(
    "confounders", [("x0",), ("x0", "prior_interruption_bucket")],
    ids=["x0", "x0-prior_interruption_bucket"],
)
def test_estimate_and_fit_on_run_records_reproduce_the_run(tmp_path, confounders):
    run_dir = _simulated_run(tmp_path, confounders)
    records = str(run_dir / "records.ndjson")
    assert main([
        "estimate", "--records", records, "--mediators", "hedging,disfluency",
        "--seed", "7", "--bootstrap", "100", "--ci", "0.9", "--out", str(tmp_path / "est"),
    ]) == 0
    assert main([
        "fit", "--records", records, "--mediators", "hedging,disfluency",
        "--out", str(tmp_path / "fit"),
    ]) == 0
    for name in ("effects.csv", "effects.ndjson", "plot_data.csv", "report.txt"):
        assert (tmp_path / "est" / name).read_bytes() == (run_dir / name).read_bytes(), name
    for name in ("mediator_tables.csv", "outcome_tables.csv"):
        assert (tmp_path / "fit" / name).read_bytes() == (run_dir / name).read_bytes(), name


@pytest.mark.parametrize("ci, label", [("0.9", "90%"), ("0.95", "95%"), ("0.975", "97.5%")])
def test_report_header_names_the_interval_level(tmp_path, ci, label):
    sim_dir = tmp_path / "sim"
    assert main([
        "simulate", "--fixture", "binary_scm", "--n", "200", "--seed", "1", "--out", str(sim_dir),
    ]) == 0
    assert main([
        "estimate", "--records", str(sim_dir / "records.ndjson"), "--bootstrap", "0",
        "--ci", ci, "--out", str(tmp_path / "est"),
    ]) == 0
    header = (tmp_path / "est" / "report.txt").read_text("utf-8").splitlines()[2]
    assert f"nde {label} ci" in header and f"nie {label} ci" in header
