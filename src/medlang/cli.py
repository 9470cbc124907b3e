"""Pipeline orchestration: ingest -> measure -> fit -> estimate -> report.

Every run is driven by one root seed, split deterministically per stage,
and writes a manifest (config plus artifact checksums) from which the run
can be reproduced byte-exactly. Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

from . import glm, mediation, scm
# record_to_json and unit_to_json stay importable from here: bench/tracer.py
# wraps these names.
from .corpus import (  # noqa: F401
    Transcript,
    _iter_objects,
    extract_units,
    lone_surrogate,
    parse_case_metadata,
    parse_transcript,
    unit_to_json,
    units_from_json,
    write_units,
)
from .errors import ConfigError, DataError, MedlangError, ParseError
from .measure import (  # noqa: F401
    BuildResult,
    MeasurementSpec,
    build_records,
    default_hedging_lexicon,
    load_lexicon,
    record_to_json,
    records_from_json,
    write_records,
)
from .mediation import EffectEstimate, EstimatorConfig, INTERPRETATION_CAVEAT, estimate_all
from .seeding import assign_folds, derive_seed
from .topics import check_priors, fit_topic_model

logger = logging.getLogger("medlang")

ARTIFACTS = (
    "units.ndjson",
    "records.ndjson",
    "mediator_tables.csv",
    "outcome_tables.csv",
    "effects.ndjson",
    "effects.csv",
    "plot_data.csv",
    "report.txt",
    "warnings.json",
)


#: JSON value types accepted for each RunConfig field annotation; a bool is
#: accepted only where the field is a bool.
_CONFIG_JSON_TYPES = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "tuple[str, ...]": (list, "a list of strings"),
}


@dataclass
class RunConfig:
    """Configuration of a full pipeline run."""

    transcripts: str
    out: str
    meta: str | None = None
    lexicon: str | None = None
    seed: int = 0
    folds: int = 2
    bootstrap: int = 1000
    ci: float = 0.90
    mediators: tuple[str, ...] = ("hedging", "disfluency")
    confounders: tuple[str, ...] | None = None
    topics: int | None = None
    topic_alpha: float = 0.1
    topic_beta: float = 0.01
    topic_sweeps: int = 1000
    topic_burn_in: int = 500
    strict_marker: bool = False
    x_marginal: bool = False

    def validate(self) -> None:
        for label, path in (("transcripts", self.transcripts), ("meta", self.meta),
                            ("lexicon", self.lexicon)):
            if path is not None and not Path(path).exists():
                raise ConfigError(f"{label} path does not exist: {path}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        mediation.validate_settings(self.bootstrap, self.ci, self.x_weighting)
        if self.topics is not None and self.topics < 2:
            raise ConfigError(f"topics must be >= 2, got {self.topics}")
        check_priors(self.topic_alpha, self.topic_beta)
        if not self.mediators:
            raise ConfigError("at least one mediator must be requested")
        for key in ("mediators", "confounders"):
            names = getattr(self, key) or ()
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ConfigError(f"{key} must not repeat a name; repeated: {repeated}")

    @property
    def x_weighting(self) -> str:
        return "marginal" if self.x_marginal else "unit"

    def to_dict(self) -> dict:
        data = asdict(self)
        data["mediators"] = list(self.mediators)
        data["confounders"] = list(self.confounders) if self.confounders else None
        return data

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        if "transcripts" not in obj or "out" not in obj:
            raise ConfigError("config must set transcripts and out")
        data = {}
        for key, value in obj.items():
            # Field annotations are strings here; "| None" also admits null.
            hint = cls.__dataclass_fields__[key].type
            kind, nullable = hint.removesuffix(" | None"), hint.endswith(" | None")
            types, expected = _CONFIG_JSON_TYPES[kind]
            if value is not None or not nullable:
                if (not isinstance(value, types) or isinstance(value, bool) != (kind == "bool")
                        or isinstance(value, list) and not all(isinstance(v, str) for v in value)):
                    expected += " or null" if nullable else ""
                    raise ConfigError(f"config key {key!r} must be {expected}, "
                                      f"got {type(value).__name__}")
            data[key] = tuple(value) if isinstance(value, list) else value
        return cls(**data)


def _open(path, mode: str = "rb"):
    try:
        return open(path, mode, **({} if "b" in mode else {"encoding": "utf-8"}))
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc.strerror}") from exc


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_with(path: Path, writer, items) -> None:
    """Write ``items`` to the UTF-8 file at ``path`` with a stream writer such as write_units."""
    with open(path, "w", encoding="utf-8") as fh:
        writer(items, fh)


def _fit_topic_model_for_units(units, config: RunConfig):
    """Fit the topic measurement model on the training split and freeze it.

    The split is the complement of fold 0 under a seed derived from the run
    seed, so the model never trains on the fold it will be scored against
    first. The training texts go to the sampler in unit_id order, so the
    model does not depend on the order of the input cases.
    """
    fold_map = assign_folds(
        [u.unit_id for u in units], config.folds, derive_seed(config.seed, "topic-split")
    )
    train_texts = [u.p1_utterance.text for u in sorted(units, key=lambda u: u.unit_id)
                   if fold_map[u.unit_id] != 0]
    return fit_topic_model(
        train_texts,
        config.topics,
        derive_seed(config.seed, "topic-model"),
        alpha=config.topic_alpha,
        beta=config.topic_beta,
        n_sweeps=config.topic_sweeps,
        burn_in=config.topic_burn_in,
    )


def measure_units(units, transcript: Transcript, config: RunConfig) -> BuildResult:
    """Measure ``units`` into records; the honorific scan reads ``transcript``'s cases."""
    if config.lexicon:
        with _open(config.lexicon, "r") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(
                    f"malformed lexicon file {config.lexicon}: not UTF-8 text") from exc
        lexicon = load_lexicon(text)
    else:
        lexicon = default_hedging_lexicon()
    topic_model = _fit_topic_model_for_units(units, config) if config.topics else None
    spec = MeasurementSpec(
        hedging_lexicon=lexicon,
        topic_model=topic_model,
        strict_interruption_marker=config.strict_marker,
    )
    return build_records(
        units,
        spec,
        config.folds,
        case_utterances=transcript.cases,
        seed=derive_seed(config.seed, "folds"),
        confounders=config.confounders,
    )


def write_effects_csv(estimates: Sequence[EffectEstimate], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        [
            "mediator", "nde", "nde_lo", "nde_hi", "nie", "nie_lo", "nie_hi",
            "nie_reversed", "total_effect", "ci_level", "n_units", "n_bootstrap",
            "n_dropped_replicates", "n_clamped_intervals",
        ]
    )
    for est in estimates:
        writer.writerow(
            [
                est.mediator_name,
                repr(est.nde), repr(est.nde_ci[0]), repr(est.nde_ci[1]),
                repr(est.nie), repr(est.nie_ci[0]), repr(est.nie_ci[1]),
                repr(est.nie_reversed), repr(est.total_effect), repr(est.ci_level),
                est.n_units, est.n_bootstrap, est.n_dropped_replicates,
                est.n_clamped_intervals,
            ]
        )


def write_plot_data_csv(estimates: Sequence[EffectEstimate], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["mediator", "effect", "value", "lower", "upper"])
    for est in estimates:
        writer.writerow(["%s" % est.mediator_name, "nde", repr(est.nde),
                         repr(est.nde_ci[0]), repr(est.nde_ci[1])])
        writer.writerow(["%s" % est.mediator_name, "nie", repr(est.nie),
                         repr(est.nie_ci[0]), repr(est.nie_ci[1])])


def report(estimates: Sequence[EffectEstimate]) -> str:
    """Human-readable per-mediator summary, sorted by mediator name.

    The interval columns are headed by the estimates' common level; raises
    DataError if the estimates carry different levels.
    """
    levels = sorted({est.ci_level for est in estimates})
    if len(levels) > 1:
        raise DataError(f"estimates mix interval levels {levels}")
    ci = f"{(levels[0] if levels else EstimatorConfig.ci_level) * 100:g}% ci"
    lines = []
    lines.append("natural direct and indirect effect estimates")
    lines.append("=" * 44)
    header = (
        f"{'mediator':<14} {'nde':>9} {'nde ' + ci:>22} {'nie':>9} "
        f"{'nie ' + ci:>22} {'nie_rev':>9} {'total':>9} {'n':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for est in sorted(estimates, key=lambda e: e.mediator_name):
        lines.append(
            f"{est.mediator_name:<14} {est.nde:>9.6f} "
            f"[{est.nde_ci[0]:>9.6f}, {est.nde_ci[1]:>9.6f}] {est.nie:>9.6f} "
            f"[{est.nie_ci[0]:>9.6f}, {est.nie_ci[1]:>9.6f}] "
            f"{est.nie_reversed:>9.6f} {est.total_effect:>9.6f} {est.n_units:>7d}"
        )
    lines.append("")
    lines.append(f"caveat: {INTERPRETATION_CAVEAT}")
    lines.append("")
    return "\n".join(lines)


def write_tables(out: Path, models: Sequence[tuple]) -> None:
    """Write mediator_tables.csv and outcome_tables.csv for fitted (g, f) pairs."""
    with open(out / "mediator_tables.csv", "w", encoding="utf-8") as fh:
        glm.write_mediator_table_csv([g for g, _ in models], fh)
    with open(out / "outcome_tables.csv", "w", encoding="utf-8") as fh:
        glm.write_outcome_table_csv([f for _, f in models], fh)


def write_estimates(out: Path, estimates: Sequence[EffectEstimate]) -> str:
    """Write effects.ndjson, effects.csv, plot_data.csv and report.txt; return the report."""
    _write_text(out / "effects.ndjson", "".join(e.to_json() + "\n" for e in estimates))
    with open(out / "effects.csv", "w", encoding="utf-8") as fh:
        write_effects_csv(estimates, fh)
    with open(out / "plot_data.csv", "w", encoding="utf-8") as fh:
        write_plot_data_csv(estimates, fh)
    text = report(estimates)
    _write_text(out / "report.txt", text)
    return text


def run_pipeline(config: RunConfig) -> dict:
    """Execute all stages and write the report bundle plus a run manifest."""
    config.validate()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    with _open(config.transcripts) as fh:
        utterances = parse_transcript(fh)
    meta = None
    if config.meta:
        with _open(config.meta) as fh:
            meta = parse_case_metadata(fh)
    units = extract_units(utterances, meta, strict_marker=config.strict_marker)
    _write_with(out / "units.ndjson", write_units, units)

    build = measure_units(units, utterances, config)
    _write_with(out / "records.ndjson", write_records, build.records)
    known = build.records.domains.mediator_sizes
    missing = [m for m in config.mediators if m not in known]
    if missing:
        raise ConfigError(
            f"requested mediators {missing} were not measured; available: {sorted(known)}"
        )

    models = [mediation.fit_models(build.records, name) for name in config.mediators]
    write_tables(out, models)
    estimates = estimate_all(
        build.records,
        models,
        EstimatorConfig(
            n_bootstrap=config.bootstrap,
            seed=derive_seed(config.seed, "estimate"),
            ci_level=config.ci,
            x_weighting=config.x_weighting,
        ),
    )
    write_estimates(out, estimates)

    warnings = {
        "n_advocate_utterances": len(units),  # one unit per advocate utterance
        "n_units": len(units),
        "n_records": len(build.records),
        "excluded_units": build.exclusion_counts(),
        "smoothed_cells": {
            "mediator_model": {
                g.mediator_name: sum(len(d.smoothed_cells) for d in g.diagnostics)
                for g, _ in models
            },
            "outcome_model": {
                f.mediator_name: sum(len(d.smoothed_cells) for d in f.diagnostics)
                for _, f in models
            },
        },
        "dropped_bootstrap_replicates": {
            e.mediator_name: e.n_dropped_replicates for e in estimates
        },
        "clamped_intervals": {e.mediator_name: e.n_clamped_intervals for e in estimates},
    }
    _write_text(out / "warnings.json", json.dumps(warnings, indent=2, sort_keys=True) + "\n")

    manifest = {
        "config": config.to_dict(),
        "artifacts": {name: _sha256_file(out / name) for name in ARTIFACTS},
    }
    _write_text(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    logger.info("run complete: %d records, %d estimates", len(build.records), len(estimates))
    return manifest


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _split_csv_arg(value: str | None) -> tuple[str, ...] | None:
    if value is None:
        return None
    items = tuple(v.strip() for v in value.split(",") if v.strip())
    if not items:
        raise ConfigError(f"empty list argument: {value!r}")
    return items


def _load_records_file(path: str) -> glm.CodedRecords:
    """Read a records file over the domains its records show."""
    with _open(path) as fh:
        records = records_from_json(fh)
    if not len(records):
        raise DataError(f"no records in {path}")
    return records


def cmd_ingest(args) -> int:
    with _open(args.transcripts) as fh:
        utterances = parse_transcript(fh)
    meta = None
    if args.meta:
        with _open(args.meta) as fh:
            meta = parse_case_metadata(fh)
    units = extract_units(utterances, meta, strict_marker=args.strict_marker)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    _write_with(Path(args.out), write_units, units)
    print(f"wrote {len(units)} units to {args.out}")
    return 0


def cmd_measure(args) -> int:
    config = RunConfig(
        transcripts=args.transcripts,
        out=os.path.dirname(args.out) or ".",
        lexicon=args.lexicon,
        seed=args.seed,
        folds=args.folds,
        topics=args.topics,
        topic_alpha=args.topic_alpha,
        topic_beta=args.topic_beta,
        topic_sweeps=args.topic_sweeps,
        topic_burn_in=args.topic_burn_in,
        strict_marker=args.strict_marker,
        confounders=_split_csv_arg(args.confounders),
    )
    config.validate()
    with _open(args.units) as fh:
        units = units_from_json(fh)
    with _open(args.transcripts) as fh:
        utterances = parse_transcript(fh)
    build = measure_units(units, utterances, config)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    _write_with(Path(args.out), write_records, build.records)
    for reason, count in sorted(build.exclusion_counts().items()):
        print(f"excluded {count} units: {reason}", file=sys.stderr)
    print(f"wrote {len(build.records)} records to {args.out}")
    return 0


def cmd_fit(args) -> int:
    coded = _load_records_file(args.records)
    plan = None
    if args.folds is not None:
        plan = glm.make_plan(coded.unit_ids, args.folds, args.seed)
    mediators = _split_csv_arg(args.mediators) or tuple(coded.domains.mediator_sizes)
    models = [mediation.fit_models(coded, m, plan=plan) for m in mediators]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_tables(out, models)
    print(f"wrote fitted tables for {len(mediators)} mediators to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    coded = _load_records_file(args.records)
    mediators = _split_csv_arg(args.mediators) or tuple(coded.domains.mediator_sizes)
    estimates = estimate_all(
        coded,
        [mediation.fit_models(coded, m) for m in mediators],
        EstimatorConfig(
            n_bootstrap=args.bootstrap,
            seed=derive_seed(args.seed, "estimate"),
            ci_level=args.ci,
            x_weighting="marginal" if args.x_marginal else "unit",
        ),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(write_estimates(out, estimates))
    return 0


def _load_spec_arg(args) -> scm.ScmSpec:
    if getattr(args, "fixture", None):
        return scm.load_fixture(args.fixture)
    if not args.spec:
        raise ConfigError("provide --spec PATH or --fixture NAME")
    with _open(args.spec, "r") as fh:
        return scm.load_scm_spec(fh)


def cmd_simulate(args) -> int:
    spec = _load_spec_arg(args)
    result = scm.generate(
        spec,
        args.n,
        seed=args.seed,
        n_folds=args.folds,
        fold_seed=derive_seed(args.seed, "folds"),
        render=args.render,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_with(out / "records.ndjson", write_records, result.records)
    if args.render:
        _write_with(out / "transcripts.ndjson", scm.write_rendered_transcript, result)
        _write_with(out / "meta.ndjson", scm.write_rendered_metadata, result)
    oracle = {
        name: asdict(scm.exact_effects(spec, name)) for name in spec.mediator_names
    } if spec.assumption_clean else None
    _write_text(out / "oracle.json", json.dumps(oracle, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(result.records)} synthetic records to {args.out}")
    return 0


def cmd_study(args) -> int:
    spec = _load_spec_arg(args)
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"magnitude grid {args.grid!r} is not a comma-separated list of "
                          "numbers") from exc
    if not grid:
        raise ConfigError(f"empty magnitude grid: {args.grid!r}")
    rows = scm.violation_study(spec, args.knob, grid, args.n, args.seed, n_folds=args.folds)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["knob", "magnitude", "mediator", "nde_estimate", "nie_estimate",
             "nde_true", "nie_true", "nde_bias", "nie_bias"]
        )
        for row in rows:
            writer.writerow(
                [row.knob, repr(row.magnitude), row.mediator,
                 repr(row.nde_estimate), repr(row.nie_estimate),
                 repr(row.nde_true), repr(row.nie_true),
                 repr(row.nde_bias), repr(row.nie_bias)]
            )
    print(f"wrote violation study ({len(rows)} rows) to {args.out}")
    return 0


def _load_json_object(path: str, what: str) -> dict:
    """Read a whole-file JSON object; anything else is a ConfigError naming the file."""
    with _open(path, "r") as fh:
        try:
            obj = json.load(fh)
            surrogate = lone_surrogate(obj)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed {what} file {path}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"malformed {what} file {path}: not UTF-8 text") from exc
        except RecursionError as exc:
            raise ConfigError(f"malformed {what} file {path}: nested too deeply") from exc
    if surrogate:
        raise ConfigError(f"malformed {what} file {path}: lone surrogate {surrogate}")
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} file {path} is not a JSON object")
    return obj


def cmd_run(args) -> int:
    if args.manifest:
        manifest = _load_json_object(args.manifest, "manifest")
        if not isinstance(manifest.get("config"), dict):
            raise ConfigError(f"manifest file {args.manifest} has no config object")
        config = RunConfig.from_dict(manifest["config"])
    elif args.config:
        config = RunConfig.from_dict(_load_json_object(args.config, "config"))
    else:
        raise ConfigError("provide --config PATH or --manifest PATH")
    if args.out:
        config = replace(config, out=args.out)
    run_pipeline(config)
    print(f"run complete; outputs in {config.out}")
    return 0


def cmd_report(args) -> int:
    estimates, first_line = [], {}
    with _open(args.estimates) as fh:
        for line_number, obj in _iter_objects(fh, "estimate"):
            try:
                est = EffectEstimate.from_dict(obj)
            except DataError as exc:
                raise ParseError(str(exc), line_number) from exc
            name = est.mediator_name
            if first_line.setdefault(name, line_number) != line_number:
                raise ParseError(f"duplicate estimate for mediator {name!r}, first on line "
                                 f"{first_line[name]}", line_number)
            estimates.append(est)
    text = report(estimates)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _write_text(Path(args.out), text)
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medlang",
        description=(
            "Estimate natural direct/indirect effects of a social-group signal on "
            "conversational responses, with language aspects as mediators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse transcripts into analysis units")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--meta", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--strict-marker", action="store_true", dest="strict_marker")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("measure", help="measure units into causal records")
    p.add_argument("--units", required=True)
    p.add_argument("--transcripts", required=True,
                   help="full transcripts (the honorific introduction is not part of any unit)")
    p.add_argument("--lexicon", default=None)
    p.add_argument("--topics", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--out", required=True)
    p.add_argument("--strict-marker", action="store_true", dest="strict_marker")
    p.add_argument("--confounders", default=None)
    p.add_argument("--topic-sweeps", type=int, default=1000, dest="topic_sweeps")
    p.add_argument("--topic-burn-in", type=int, default=500, dest="topic_burn_in")
    p.add_argument("--topic-alpha", type=float, default=0.1, dest="topic_alpha")
    p.add_argument("--topic-beta", type=float, default=0.01, dest="topic_beta")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("fit", help="fit nuisance models and export audit tables")
    p.add_argument("--records", required=True)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mediators", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("estimate", help="estimate effects with bootstrap intervals")
    p.add_argument("--records", required=True)
    p.add_argument("--mediators", default=None)
    p.add_argument("--bootstrap", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ci", type=float, default=0.90)
    p.add_argument("--x-marginal", action="store_true", dest="x_marginal")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="generate synthetic data from a structural model")
    p.add_argument("--spec", default=None)
    p.add_argument("--fixture", default=None, choices=scm.FIXTURE_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--render", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("study", help="assumption-violation bias study")
    p.add_argument("--spec", default=None)
    p.add_argument("--fixture", default=None, choices=scm.FIXTURE_NAMES)
    p.add_argument("--knob", required=True, choices=scm.VIOLATION_KNOBS)
    p.add_argument("--grid", required=True, help="comma-separated magnitudes, e.g. 0,0.8,1.6")
    p.add_argument("--n", type=int, default=50000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("run", help="run the full pipeline from a config or manifest")
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="render a report from estimate output")
    p.add_argument("--estimates", required=True, help="effects.ndjson from estimate/run")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("MEDLANG_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except MedlangError as exc:
        print(f"medlang: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
