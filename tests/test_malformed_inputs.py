"""One malformed-input contract for every file the command line reads.

For each subcommand and each file it reads, every class of malformed
input must end in a typed error: exit 2 (configuration) or 3 (data), a
``medlang: error:`` message, and no traceback. ``main`` returns the exit
code of a typed error; anything else escapes it as an exception, which
is the traceback a user would see.

A reader joins the contract by one entry in ``FILE_ARGS``: its format
(which says how each malformation is built from a valid input) and the
command that reads it.
"""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from medlang.cli import main
from medlang.mediation import EffectEstimate
from medlang.scm import load_fixture

FIXTURE_DIR = Path(__file__).parent / "fixtures"
TRANSCRIPTS = FIXTURE_DIR / "paired_cases.ndjson"
META = FIXTURE_DIR / "paired_cases_meta.ndjson"

CLASSES = ("not-utf8", "not-json", "lone-surrogate", "deep-nesting", "wrong-top-level-type",
           "missing-key", "wrong-value-type", "duplicate-id")

#: What each class's message must say, whichever reader raises it.
REASONS = {
    "not-utf8": "not UTF-8",
    "not-json": "malformed",
    "lone-surrogate": "lone surrogate|not UTF-8",
    "deep-nesting": "nested too deeply",
    "wrong-top-level-type": "not an object|not a JSON object|must be an object",
    "missing-key": "lacks key|missing fields|has no|must set|with a case_id",
    "wrong-value-type": "must be",
    "duplicate-id": "duplicate|repeat",
}

DEEP = b"[" * 100_000


def _estimate_lines() -> list[str]:
    est = EffectEstimate(
        mediator_name="hedging", nde=0.1, nie=0.05, nie_reversed=0.05, total_effect=0.15,
        ci_level=0.9, nde_ci=(0.0, 0.2), nie_ci=(0.0, 0.1), n_units=10, n_bootstrap=0,
    )
    return [est.to_json(), replace(est, mediator_name="disfluency").to_json()]


def _ndjson(lines: list[str], edit: dict) -> dict:
    """Each class as a file of a valid first line and one bad line, so the error is on line 2.

    ``edit`` maps the classes that depend on the format to a function that
    turns the object of the valid second line into the bad one; the
    duplicate id repeats the first line.
    """
    first, second = lines[:2]
    bad = {
        "not-utf8": b"\xff\xfe",
        "not-json": b"{not json",
        "deep-nesting": DEEP,
        "wrong-top-level-type": b"[1, 2]",
        "duplicate-id": first.encode("utf-8"),
    }
    for name, fn in edit.items():
        bad[name] = json.dumps(fn(json.loads(second)), sort_keys=True).encode("utf-8")
    assert set(bad) == set(CLASSES)
    return {name: first.encode("utf-8") + b"\n" + line + b"\n" for name, line in bad.items()}


def _with(key, value):
    """A path of keys into the object, set to value."""
    keys = key if isinstance(key, tuple) else (key,)

    def edit(obj):
        inner = obj
        for k in keys[:-1]:
            inner = inner[k]
        inner[keys[-1]] = value
        return obj
    return edit


def _without(key):
    def edit(obj):
        del obj[key]
        return obj
    return edit


def _json_object(good: dict, edit: dict) -> dict:
    """Each class as a whole-file JSON object built from ``good``."""
    bad = {
        "not-utf8": json.dumps(good).encode("utf-8")[:-1] + b', "extra": "\xff"}',
        "not-json": b"{not json",
        "deep-nesting": DEEP,
        "wrong-top-level-type": b"[]",
    }
    for name, fn in edit.items():
        bad[name] = json.dumps(fn(json.loads(json.dumps(good)))).encode("utf-8")
    assert set(bad) == set(CLASSES)
    return bad


def _lines(path: Path) -> list[str]:
    return path.read_text("utf-8").splitlines()


def _spec() -> dict:
    return json.loads(load_fixture("binary_scm").to_json())


def _spec_with_renamed_mediator(spec):
    """The hedging mediator renamed to a string holding a lone surrogate."""
    name = "hedg\ud800"
    spec["mediators"][0]["name"] = name
    for key in ("mediators", "tm_interactions"):
        table = spec["outcome"][key]
        if "hedging" in table:
            table[name] = table.pop("hedging")
    return spec


def _spec_with_duplicate_mediator(spec):
    spec["mediators"].append(spec["mediators"][0])
    return spec


def _config(out: Path) -> dict:
    return {"transcripts": str(TRANSCRIPTS), "meta": str(META), "out": str(out), "seed": 7,
            "bootstrap": 0, "mediators": ["hedging", "disfluency"]}


CONFIG_EDITS = {
    "lone-surrogate": _with("meta", str(META) + "\ud800"),
    "missing-key": _without("transcripts"),
    "wrong-value-type": _with("folds", "2"),
    "duplicate-id": _with("mediators", ["hedging", "hedging"]),
}


#: The classes each format can hold; every other format can hold all of them. A
#: lexicon is plain text, one phrase per line, so only its encoding can be wrong.
FORMAT_CLASSES = {"lexicon": ("not-utf8", "lone-surrogate")}


def _formats(base: Path) -> dict:
    """Every readable format: its malformed files by class."""
    config = _config(base / "run")
    return {
        "transcript": _ndjson(_lines(TRANSCRIPTS), {
            "lone-surrogate": _with("text", "I think \ud800"),
            "missing-key": _without("text"),
            "wrong-value-type": _with("index", "0"),
        }),
        "metadata": _ndjson(_lines(META), {
            "lone-surrogate": _with("issue_area", "\udc00"),
            "missing-key": _without("case_id"),
            "wrong-value-type": _with("case_id", ["2013-12-820"]),
        }),
        "units": _ndjson(_lines(base / "units.ndjson"), {
            "lone-surrogate": _with(("p1", "text"), "I think \ud800"),
            "missing-key": _without("p2"),
            "wrong-value-type": _with("context", "none"),
        }),
        "records": _ndjson(_lines(base / "records.ndjson"), {
            "lone-surrogate": _with("unit_id", "u\ud800"),
            "missing-key": _without("x"),
            "wrong-value-type": _with("t", "1"),
        }),
        "estimates": _ndjson(_estimate_lines(), {
            "lone-surrogate": _with("mediator", "hedg\ud800"),
            "missing-key": _without("nie_ci"),
            "wrong-value-type": _with("nde", "0.1"),
        }),
        "spec": _json_object(_spec(), {
            "lone-surrogate": _spec_with_renamed_mediator,
            "missing-key": _without("treatment"),
            "wrong-value-type": _with(("treatment", "intercept"), "a"),
            "duplicate-id": _spec_with_duplicate_mediator,
        }),
        "config": _json_object(config, CONFIG_EDITS),
        "manifest": _json_object({"config": config}, {
            **{name: (lambda fn: lambda m: {"config": fn(m["config"])})(fn)
               for name, fn in CONFIG_EDITS.items()},
            "missing-key": _without("config"),
        }),
        "lexicon": {
            "not-utf8": b"i think\n\xff\n",
            "lone-surrogate": b"i think\n\xed\xa0\x80\n",  # U+D800 as UTF-8 bytes
        },
    }


def _run_config(out: Path, key: str, path: Path) -> list[str]:
    """run --config over a config whose ``key`` names the malformed file."""
    config = {**_config(out / "o"), key: str(path)}
    config_path = path.with_name(path.name + ".config.json")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return ["run", "--config", str(config_path)]


# (subcommand, file argument) -> (format, the argv reading the file at the given path)
FILE_ARGS = {
    ("ingest", "--transcripts"): ("transcript", lambda base, out, p: [
        "ingest", "--transcripts", str(p), "--out", str(out / "o" / "units.ndjson")]),
    ("ingest", "--meta"): ("metadata", lambda base, out, p: [
        "ingest", "--transcripts", str(TRANSCRIPTS), "--meta", str(p),
        "--out", str(out / "o" / "units.ndjson")]),
    ("measure", "--units"): ("units", lambda base, out, p: [
        "measure", "--units", str(p), "--transcripts", str(TRANSCRIPTS),
        "--out", str(out / "o" / "records.ndjson")]),
    ("measure", "--transcripts"): ("transcript", lambda base, out, p: [
        "measure", "--units", str(base / "units.ndjson"), "--transcripts", str(p),
        "--out", str(out / "o" / "records.ndjson")]),
    ("measure", "--lexicon"): ("lexicon", lambda base, out, p: [
        "measure", "--units", str(base / "units.ndjson"), "--transcripts", str(TRANSCRIPTS),
        "--lexicon", str(p), "--out", str(out / "o" / "records.ndjson")]),
    ("fit", "--records"): ("records", lambda base, out, p: [
        "fit", "--records", str(p), "--out", str(out / "o")]),
    ("estimate", "--records"): ("records", lambda base, out, p: [
        "estimate", "--records", str(p), "--bootstrap", "0", "--out", str(out / "o")]),
    ("simulate", "--spec"): ("spec", lambda base, out, p: [
        "simulate", "--spec", str(p), "--n", "10", "--out", str(out / "o")]),
    ("study", "--spec"): ("spec", lambda base, out, p: [
        "study", "--spec", str(p), "--knob", "unmeasured_confounder", "--grid", "0",
        "--n", "40", "--out", str(out / "o" / "study.csv")]),
    ("run", "--config"): ("config", lambda base, out, p: ["run", "--config", str(p)]),
    ("run", "--manifest"): ("manifest", lambda base, out, p: ["run", "--manifest", str(p)]),
    ("run", "config transcripts"): ("transcript", lambda base, out, p: _run_config(
        out, "transcripts", p)),
    ("run", "config meta"): ("metadata", lambda base, out, p: _run_config(out, "meta", p)),
    ("run", "config lexicon"): ("lexicon", lambda base, out, p: _run_config(out, "lexicon", p)),
    ("report", "--estimates"): ("estimates", lambda base, out, p: [
        "report", "--estimates", str(p), "--out", str(out / "o" / "report.txt")]),
}

SUBCOMMANDS = ("ingest", "measure", "fit", "estimate", "simulate", "study", "run", "report")


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """Valid inputs that the malformed files are built from or read alongside."""
    base = tmp_path_factory.mktemp("valid")
    assert main(["ingest", "--transcripts", str(TRANSCRIPTS), "--meta", str(META),
                 "--out", str(base / "units.ndjson")]) == 0
    assert main(["simulate", "--fixture", "binary_scm", "--n", "20", "--seed", "1",
                 "--out", str(base / "sim")]) == 0
    (base / "records.ndjson").write_bytes((base / "sim" / "records.ndjson").read_bytes())
    return base


@pytest.fixture(scope="module")
def formats(base) -> dict:
    return _formats(base)


def test_every_subcommand_is_in_the_table():
    assert {command for command, _ in FILE_ARGS} == set(SUBCOMMANDS)


def _cases():
    for (command, arg), (fmt, _) in FILE_ARGS.items():
        for kind in FORMAT_CLASSES.get(fmt, CLASSES):
            yield pytest.param(command, arg, kind, id=f"{command}-{arg.strip('-')}-{kind}")


@pytest.mark.parametrize("command, arg, kind", _cases())
def test_malformed_input_exits_with_a_typed_error(tmp_path, capsys, base, formats, command, arg,
                                                  kind):
    fmt, argv = FILE_ARGS[command, arg]
    path = tmp_path / f"bad-{fmt}"
    path.write_bytes(formats[fmt][kind])
    capsys.readouterr()
    assert main(argv(base, tmp_path, path)) in (2, 3)
    err = capsys.readouterr().err
    assert err.startswith("medlang: error: ") and re.search(REASONS[kind], err), err
    assert "Traceback" not in err


#: Values of the wrong type for keys that no reader converts to a string: (format, key, value).
WRONG_TYPE_VALUES = [
    *[("transcript", key, value) for key, value in [("case_id", ["a"]), ("case_id", 7),
                                                    ("speaker_id", {"x": 1}),
                                                    ("speaker_id", None)]],
    *[("records", ("x", "x0"), value) for value in [None, True, [1], {"a": 1}, 1, 1.0]],
]


def _wrong_type_cases():
    for fmt, key, value in WRONG_TYPE_VALUES:
        name = key[-1] if isinstance(key, tuple) else key
        for (command, arg), (reads, _) in FILE_ARGS.items():
            if reads == fmt:
                yield pytest.param(command, arg, fmt, key, name, value,
                                   id=f"{command}-{arg.strip('-')}-{name}-{json.dumps(value)}")


@pytest.mark.parametrize("command, arg, fmt, key, name, value", _wrong_type_cases())
def test_ids_and_levels_of_the_wrong_value_type_exit_3(tmp_path, capsys, base, command, arg,
                                                       fmt, key, name, value):
    """The wrong-value-type class for each value a reader requires to be a JSON string."""
    first, second = _lines(TRANSCRIPTS if fmt == "transcript" else base / "records.ndjson")[:2]
    path = tmp_path / f"bad-{fmt}"
    path.write_text(first + "\n" + json.dumps(_with(key, value)(json.loads(second))) + "\n",
                    encoding="utf-8")
    capsys.readouterr()
    assert main(FILE_ARGS[command, arg][1](base, tmp_path, path)) == 3
    err = capsys.readouterr().err
    assert re.search(f"line 2: .*{name}'? {REASONS['wrong-value-type']} a string", err), err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["transcript", "metadata", "units", "records", "estimates"])
def test_each_malformed_line_is_named(tmp_path, capsys, base, formats, fmt):
    """A line-oriented reader names the bad line (line 2 of every malformed file)."""
    command, arg = next(key for key, (f, _) in FILE_ARGS.items() if f == fmt)
    argv = FILE_ARGS[command, arg][1]
    for kind, data in formats[fmt].items():
        path = tmp_path / f"bad-{kind}"
        path.write_bytes(data)
        capsys.readouterr()
        assert main(argv(base, tmp_path, path)) == 3
        assert "line 2" in capsys.readouterr().err, kind


@pytest.mark.parametrize("command", ["fit", "estimate"])
def test_records_with_no_mediators_exit_3(tmp_path, capsys, base, command):
    lines = [json.dumps(dict(json.loads(line), m={})) for line in _lines(base / "records.ndjson")]
    path = tmp_path / "no-mediators.ndjson"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--records", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"medlang: error: no mediators in {path}\n"
    assert not (tmp_path / "out").exists()
