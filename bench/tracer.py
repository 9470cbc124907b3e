"""Spans around medlang's public functions, recorded from outside the program.

``install`` replaces each function listed in ``PATCHES`` by a timing
wrapper, at the module where its caller looks the name up: ``cli`` calls
``build_records`` through its own import, so the wrapper goes on
``medlang.cli.build_records``, while ``bootstrap_effects`` calls
``fit_mediator_model`` through ``medlang.mediation``. Nothing under
``src/`` changes.

A "span" entry records one span per call (name, start, end, parent). A
"leaf" entry is called once per record or per unit, so its calls are only
counted and timed, and the total is charged to the enclosing span. Span
and leaf names are ``<layer>.<function>``, and the layers are medlang's
modules. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("corpus", "measure", "topics", "glm", "mediation", "scm", "cli")

# (module the caller looks the name up in, attribute, kind, layer). The
# layer is the module that defines the function; the span name is
# "<layer>.<attribute>".
PATCHES = (
    ("medlang.cli", "run_pipeline", "span", "cli"),
    ("medlang.cli", "main", "span", "cli"),
    ("medlang.cli", "parse_transcript", "span", "corpus"),
    ("medlang.cli", "parse_case_metadata", "span", "corpus"),
    ("medlang.cli", "extract_units", "span", "corpus"),
    ("medlang.cli", "unit_to_json", "leaf", "corpus"),
    ("medlang.corpus", "utterance_to_json", "leaf", "corpus"),
    ("medlang.cli", "build_records", "span", "measure"),
    ("medlang.measure", "label_treatment", "leaf", "measure"),
    ("medlang.measure", "measure_hedging", "leaf", "measure"),
    ("medlang.measure", "measure_disfluency", "leaf", "measure"),
    ("medlang.cli", "record_to_json", "leaf", "measure"),
    ("medlang.cli", "records_from_json", "span", "measure"),
    ("medlang.cli", "fit_topic_model", "span", "topics"),
    ("medlang.measure", "measure_topic", "leaf", "topics"),
    ("medlang.glm", "encode_records", "span", "glm"),
    ("medlang.glm", "infer_domains", "span", "glm"),
    ("medlang.glm", "fit_mediator_model", "span", "glm"),
    ("medlang.glm", "fit_outcome_model", "span", "glm"),
    ("medlang.mediation", "fit_mediator_model", "span", "glm"),
    ("medlang.mediation", "fit_outcome_model", "span", "glm"),
    ("medlang.glm", "fit_categorical_glm", "leaf", "glm"),
    ("medlang.glm", "write_mediator_table_csv", "span", "glm"),
    ("medlang.glm", "write_outcome_table_csv", "span", "glm"),
    ("medlang.cli", "estimate_all", "span", "mediation"),
    ("medlang.mediation", "bootstrap_effects", "span", "mediation"),
    ("medlang.scm", "generate", "span", "scm"),
    ("medlang.scm", "exact_effects", "span", "scm"),
    ("medlang.scm", "monte_carlo_effects", "span", "scm"),
)


def _count_result(counts, name, kwargs, result) -> None:
    """Work counts read off a call's arguments and result."""
    if name == "corpus.parse_transcript":
        counts["corpus.turns"] += len(result)
    elif name == "corpus.extract_units":
        counts["corpus.units"] += len(result)
    elif name == "measure.build_records":
        counts["measure.excluded_units"] += len(result.exclusions)
    elif name == "topics.fit_topic_model":
        counts["topics.token_sweeps"] += result.assignments.size * kwargs["n_sweeps"]
    elif name == "glm.fit_categorical_glm":
        counts["glm.irls_iterations"] += result[2]
    elif name == "mediation.bootstrap_effects":
        counts["mediation.replicates_attempted"] += result.n_bootstrap
        counts["mediation.replicates_dropped"] += result.n_dropped_replicates
    elif name == "scm.generate":
        counts["scm.generate_units"] += len(result.records)
    elif name == "scm.monte_carlo_effects":
        counts["scm.mc_draws"] += result.n_draws


class Tracer:
    """Spans and counters of the traced ops of one run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.leaf_time: dict[int, dict[str, list]] = defaultdict(dict)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            _count_result(self.counts, name, kwargs, result)
            return result
        return wrapper

    def leaf_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            parent = self._stack[-1] if self._stack else -1
            slot = self.leaf_time[parent].setdefault(name, [0, 0.0])
            slot[0] += 1
            slot[1] += elapsed
            _count_result(self.counts, name, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Patch every entry of PATCHES; return a function that restores them."""
        originals = []
        for module_name, attr, kind, layer in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            make = self.span_wrapper if kind == "span" else self.leaf_wrapper
            setattr(module, attr, make(f"{layer}.{attr}", fn))
            originals.append((module, attr, fn))

        def restore() -> None:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
        return restore

    def op(self, fn, *args):
        """Run one op under a root span named "bench.op"; return its span index."""
        self.counts = defaultdict(int)
        index = len(self.spans)
        self.span_wrapper("bench.op", fn)(*args)
        return index

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "leaves": {str(parent): leaves for parent, leaves in self.leaf_time.items()},
        }


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def op_metrics(tracer: Tracer, root: int, cpu_s: float, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of the op whose root span is ``root``.

    A span's self time is its duration minus its child spans and the leaf
    calls charged to it; a layer's self time sums that over its spans plus
    its own leaf time. A layer's span time sums its outermost spans (those
    with no ancestor in the same layer) plus leaves outside such spans, so
    self time never exceeds span time.
    """
    spans = tracer.spans
    members = [root]
    for index in range(root + 1, len(spans)):
        parent = spans[index][3]
        if parent < root:
            break
        members.append(index)
    child_time: dict[int, float] = defaultdict(float)
    for index in members[1:]:
        child_time[spans[index][3]] += spans[index][2] - spans[index][1]

    def in_layer(index: int, layer: str) -> bool:
        """Whether span ``index`` or one of its ancestors belongs to ``layer``."""
        while index >= root:
            if _layer(spans[index][0]) == layer:
                return True
            index = spans[index][3]
        return False

    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])  # per name: calls, seconds
    self_s: dict[str, float] = defaultdict(float)
    span_s: dict[str, float] = defaultdict(float)
    for index in members:
        name, start, end, parent = spans[index]
        layer = _layer(name)
        leaves = tracer.leaf_time.get(index, {})
        totals[name][0] += 1
        totals[name][1] += end - start
        self_s[layer] += end - start - child_time[index] - sum(s for _, s in leaves.values())
        if not in_layer(parent, layer):
            span_s[layer] += end - start
        for leaf, (calls, secs) in leaves.items():
            totals[leaf][0] += calls
            totals[leaf][1] += secs
            self_s[_layer(leaf)] += secs
            if not in_layer(index, _layer(leaf)):
                span_s[_layer(leaf)] += secs
    counts = tracer.counts

    def secs(*names: str) -> float:
        return sum(totals[n][1] for n in names if n in totals)

    def calls(*names: str) -> int:
        return sum(totals[n][0] for n in names if n in totals)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    turns = counts["corpus.turns"]
    extract_s = secs("corpus.extract_units")
    token_sweeps = counts["topics.token_sweeps"]
    fit_s = secs("topics.fit_topic_model")
    attempted = counts["mediation.replicates_attempted"]
    dropped = counts["mediation.replicates_dropped"]
    mc_s = secs("scm.monte_carlo_effects")
    fit_names = ("glm.fit_mediator_model", "glm.fit_outcome_model")
    metrics = {
        "corpus.parse_s": secs("corpus.parse_transcript"),
        "corpus.turns": turns,
        "corpus.extract_s": extract_s,
        "corpus.units": counts["corpus.units"],
        "corpus.extract_us_per_turn": ratio(extract_s * 1e6, turns),
        "measure.build_s": secs("measure.build_records"),
        "measure.label_treatment_s": secs("measure.label_treatment"),
        "measure.label_treatment_calls": calls("measure.label_treatment"),
        "measure.hedging_s": secs("measure.measure_hedging"),
        "measure.disfluency_s": secs("measure.measure_disfluency"),
        "measure.excluded_units": counts["measure.excluded_units"],
        "measure.record_write_s": secs("measure.record_to_json"),
        "measure.record_read_s": secs("measure.records_from_json"),
        "topics.fit_s": fit_s,
        "topics.token_sweeps": token_sweeps,
        "topics.us_per_token_sweep": ratio(fit_s * 1e6, token_sweeps),
        "topics.foldin_s": secs("topics.measure_topic"),
        "topics.foldin_calls": calls("topics.measure_topic"),
        "glm.encode_s": secs("glm.encode_records"),
        "glm.infer_domains_s": secs("glm.infer_domains"),
        "glm.fit_s": secs(*fit_names),
        "glm.fit_calls": calls(*fit_names),
        "glm.irls_s": secs("glm.fit_categorical_glm"),
        "glm.irls_calls": calls("glm.fit_categorical_glm"),
        "glm.irls_iterations": counts["glm.irls_iterations"],
        "glm.table_write_s": secs("glm.write_mediator_table_csv", "glm.write_outcome_table_csv"),
        "mediation.bootstrap_s": secs("mediation.bootstrap_effects"),
        "mediation.replicates_attempted": attempted,
        "mediation.replicates_dropped": dropped,
        "mediation.replicate_yield": ratio(attempted - dropped, attempted),
        "scm.generate_s": secs("scm.generate"),
        "scm.generate_units": counts["scm.generate_units"],
        "scm.exact_s": secs("scm.exact_effects"),
        "scm.mc_s": mc_s,
        "scm.mc_draws_per_s": ratio(counts["scm.mc_draws"], mc_s),
        "cli.bytes_written": bytes_written,
        "cli.cpu_s": cpu_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.span_s"] = span_s[layer]
    return metrics

