"""The benchmark's tracer patches medlang names from outside ``src/``.

Each (module, attribute) pair in ``bench/tracer.py``'s PATCHES must resolve,
or a traced benchmark run fails when it installs its spans. The tracer is
compiled from its source text, so no file under ``bench/`` is written.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_patch_resolves():
    namespace: dict = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text("utf-8"), str(TRACER), "exec"), namespace)
    patches = namespace["PATCHES"]
    assert patches
    missing = [
        (module, attr)
        for module, attr, _, _ in patches
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
