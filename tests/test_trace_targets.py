"""The benchmark's tracer rebinds quadheat attributes by name; each must exist."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    # exec the source rather than import it, so no bytecode cache is written there
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    missing = [
        f"quadheat.{mod}.{attr}" for mod, attr, _, _ in targets
        if not hasattr(importlib.import_module(f"quadheat.{mod}"), attr)
    ]
    assert missing == []
