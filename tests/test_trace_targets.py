"""The benchmark's tracer rebinds quadheat attributes by name, and its checks import
quadheat names; each must exist."""

import ast
import importlib
import importlib.util
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


def test_every_quadheat_import_in_perfbench_resolves():
    # perfbench imports inside its check functions, so a deleted name would
    # otherwise surface only when the benchmark runs
    imported = []
    for path in sorted(TRACING.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quadheat":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported
    missing = []
    for file, module, name in imported:
        mod = importlib.import_module(module)
        if not hasattr(mod, name) and importlib.util.find_spec(f"{module}.{name}") is None:
            missing.append(f"{file}: from {module} import {name}")
    assert missing == []
