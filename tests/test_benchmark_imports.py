"""The benchmark harness under ``perfbench/`` imports hamloc by name.
Every such name must still resolve, so that deleting code from the
package fails here rather than only when the benchmark runs."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _hamloc_imports():
    """(file, module, name) for each ``from hamloc... import name`` and
    (file, module, None) for each ``import hamloc...`` in the harness."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "hamloc":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "hamloc"]
    return found


def _resolves(module, name):
    try:
        mod = importlib.import_module(module)
        # ``from hamloc import instances`` names a submodule
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_harness_imports_resolve():
    imports = _hamloc_imports()
    assert {f for f, _, _ in imports} >= {"tracing.py", "worker.py", "workloads.py"}
    missing = [(f, m, n) for f, m, n in imports if not _resolves(m, n)]
    assert missing == []
