"""Every name the benchmark tracer patches must exist on the package.

perfbench/tracing.py replaces each (module, attribute) of its _TARGETS
with a timing wrapper, looked up by getattr, so a name dropped from the
package fails every traced benchmark run with AttributeError.  The tuple
is read with ast, without importing the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "_TARGETS"
        ]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no _TARGETS assignment in {TRACING}")


def test_every_traced_name_resolves():
    targets = _targets()
    assert {module for module, *_ in targets} >= {"cli", "core", "analysis"}
    missing = [
        (module, attr)
        for module, attr, *_ in targets
        if not hasattr(importlib.import_module(f"almost_squares.{module}"), attr)
    ]
    assert missing == []
