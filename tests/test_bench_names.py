"""The names the benchmark's tracer wraps must exist in covlat.

``bench/tracing.py`` is read as text, not imported, and its ``TRACED``
table is evaluated as a literal, so this test neither runs nor changes the
benchmark; it fails when a traced function or method is renamed or deleted.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_names() -> tuple[tuple[str, str, str], ...]:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for _, module, attribute in names:
        target = importlib.import_module(f"covlat.{module}")
        for part in attribute.split("."):
            target = getattr(target, part)
        assert callable(target), f"covlat.{module}.{attribute}"
