"""The dotted names that the benchmark's traced run wraps must keep
resolving, or `perfbench/run.py --trace 1` fails.  The names are read from
perfbench/layers.py with ast, without importing the benchmark."""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
WRAPPED_DICTS = ("COUNTED", "SPANNED")


def wrapped_names() -> list[str]:
    names = []
    for node in ast.parse(LAYERS.read_text()).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(getattr(t, "id", None) in WRAPPED_DICTS for t in node.targets)):
            for key, value in zip(node.value.keys, node.value.values):
                names.extend(c.value for c in (key, value) if isinstance(c, ast.Constant)
                             and str(c.value).startswith("conformal2d."))
    return names


def resolve(dotted: str):
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


@pytest.mark.skipif(not LAYERS.exists(), reason="perfbench/ is absent")
def test_benchmark_wrapped_names_resolve():
    names = wrapped_names()
    assert "conformal2d.radial.brentq" in names
    for dotted in names:
        assert callable(resolve(dotted)), dotted
