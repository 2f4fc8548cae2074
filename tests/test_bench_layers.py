"""The benchmark's traced layers name functions that exist.

``perfbench/child.py`` wraps every function its ``LAYERS`` table names, so
a rename in ``rqmc`` would break a traced benchmark run with an
``AttributeError``.  The table is read from the file's syntax tree: the
benchmark file is neither executed nor imported, and nothing is written
next to it.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _layers() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(CHILD.read_text(), filename=str(CHILD))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {CHILD}")


def test_every_traced_layer_function_exists():
    layers = _layers()
    assert layers
    for modname, fnames in layers.items():
        mod = importlib.import_module(modname)
        for fname in fnames:
            assert callable(getattr(mod, fname, None)), f"{modname}.{fname}"
