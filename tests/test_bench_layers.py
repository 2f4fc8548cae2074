"""The benchmark's traced layers and the ``rqmc`` names it calls exist.

``perfbench/child.py`` wraps every function its ``LAYERS`` table names, so
a rename in ``rqmc`` would break a traced benchmark run with an
``AttributeError``.  Outside the table it calls ``rqmc`` names of its own
(``build_parser``, ``load_direction_numbers``), whose rename would break
every benchmark run, traced or not.  Both are read from the file's syntax
tree: the benchmark file is neither executed nor imported, and nothing is
written next to it.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
TREE = ast.parse(CHILD.read_text(), filename=str(CHILD))


def _layers() -> dict[str, tuple[str, ...]]:
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {CHILD}")


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _rqmc_names() -> set[str]:
    """Names ``from rqmc... import`` binds and the ``rqmc.*`` attribute
    chains, each chain at its longest (``rqmc.cli.main``, not ``rqmc.cli``)."""
    names, chains = set(), set()
    for node in ast.walk(TREE):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rqmc"):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and (_dotted(node) or "").startswith("rqmc."):
            chains.add(_dotted(node))
    return names | {c for c in chains if not any(o.startswith(c + ".") for o in chains)}


def test_every_traced_layer_function_exists():
    layers = _layers()
    assert layers
    for modname, fnames in layers.items():
        mod = importlib.import_module(modname)
        for fname in fnames:
            assert callable(getattr(mod, fname, None)), f"{modname}.{fname}"


def test_every_rqmc_name_the_benchmark_calls_exists():
    names = _rqmc_names()
    assert {"rqmc.cli.build_parser", "rqmc.digital_nets.load_direction_numbers"} <= names
    for name in names:
        modname, _, attr = name.rpartition(".")
        assert callable(getattr(importlib.import_module(modname), attr, None)), name
