"""The packaging metadata names what the package ships.

No test builds or installs the package, so these read ``pyproject.toml``
itself: the console script resolves to a callable, and the package-data
globs cover the direction-number table and every file of ``rqmc/data``.
"""

import importlib
from pathlib import Path

import pytest

from rqmc import digital_nets

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())
PACKAGE = ROOT / "src" / "rqmc"


def test_console_script_resolves_to_cli_main():
    target = PROJECT["project"]["scripts"]["rqmc"]
    modname, _, attr = target.partition(":")
    assert (modname, attr) == ("rqmc.cli", "main")
    assert callable(getattr(importlib.import_module(modname), attr))


def test_package_data_globs_match_every_data_file():
    globs = PROJECT["tool"]["setuptools"]["package-data"]["rqmc"]
    shipped = {p for pattern in globs for p in PACKAGE.glob(pattern)}
    data = {p for p in (PACKAGE / "data").rglob("*") if p.is_file()}
    assert data and shipped == data
    assert PACKAGE / "data" / digital_nets._DATA_FILE in shipped
