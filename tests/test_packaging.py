"""The packaging metadata names what the package ships.

No test builds or installs the package, so these read ``pyproject.toml``
itself: the console script resolves to a callable, the package-data globs
cover the direction-number table and every file of ``rqmc/data``, and the
CI workflow pins the packages the project declares, no more and no fewer,
runs every ``rqmc`` command from the installed package, and compiles the
sources under the oldest Python the project declares.
"""

import importlib
import re
from pathlib import Path

import pytest

from rqmc import digital_nets

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())
PACKAGE = ROOT / "src" / "rqmc"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


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


def test_ci_install_pins_exactly_the_declared_dependencies():
    # the Install step pins versions; pyproject.toml declares ranges.  A
    # package added to or dropped from one list and not the other fails here.
    step = WORKFLOW.read_text().split("- name: Install", 1)[1].split("- name:", 1)[0]
    pinned = re.findall(r"([A-Za-z0-9_.-]+)==", step)
    project = PROJECT["project"]
    declared = project["dependencies"] + project["optional-dependencies"]["test"]
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in declared]
    assert pinned and sorted(p.lower() for p in pinned) == sorted(n.lower() for n in names)


def test_ci_compiles_under_the_oldest_declared_python():
    # the compile step runs on the Python its setup-python step installs; a
    # raised requires-python, or a raised setup-python, alone fails here
    floor = re.fullmatch(r">=\s*(\d+\.\d+)", PROJECT["project"]["requires-python"])
    text = WORKFLOW.read_text()
    before, step = text.split("- name: Compile under Python ", 1)
    installed = re.findall(r'python-version:\s*"([^"]+)"', before)[-1]
    assert floor and installed == floor.group(1) == step.split("\n", 1)[0]


def test_ci_runs_every_command_from_the_installed_package():
    # only the installed package runs without the checkout's src/ on the path:
    # each command's step there exercises what it loads and reads (the
    # direction table, scipy.special for a price, a rate-study config file)
    step = WORKFLOW.read_text().split("- name: Installed console script", 1)[1]
    run = step.split("- name:", 1)[0]
    commands = re.findall(r"^\s*rqmc ([a-z-]+)", run, flags=re.MULTILINE)
    assert commands == ["points", "verify-net", "price", "rate-study"]
    assert re.search(r"^\s*rqmc rate-study --config study\.cfg$", run, flags=re.MULTILINE)
    assert "> study.cfg" in run
