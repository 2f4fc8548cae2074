"""The README's Python examples run as written, its `$ rqmc` examples
print what they show, and its catalog table states what the catalog holds."""

import re
from pathlib import Path

from goldens import readme_sessions, run_session

from rqmc.experiment import CATALOG_NAMES, StudyConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        # each block runs in a fresh namespace, as a reader would paste it
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_cli_examples_print_what_they_show(tmp_path, monkeypatch):
    # `readme_sessions` writes each `$ cat FILE` into the working directory
    monkeypatch.chdir(tmp_path)
    ran = []
    for command, argv, shown in readme_sessions(README.read_text()):
        assert argv[0] == "rqmc", command
        code, printed, shown = run_session(argv, shown)
        assert (code, printed) == (0, shown), command
        ran.append(argv[1])
    assert ran == ["points", "rate-study", "price"]


def test_readme_catalog_table_matches_catalog():
    # The table is the catalog's one description: its names, d_u and maxA
    # are checked against the entries, row by row.
    section = README.read_text().split("### Integrand catalog\n", 1)[1]
    header, _, *rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.split("\n#", 1)[0].splitlines()
        if line.startswith("|")
    ]
    assert header[0] == "name" and header[2:4] == ["d_u", "maxA"]
    assert [row[0] for row in rows] == [f"`{name}`" for name in CATALOG_NAMES]
    for row in rows:
        entry = StudyConfig(row[0].strip("`")).entry
        assert int(row[2]) == entry.irregular_dimension, row[0]
        assert float(row[3]) == entry.max_growth, row[0]
