"""The README's Python examples run as written, its `$ rqmc` examples
print what they show, and its catalog table states what the catalog holds."""

import re
import shlex
from pathlib import Path

from rqmc.cli import main
from rqmc.experiment import CATALOG_NAMES, StudyConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        # each block runs in a fresh namespace, as a reader would paste it
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_cli_examples_print_what_they_show(tmp_path, monkeypatch, capsys):
    # A `text` block is a terminal session: `$ cat FILE` shows a file the
    # next command reads, and `$ rqmc ...` shows what it prints, stderr
    # first; a final `...` stands for the lines left out.
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"^```text\n(.*?)^```", README.read_text(), re.M | re.S)
    ran = []
    for block in blocks:
        for session in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = session.partition("\n")
            shown = shown.rstrip("\n").split("\n")
            argv = shlex.split(command)
            if argv[0] == "cat":
                Path(argv[1]).write_text("\n".join(shown) + "\n")
                continue
            assert argv[0] == "rqmc", command
            code = main(argv[1:])
            captured = capsys.readouterr()
            printed = captured.err.splitlines() + captured.out.splitlines()
            if shown[-1] == "...":
                shown = shown[:-1]
                printed = printed[: len(shown)]
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
