"""The README's Python examples run as written, and its `$ rqmc` examples
print what they show."""

import re
import shlex
from pathlib import Path

from rqmc.cli import main

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
