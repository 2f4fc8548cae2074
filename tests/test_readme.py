"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        # each block runs in a fresh namespace, as a reader would paste it
        exec(compile(block, f"README.md python block {i}", "exec"), {})
