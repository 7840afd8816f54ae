"""The python code blocks of README.md run as written."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert blocks
    for i, code in enumerate(blocks, start=1):
        exec(compile(code, f"README.md python block {i}", "exec"), {})
