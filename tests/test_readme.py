"""The README's library quick start runs against the installed package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_import_line():
    text = README.read_text()
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S)
    assert block is not None
    imports = [
        line for line in block.group(1).splitlines() if line.startswith("from cpfast")
    ]
    assert imports
    for line in imports:
        exec(line, {})
