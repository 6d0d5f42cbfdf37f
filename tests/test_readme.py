"""README's fenced ``python`` blocks run, in order and in one namespace, so
an API the README shows cannot be deleted or renamed without this failing."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
