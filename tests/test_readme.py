"""README's Library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks() -> list[str]:
    """The python blocks of the Library section, in order."""
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.index("\n## ", start + 1)
    return re.findall(r"```python\n(.*?)```", text[start:end], flags=re.S)


def test_library_examples_run_in_order():
    # one namespace, as a reader who types them in: each block may use the names of the one before
    blocks = _library_blocks()
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.p1_ok and report.p2_ok and report.p3_ok
