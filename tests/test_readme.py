"""README's "Library use" code block runs, and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs_and_prints_its_comments():
    code = library_use_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    # Each commented print's comment is a line it printed, in the block's order.
    expected = re.findall(r"^\s*print\(.*\)  # (.*)$", code, re.MULTILINE)
    assert expected
    lines = iter(printed)
    for want in expected:
        assert any(line == want for line in lines), (want, printed)
