"""The tokenizer line counter of tools/src_lines.py on a small module, and
its table against a base tree."""

import importlib.util
import pathlib
import re

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring.

Second paragraph.
"""
# a comment
import math  # code with a trailing comment


def f(x):
    """One-line docstring."""
    s = """a multi-line string
    that is code"""
    return (x +
            math.pi)
'''


def test_each_line_counted_once_by_kind():
    # code: import, def, s = (2 lines), return (2 lines); the blank line
    # inside the module docstring is blank
    assert src_lines.count(SAMPLE) == {"total": 14, "code": 6, "doc_comment": 5, "blank": 3}


def test_checkout_against_itself_shows_no_change(capsys):
    root = src_lines.REPO
    assert src_lines.main(["src_lines.py", str(root / "src"), "--base", str(root)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "total", "code", "doc/comment", "blank"]
    assert len(lines) > 2 and lines[-1].startswith("total ")
    for line in lines[1:]:
        cells = re.findall(r"(\d+) -> (\d+) \(([+-]\d+)\)", line)
        assert len(cells) == 4 and all(b == h and d == "+0" for b, h, d in cells), line
