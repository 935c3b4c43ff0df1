"""The tokenizer line counter of tools/src_lines.py on a small module."""

import importlib.util
import pathlib

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

