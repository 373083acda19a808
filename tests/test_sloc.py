"""The code-line yardstick ``tools/sloc.py`` on a small inline source."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "sloc", Path(__file__).parents[1] / "tools" / "sloc.py"
)
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)

SOURCE = '''"""Module docstring,
two lines."""

# a comment-only line
import math  # a trailing comment keeps the line


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return text


def g():
    x = 1

    return math.sqrt(x)
'''


def test_sloc_counts_code_lines_only():
    # import; class; def f; the two-line string; return; def g; x = 1; return
    assert sloc.sloc(SOURCE) == 9
