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


def test_defs_count_each_top_level_definition(tmp_path, capsys):
    # C: class, def f, the two-line string, return; g: def, x = 1, return;
    # a decorator line counts with its function, a comment line does not
    assert sloc.def_sloc(SOURCE) == [("C", 5), ("g", 3)]
    path = tmp_path / "h.py"
    path.write_text('import functools\n\n\n@functools.cache\n# a comment\ndef h():\n'
                    '    """Doc."""\n    return 1\n')
    sloc.main(["--defs", str(path)])
    assert capsys.readouterr().out == "     3 h\n"
