"""Count code lines: lines that are not blank, comment-only or docstring.

Usage: ``python tools/sloc.py [FILE ...]`` (default: ``src/admlab/*.py``).
Prints one ``count path`` line per file and then the total.
``python tools/sloc.py --defs FILE`` prints one ``count name`` line per
top-level function or class of FILE (decorators included), in file order.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str, tree: ast.Module) -> set[int]:
    """The numbers of the code lines of ``source``, parsed as ``tree``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def sloc(source: str) -> int:
    """The number of code lines in ``source``."""
    return len(code_lines(source, ast.parse(source)))


def def_sloc(source: str) -> list[tuple[str, int]]:
    """(name, code lines) of each top-level function or class in ``source``."""
    tree = ast.parse(source)
    lines = code_lines(source, tree)
    out = []
    for node in tree.body:
        if isinstance(node, _DEFS):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append((node.name, len(lines & set(range(first, node.end_lineno + 1)))))
    return out


def main(args) -> None:
    if args[:1] == ["--defs"] and len(args) == 2:
        for name, count in def_sloc(Path(args[1]).read_text()):
            print(f"{count:6d} {name}")
        return
    total = 0
    for path in args or sorted(map(str, Path("src/admlab").glob("*.py"))):
        count = sloc(Path(path).read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
