"""Source rules that hold for every module of the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "admlab").glob("*.py"))
BROAD = {"Exception", "BaseException"}


def _broad_handlers(tree: ast.AST):
    """Line numbers of bare ``except:`` and of handlers naming a broad class."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if caught is None or any(
            isinstance(n, ast.Name) and n.id in BROAD for n in names
        ):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_handler_can_swallow_a_defect(path):
    lines = list(_broad_handlers(ast.parse(path.read_text(), str(path))))
    assert not lines, f"{path.name}: broad except at lines {lines}"


def test_the_rule_sees_every_broad_form():
    src = (
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, BaseException) as e:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, KeyError):\n    pass\n"
    )
    assert list(_broad_handlers(ast.parse(src))) == [3, 7, 11]


def _inf_strings(tree: ast.AST):
    """Line numbers of a string "inf" or "-inf" built outside a comparison.

    Comparing with one, as in ``p in ("inf", "oo")``, parses an input; any
    other such string formats a number, which only the CLI's writer does."""
    compared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                compared.update(map(id, ast.walk(operand)))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in ("inf", "-inf") and id(node) not in compared):
            yield node.lineno


OTHERS = [p for p in SOURCES if p.name != "cli.py"]


@pytest.mark.parametrize("path", OTHERS, ids=[p.name for p in OTHERS])
def test_only_the_cli_writer_formats_inf(path):
    lines = list(_inf_strings(ast.parse(path.read_text(), str(path))))
    assert not lines, f"{path.name}: the string 'inf' built at lines {lines}"


def test_the_inf_rule_allows_comparisons_only():
    src = (
        'ok = p in ("inf", "oo") or q == "-inf"\n'
        'a = "inf"\n'
        'b = {"t": "inf" if bad else t}\n'
        "c = f\"{'-inf' if bad else x}\"\n"
        'd = "infinite"\n'
    )
    assert list(_inf_strings(ast.parse(src))) == [2, 3, 4]
