"""Counts over the library source that the design tracks."""
from __future__ import annotations

import ast
import pathlib

import plaqgate

SRC = pathlib.Path(plaqgate.__file__).parent
#: Parameters with defaults in src/plaqgate/*.py; every one is relied on by a caller
DEFAULTED_PARAMETERS = 22


def defaulted_parameters(tree: ast.AST) -> int:
    """Parameters with a default in every function and lambda of `tree`, keyword-only too."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_defaulted_parameters_do_not_grow():
    count = sum(defaulted_parameters(ast.parse(path.read_text())) for path in SRC.glob("*.py"))
    assert count <= DEFAULTED_PARAMETERS


def test_defaulted_parameters_counts_every_kind():
    tree = ast.parse("def f(a, b=1, *c, d=2, e, **g):\n    return lambda x=0, *, y=1: x\n"
                     "async def h(a=1, /, b=2):\n    pass\n")
    assert defaulted_parameters(tree) == 6
