"""Counts over the library source that the design tracks."""
from __future__ import annotations

import ast
import io
import pathlib
import tokenize

import plaqgate

SRC = pathlib.Path(plaqgate.__file__).parent
#: Parameters with defaults in src/plaqgate/*.py; every one is relied on by a caller
DEFAULTED_PARAMETERS = 22
#: Init fields of the dataclasses in src/plaqgate/*.py; each field of a config object is a knob
DATACLASS_FIELDS = 73
#: Code lines of src/plaqgate/*.py: no docstrings, comments or blank lines
CODE_LINES = 1716


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


def dataclass_fields(tree: ast.AST) -> int:
    """Init fields of every `@dataclass` class in `tree`: no `ClassVar`, no `field(init=False)`."""
    count = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0].endswith("dataclass") for d in node.decorator_list)):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or "ClassVar" in ast.unparse(stmt.annotation):
                continue
            count += not (isinstance(stmt.value, ast.Call) and any(
                kw.arg == "init" and ast.unparse(kw.value) == "False"
                for kw in stmt.value.keywords))
    return count


def test_dataclass_fields_do_not_grow():
    count = sum(dataclass_fields(ast.parse(path.read_text())) for path in SRC.glob("*.py"))
    assert count <= DATACLASS_FIELDS


def test_dataclass_fields_counts_only_init_fields():
    tree = ast.parse("@dataclass(frozen=True)\nclass A:\n    k: ClassVar[int] = 1\n    a: int\n"
                     "    b: int = field(init=False)\n    c: int = field(default=0)\n"
                     "    def f(self) -> None:\n        x: int = 0\n"
                     "@dataclasses.dataclass\nclass B:\n    d: 'ClassVar[int]' = 2\n    e: float\n"
                     "class C:\n    f: int\n")
    assert dataclass_fields(tree) == 3


def code_lines(source: str) -> int:
    """Lines that hold a token of a statement other than a lone string (a docstring),
    counted once however many tokens they hold; comments and blank lines hold none."""
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING)
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not all(t.type == tokenize.STRING for t in statement):
                lines.update(n for t in statement for n in range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in skip:
            statement.append(tok)
    return len(lines)


def test_code_lines_do_not_grow():
    assert sum(code_lines(path.read_text()) for path in SRC.glob("*.py")) <= CODE_LINES


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = ('"""Module\ndocstring."""\n\n# a comment\ndef f(a,\n      b):  # trailing\n'
              '    """Doc."""\n    s = """two\n    lines"""\n\n    return (a +\n\n            b)\n'
              'class C:\n    "one" "line"\n    x = 1; y = 2\n')
    assert code_lines(source) == 8
