"""Every module-level function reads each of its parameters, and every
dataclass field is read somewhere: a parameter that nothing reads (a
tolerance no verdict compares with, say) promises a behaviour the function
does not have, and a field that nothing reads is work done for no one."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homnet"


def unread_parameters(function):
    args = function.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    params += [p for p in (args.vararg, args.kwarg) if p is not None]
    read = {
        node.id
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [p.arg for p in params if p.arg not in read]


def exempt(path, name):
    # the analysis runners share one dispatch signature, (doc, options)
    return path.name == "cli.py" and name.startswith("_run_")


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.stem
)
def test_every_function_reads_its_parameters(path):
    unread = {
        node.name: names
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not exempt(path, node.name)
        and (names := unread_parameters(node))
    }
    assert unread == {}


def dataclass_fields(tree):
    """(class, field) of every field of a module's top-level dataclasses."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_dataclass_field_is_read():
    # matched by name alone, so a field whose name some other attribute
    # shares (``faces``, say) passes unread
    read = {
        node.attr
        for folder in ("src", "tests", "perfbench")
        for path in (ROOT / folder).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{cls}.{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for cls, name in dataclass_fields(ast.parse(path.read_text()))
        if name not in read
    ]
    assert unread == []
