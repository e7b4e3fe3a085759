"""Every module-level function reads each of its parameters: a parameter
that nothing reads (a tolerance no verdict compares with, say) promises a
behaviour the function does not have."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "homnet"


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
