"""Every module-level function reads each of its parameters, every
dataclass field is read somewhere, and every library name is reached or
kept on purpose: a parameter that nothing reads (a tolerance no verdict
compares with, say) promises a behaviour the function does not have, and a
field or a function that nothing reads is work done for no one."""

import ast
from pathlib import Path

import pytest

import homnet
from conftest import load_perfbench

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



# The library names that no analysis reaches, kept on purpose: each states a
# claim of the paper, or is the closed-form oracle a test checks against
KEPT = {
    "geometry.is_rigid_motion": "acceptance criterion 4: a rigid motion keeps every distance",
    "geometry.displacement_cochain": "the polygon rule; oracle in test_geometry and test_zero_rule",
    "dynamics.constant_field_potential": "closed-form oracle for conservative_check's potential",
    "statics.extended_force_chain": "the paper's extended-cycle test for forces (extended_is_cycle)",
    "statics.close_open_system": "the balance of open systems",
    "kinematics.verify_deformation_homology": "the homology of deformations",
    "dynamics.moment_impulse_gap": "the rotational twin of impulse_momentum_gap",
}


def loaded_names(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute)
    }


def test_unreached_library_names_are_exactly_the_kept_ones():
    """A module-level function or class that nothing else in the package
    loads, that is not exported and not traced, is a decision: delete it,
    or keep it on ``KEPT`` with its reason.  A kept name that comes to be
    reached leaves ``KEPT``."""
    public = set(homnet.__all__)
    traced = {target.split(".")[0] for _, target, *_ in load_perfbench("spans").TARGETS}
    statements = [
        (path, node)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    loads = [(path, node, loaded_names(node)) for path, node in statements]
    unreached = sorted(
        f"{path.stem}.{node.name}"
        for path, node in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in public | traced
        and not any(
            node.name in names
            for p, other, names in loads
            if not (p == path and other is node)
        )
    )
    assert unreached == sorted(KEPT)
