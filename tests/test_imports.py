"""numpy stays off the exact path: no module imports it at load time, and an
exact document goes from parse to emitted report without loading it."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homnet"
EXACT_FIXTURES = (
    "circle",
    "circuit_unbalanced",
    "disc",
    "rectangle",
    "tetra_projected",
    "triangle_truss",
)


def traced_modules():
    """Module names the benchmark's span tracer wraps functions in."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return sorted({target[0] for target in spans.TARGETS})


def run_python(code, *args, flags=()):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.stem
)
def test_no_module_level_numpy_import(path):
    # only statements outside function bodies run at import time
    def module_level(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield child
            yield from module_level(child)

    found = []
    for node in module_level(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            found.append(node.lineno)
    assert not found, f"module-level numpy import at lines {found}"


EXACT_RUN = """
import io, json, sys
import homnet.cli
from homnet import cli
out = {}
for path in sys.argv[2:]:
    sys.stdout = io.TextIOWrapper(io.BytesIO())
    code = cli.main(["report-all", "--input", path])
    sys.stdout = sys.__stdout__
    out[path] = code
missing = [name for name in json.loads(sys.argv[1]) if name not in sys.modules]
print(json.dumps({"numpy": "numpy" in sys.modules, "missing": missing, "codes": out}))
"""


def test_exact_documents_never_load_numpy():
    paths = [str(ROOT / "fixtures" / f"{name}.json") for name in EXACT_FIXTURES]
    result = run_python(EXACT_RUN, json.dumps(traced_modules()), *paths)
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout)
    assert seen["numpy"] is False
    # every module the tracer patches is loaded by the cli import
    assert seen["missing"] == []
    assert set(seen["codes"].values()) <= {0, 1}


OVERFLOW_RUN = """
import json, sys
from homnet import cli
for command, document, path in json.loads(sys.argv[1]):
    with open(path, "w") as f:
        json.dump(document, f)
    assert cli.main([command, "--input", path]) == 1
"""


def trajectory(dt, pos):
    return {
        "dimension": len(pos[0]),
        "signal": {"dt": dt, "samples": len(pos)},
        "nodes": [{"id": "P", "mass": 1.0, "pos": pos}],
        "branches": [],
    }


def test_cold_float_overflow_prints_no_warning(tmp_path):
    # numpy is first imported while the document is parsed; the analysis
    # still runs under its error state, so "-W error" raises on nothing
    swinging = [1e307 * (-1) ** a for a in range(6)]
    charging = {
        "dimension": 1,
        "signal": {"dt": 0.1, "samples": 6},
        "nodes": [{"id": "A", "charge": swinging}, {"id": "B"}],
        "branches": [{"id": "AB", "tail": "A", "head": "B", "current": [0.0] * 6}],
    }
    cases = [
        ("angular", trajectory(
            0.001, [[1e170 * (a + 1), 1e170 * (a + 1) ** 2] for a in range(7)]
        )),
        ("momentum", trajectory(0.1, [[x] for x in swinging])),
        ("dalembert", trajectory(0.1, [[x] for x in swinging])),
        ("kcl", charging),
    ]
    runs = [
        (command, document, str(tmp_path / f"{command}.json"))
        for command, document in cases
    ]
    result = run_python(OVERFLOW_RUN, json.dumps(runs), flags=("-W", "error"))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.count(": FAIL ==") == len(cases)
