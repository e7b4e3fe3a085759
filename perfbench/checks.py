"""Output checks the benchmark computes itself.

Each checker takes the generator's ``Case``, the analysis command, and the
report as the program emitted it (the parsed JSON payload, or the text
block for fixtures).  It returns ``None`` when the report is right and a
one-line reason otherwise.  Structure comes from the document text and the
generator's truth; the arithmetic is plain Python integers (rationals only
where the program reports rationals), never the package's own algebra.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _rat(value):
    return Fraction(str(value))


class _Grid:
    """Plain-integer view of a generated grid document."""

    def __init__(self, text):
        doc = json.loads(text)
        self.nodes = [n["id"] for n in doc["nodes"]]
        self.pos = {n["id"]: tuple(n["pos"]) for n in doc["nodes"]}
        self.voltage = {n["id"]: n.get("voltage") for n in doc["nodes"]}
        self.force = {n["id"]: n.get("force") for n in doc["nodes"]}
        self.ends = {b["id"]: (b["tail"], b["head"]) for b in doc["branches"]}
        self.current = {b["id"]: b.get("current") for b in doc["branches"]}

    def boundary(self, chain):
        """Node -> coefficient of the boundary of a branch -> value chain."""
        out = {n: 0 for n in self.nodes}
        for bid, v in chain.items():
            tail, head = self.ends[bid]
            out[head] += v
            out[tail] -= v
        return out

    def equilibrium_product(self, tension):
        """A q for the axial equilibrium matrix A, keyed (node, component)."""
        out = {(n, c): 0 for n in self.nodes for c in range(2)}
        for bid, q in tension.items():
            tail, head = self.ends[bid]
            for c in range(2):
                s = self.pos[head][c] - self.pos[tail][c]
                out[(head, c)] += q * s
                out[(tail, c)] -= q * s
        return out


def _verdict(payload, expected):
    got = payload.get("verdict")
    if got != expected:
        return f"verdict {got!r}, expected {expected!r}"
    return None


# ---------------------------------------------------------------------------
# grid-statics
# ---------------------------------------------------------------------------

def _check_kcl(grid, case, payload):
    cycle = not any(grid.boundary(grid.current).values())
    problem = _verdict(payload, "pass" if cycle else "fail")
    if problem:
        return problem
    if payload["numbers"].get("conserved") is not cycle:
        return "kcl: conserved flag disagrees with the current chain"
    if any(_rat(v) for v in payload["residuals"].get("nodes", {}).values()):
        return "kcl: nonzero node residual on a current cycle"
    return None


def _check_kvl(grid, case, payload):
    problem = _verdict(payload, "pass")
    if problem:
        return problem
    drops = payload["residuals"].get("drops", {})
    potential = payload["details"].get("potential", {})
    if set(potential) != set(grid.nodes):
        return "kvl: potential does not cover every node"
    for bid, (tail, head) in grid.ends.items():
        want = grid.voltage[head] - grid.voltage[tail]
        if _rat(drops.get(bid, 0)) != want:
            return f"kvl: drop on {bid} is not V(head) - V(tail)"
        if _rat(potential[head]) - _rat(potential[tail]) != want:
            return f"kvl: potential does not reproduce the drop on {bid}"
    return None


def _check_statics(grid, case, payload):
    problem = _verdict(payload, "value")
    if problem:
        return problem
    numbers, details = payload["numbers"], payload["details"]
    k = case.expect["k"]
    # a triangulated grid with nondegenerate triangles is infinitesimally
    # rigid, so the self-stress space has dimension r1 - (2 r0 - 3)
    want_dim = (k - 2) ** 2
    basis = details.get("self_stress_basis", [])
    if numbers.get("self_stress_dim") != want_dim or len(basis) != want_dim:
        return f"statics: self-stress dimension is not {want_dim}"
    if numbers.get("classification") != ("indeterminate" if want_dim else "determinate"):
        return "statics: wrong classification"
    for x in basis:
        if not any(x.values()) or any(grid.equilibrium_product(x).values()):
            return "statics: a self-stress vector x fails A x = 0"
    if numbers.get("reconstruction_exact") is not True:
        return "statics: reconstruction_exact does not hold"
    tension = {b: _rat(q) for b, q in details.get("tension_coefficients", {}).items()}
    if set(tension) != set(grid.ends):
        return "statics: tension coefficients do not cover every branch"
    product = grid.equilibrium_product(tension)
    for (node, c), value in product.items():
        if value != -grid.force[node][c]:
            return f"statics: tensions do not balance the load at {node}"
    return None


def _check_rigidity(grid, case, payload):
    problem = _verdict(payload, "value")
    if problem:
        return problem
    r0, r1 = len(grid.nodes), len(grid.ends)
    want = {"dof": 2 * r0 - r1 - 3, "nodes": r0, "branches": r1, "dimension": 2}
    if payload["numbers"] != want:
        return f"rigidity: numbers {payload['numbers']}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# grid-homology
# ---------------------------------------------------------------------------

def _check_homology(grid, case, payload):
    problem = _verdict(payload, "value")
    if problem:
        return problem
    holes = case.expect["holes"]
    numbers = payload["numbers"]
    if numbers.get("betti") != [1, holes, 0]:
        return f"homology: betti {numbers.get('betti')}, expected [1, {holes}, 0]"
    if numbers.get("euler") != 1 - holes or numbers.get("components") != 1:
        return "homology: wrong Euler characteristic or component count"
    if numbers.get("torsion") != [[], [], []]:
        return "homology: torsion reported on a planar complex"
    gens = payload["details"].get("generators", {})
    if len(gens.get("H0", [])) != 1 or gens.get("H2") != []:
        return "homology: wrong H0 or H2 generator count"
    h1 = gens.get("H1", [])
    if len(h1) != holes:
        return f"homology: {len(h1)} H1 generators for b1 = {holes}"
    for z in h1:
        if not any(z.values()) or any(grid.boundary(z).values()):
            return "homology: an H1 generator has nonzero boundary"
    return None


_GRID_CHECKS = {
    "kcl": _check_kcl,
    "kvl": _check_kvl,
    "statics": _check_statics,
    "rigidity": _check_rigidity,
    "homology": _check_homology,
}


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def check_report(workload, case, command, payload):
    """Check one JSON report payload of a generated document."""
    if payload.get("verdict") == "error":
        return f"{command}: error verdict"
    if workload == "trajectory":
        return _verdict(payload, case.expect["verdicts"][command])
    if workload in ("grid-statics", "grid-homology"):
        return _GRID_CHECKS[command](_Grid(case.text), case, payload)
    raise ValueError(f"no semantic checks for workload {workload!r}")


def golden_blocks(golden):
    """Split a ``report-all`` text output into one block per report."""
    return golden.rstrip("\n").split("\n\n")


def check_fixture_block(case, index, block):
    """Compare the text block of a fixture's index-th report with the
    golden bytes captured from the seed commit."""
    blocks = golden_blocks(case.expect["golden"])
    if index >= len(blocks) or blocks[index] != block.rstrip("\n"):
        return f"{case.name}: report {index} differs from the golden bytes"
    return None
