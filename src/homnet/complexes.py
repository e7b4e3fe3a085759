"""Finite oriented simplicial complexes of dimension at most two.

A complex stores its branches as ordered (tail, head) node pairs and its
faces as oriented triples of signed branches; the incidence matrices of the
boundary operator are derived from that data.  Sign convention: the boundary
of a branch is head minus tail, and a face contributes each of its three
branches with the sign of the traversal.  Each face is checked to close when
it is added, which is the identity boundary(boundary(face)) = 0.

Every question about the boundary map on branches is answered by one
spanning forest (``Complex.forest``), Kirchhoff's split of the branches into
tree branches and chords.  It is built by scanning the branches in index
order and keeping each one that joins two components, so it is the forest
whose branches are the pivot columns of the echelon form of that map: the
path components are its trees, the rank is its number of branches, and the
fundamental cycle of each chord is the nullspace vector of that chord's
free column.

The boundary map on faces is collapsed (``Complex.collapse``), a
discrete-Morse matching in Forman's sense, from which the homology module
reads every answer about the faces (see ``homnet.homology``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DuplicateLabel,
    NonClosingFace,
    SelfLoopBranch,
    UnknownLabel,
)


@dataclass(frozen=True)
class SpanningForest:
    """Tree branches and chords of a complex, each tree rooted at its
    lowest-index node.

    For a node v that is not a root, branch[v] joins it to parent[v], and
    sign[v] is +1 when that branch runs parent -> v, -1 when it runs
    v -> parent.  component[v] is the root of v's tree; order lists every
    node after its parent; chords are the branches left out, in index order.
    """

    branches: tuple
    parent: tuple
    branch: tuple
    sign: tuple
    component: tuple
    order: tuple
    chords: tuple

    def cycle(self, chord):
        """Fundamental cycle of a chord as {branch: +-1}: the chord plus the
        tree path from its head back to its tail, signed +1 on its
        lowest-index branch."""
        tail, head = self.branches[chord]
        coeffs = {chord: 1}
        # walking v -> parent runs against a branch oriented parent -> v;
        # the two walks cancel above the meeting point
        for node, factor in ((head, 1), (tail, -1)):
            while self.branch[node] is not None:
                a = self.branch[node]
                coeffs[a] = coeffs.get(a, 0) - factor * self.sign[node]
                node = self.parent[node]
        coeffs = {a: v for a, v in coeffs.items() if v}
        if coeffs[min(coeffs)] < 0:
            coeffs = {a: -v for a, v in coeffs.items()}
        return coeffs


def spanning_chords(node_count, branches):
    """The chords of the spanning forest that keeps each branch joining two
    components, scanned in the order given: ``branches`` yields
    ``(index, (tail, head))``, and the indices left out are returned."""
    rep = list(range(node_count))  # union-find; each set is named by its lowest node

    def find(i):
        while rep[i] != i:
            rep[i] = rep[rep[i]]
            i = rep[i]
        return i

    chords = []
    for a, (tail, head) in branches:
        rt, rh = find(tail), find(head)
        if rt == rh:
            chords.append(a)
        else:
            rep[max(rt, rh)] = min(rt, rh)
    return chords


class Complex:
    """Inventory of nodes, branches and faces plus the boundary operator."""

    def __init__(self, node_labels, branch_endpoints, face_edges=(),
                 branch_labels=None, face_labels=None):
        self.node_labels = list(node_labels)
        r0 = len(self.node_labels)
        self._node_index = dict(zip(self.node_labels, range(r0)))
        if len(self._node_index) != r0:
            raise DuplicateLabel("node labels are not unique")
        self.branches = branches = []
        for tail, head in branch_endpoints:
            if tail == head:
                raise SelfLoopBranch(
                    f"branch with identical endpoints (node {tail})"
                )
            if not (0 <= tail < r0 and 0 <= head < r0):
                raise UnknownLabel(f"branch endpoint out of range: ({tail}, {head})")
            branches.append((tail, head))

        r1 = len(branches)
        self.faces = []
        for edges in face_edges:
            edges = tuple(edges)
            if len(edges) != 3:
                raise NonClosingFace("a face must consist of exactly three branches")
            # the face closes when its oriented branches leave each node
            # as often as they enter it
            tails, heads = [], []
            for b, s in edges:
                if not (0 <= b < r1) or s not in (-1, 1):
                    raise UnknownLabel(f"bad signed branch ({b}, {s}) in face")
                tail, head = branches[b]
                if s < 0:
                    tail, head = head, tail
                tails.append(tail)
                heads.append(head)
            tails.sort()
            heads.sort()
            if tails != heads:
                raise NonClosingFace(f"face {edges} does not close")
            self.faces.append(edges)

        if branch_labels is None:
            branch_labels = [
                f"{self.node_labels[t]}{self.node_labels[h]}" for t, h in branches
            ]
        if face_labels is None:
            face_labels = [f"f{k}" for k in range(len(self.faces))]
        self.branch_labels = list(branch_labels)
        self.face_labels = list(face_labels)
        if len(self.branch_labels) != r1:
            raise DuplicateLabel("one label per branch required")
        self._branch_index = dict(zip(self.branch_labels, range(r1)))
        if len(self._branch_index) != r1:
            raise DuplicateLabel("branch labels are not unique")
        if len(self.face_labels) != len(self.faces):
            raise DuplicateLabel("one label per face required")
        if len(set(self.face_labels)) != len(self.face_labels):
            raise DuplicateLabel("face labels are not unique")

    # -- inventory ---------------------------------------------------------

    @property
    def r(self):
        return (len(self.node_labels), len(self.branches), len(self.faces))

    @property
    def dim(self):
        r0, r1, r2 = self.r
        return 2 if r2 else (1 if r1 else 0)

    def node_index(self, label):
        try:
            return self._node_index[label]
        except KeyError:
            raise UnknownLabel(f"unknown node {label!r}") from None

    def branch_index(self, label):
        try:
            return self._branch_index[label]
        except KeyError:
            raise UnknownLabel(f"unknown branch {label!r}") from None

    def labels(self, dim):
        return (self.node_labels, self.branch_labels, self.face_labels)[dim]

    # -- boundary operator matrices -----------------------------------------

    @property
    def incidence_1(self):
        """Branch-by-node matrix of the boundary operator: -1 tail, +1 head."""
        r0 = len(self.node_labels)
        rows = []
        for tail, head in self.branches:
            row = [0] * r0
            row[tail] = -1
            row[head] = 1
            rows.append(row)
        return rows

    @property
    def incidence_2(self):
        """Face-by-branch matrix; empty when the complex has no faces."""
        r1 = len(self.branches)
        rows = []
        for edges in self.faces:
            row = [0] * r1
            for b, s in edges:
                row[b] += s
            rows.append(row)
        return rows

    @cached_property
    def forest(self):
        """The spanning forest of the branches scanned in index order."""
        r0 = len(self.node_labels)
        chords = spanning_chords(r0, enumerate(self.branches))
        tree = [[] for _ in range(r0)]
        skip = set(chords)
        for a, (tail, head) in enumerate(self.branches):
            if a not in skip:
                tree[tail].append((a, head, 1))
                tree[head].append((a, tail, -1))

        parent = [None] * r0
        branch = [None] * r0
        sign = [0] * r0
        component = [None] * r0
        order = []
        for root in range(r0):
            if component[root] is not None:
                continue
            component[root] = root
            stack = [root]
            while stack:
                u = stack.pop()
                order.append(u)
                for a, v, s in tree[u]:
                    if component[v] is None:
                        component[v] = root
                        parent[v], branch[v], sign[v] = u, a, s
                        stack.append(v)
        return SpanningForest(tuple(self.branches), tuple(parent), tuple(branch),
                              tuple(sign), tuple(component), tuple(order),
                              tuple(chords))

    @cached_property
    def collapse(self):
        """The discrete-Morse matching of the faces, as ``(pairs, critical)``:
        ``(face, branch)`` pairs in collapse order, and the critical faces.

        A branch is free when it lies in exactly one live face; matching a
        face to a free branch removes the face, which may free its other
        branches.  When no branch is free, the lowest live face is made
        critical and removed, so a closed surface has one critical face per
        component.  A matched branch lies in no face removed after its own,
        so the pairs pick a unit lower-triangular minor of the boundary on
        faces.  Shared by every caller, so read-only."""
        faces_of = [[] for _ in self.branches]
        for f, edges in enumerate(self.faces):
            for b, _ in edges:
                faces_of[b].append(f)
        live = [len(fs) for fs in faces_of]
        alive = [True] * len(self.faces)
        work = [b for b, n in enumerate(live) if n == 1]
        work.reverse()  # a stack; the lowest free branch goes first
        pairs, critical = [], []
        lowest = 0  # every face below it is removed
        while True:
            if work:
                b = work.pop()
                if live[b] != 1:
                    continue
                for f in faces_of[b]:
                    if alive[f]:
                        break
                pairs.append((f, b))
            else:
                while lowest < len(alive) and not alive[lowest]:
                    lowest += 1
                if lowest == len(alive):
                    return tuple(pairs), tuple(critical)
                f = lowest
                critical.append(f)
            alive[f] = False
            for c, _ in self.faces[f]:
                live[c] -= 1
                if live[c] == 1:
                    work.append(c)

    def __repr__(self):
        r0, r1, r2 = self.r
        return f"Complex(r0={r0}, r1={r1}, r2={r2})"


def build_complex(nodes, branches, faces=None, branch_labels=None, face_labels=None):
    """Assemble a complex from node labels, (tail, head) label pairs and
    optional faces given as oriented vertex triples.

    Each face (p, q, r) walks p -> q -> r -> p; every leg must be realized by
    an existing branch in either orientation, otherwise the face cannot close.
    """
    node_labels = list(nodes)
    index = dict(zip(node_labels, range(len(node_labels))))
    if len(index) != len(node_labels):
        raise DuplicateLabel("node labels are not unique")

    endpoint_pairs = []
    for tail, head in branches:
        if tail not in index:
            raise UnknownLabel(f"unknown node {tail!r}")
        if head not in index:
            raise UnknownLabel(f"unknown node {head!r}")
        endpoint_pairs.append((index[tail], index[head]))

    by_endpoints = {}
    for a, pair in enumerate(endpoint_pairs):
        by_endpoints.setdefault(pair, a)

    face_edges = []
    resolved_face_labels = [] if face_labels is None else None
    for face in faces or ():
        verts = list(face)
        if len(verts) != 3:
            raise NonClosingFace("a face must have three vertices")
        for v in verts:
            if v not in index:
                raise UnknownLabel(f"unknown node {v!r}")
        edges = []
        for u, v in zip(verts, verts[1:] + verts[:1]):
            iu, iv = index[u], index[v]
            if (iu, iv) in by_endpoints:
                edges.append((by_endpoints[(iu, iv)], 1))
            elif (iv, iu) in by_endpoints:
                edges.append((by_endpoints[(iv, iu)], -1))
            else:
                raise NonClosingFace(f"face {verts} needs a branch between {u!r} and {v!r}")
        face_edges.append(tuple(edges))
        if resolved_face_labels is not None:
            resolved_face_labels.append("".join(str(v) for v in verts))

    return Complex(
        node_labels,
        endpoint_pairs,
        face_edges,
        branch_labels=branch_labels,
        face_labels=face_labels if face_labels is not None else resolved_face_labels,
    )


@dataclass
class ConeResult:
    """Cone of a complex: every original node gains a branch to a fresh apex."""

    complex: Complex
    apex: int
    branch_map: list
    star: list  # star[i] = index of the new branch joining node i to the apex


def cone(complex, apex_label):
    """Join every node to a new apex vertex; the new branch at node i has
    boundary apex - node(i).  Original simplex indices are preserved."""
    if apex_label in complex.node_labels:
        raise DuplicateLabel(f"apex label {apex_label!r} already names a node")
    r0, r1, _ = complex.r
    node_labels = complex.node_labels + [apex_label]
    endpoints = list(complex.branches)
    branch_labels = list(complex.branch_labels)
    star = []
    for i in range(r0):
        star.append(len(endpoints))
        endpoints.append((i, r0))
        branch_labels.append(f"{complex.node_labels[i]}{apex_label}")
    out = Complex(
        node_labels,
        endpoints,
        complex.faces,
        branch_labels=branch_labels,
        face_labels=complex.face_labels,
    )
    return ConeResult(
        complex=out,
        apex=r0,
        branch_map=list(range(r1)),
        star=star,
    )


def fresh_label(complex, base):
    """A node label not yet taken: base, then base', base'', ..."""
    label = base
    while label in complex.node_labels:
        label += "'"
    return label


def path_components(complex):
    """Partition of the node indices by branch connectivity: the trees of the
    spanning forest, as sorted lists ordered by their lowest node."""
    groups = {}
    for i, root in enumerate(complex.forest.component):
        groups.setdefault(root, []).append(i)
    return list(groups.values())
