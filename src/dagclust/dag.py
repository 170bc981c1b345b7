"""Directed acyclic graph model and layer machinery.

Nodes carry dense integer ids 1..n assigned in input order.  The layer of a
node is the length of the longest directed path from it to any leaf, so
leaves sit at layer 0 and no arc ever connects two nodes of the same layer.
Layers are the stage variable of the cluster-mapping search: costs accrue one
cluster-layer at a time, from the leaves upward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class ValidationError(ValueError):
    """The input graph violates a structural requirement."""


class CapExceededError(RuntimeError):
    """An exact enumeration was refused because the space is too large."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"search space has {size} mappings, exceeds cap {cap}")
        self.size = size
        self.cap = cap


class Dag:
    """An immutable DAG over nodes 1..n with per-node state counts.

    ``states[i]`` is the number of discrete states of node i; probability
    tables are never materialized, only their shapes enter cost arithmetic.
    """

    def __init__(
        self,
        names: list[str],
        arcs: list[tuple[int, int]],
        states: dict[int, int] | None = None,
    ):
        self.names: tuple[str, ...] = tuple(names)
        self.n = len(names)
        if len(set(names)) != self.n:
            raise ValidationError("duplicate node names")
        states = states or {}
        unknown = sorted(map(repr, set(states) - set(self.node_ids())))
        if unknown:
            raise ValidationError(f"state table names unknown node ids: {', '.join(unknown)}")
        self.states: dict[int, int] = {i: states.get(i, 2) for i in self.node_ids()}
        for i, k in self.states.items():
            if type(k) is not int:
                raise ValidationError(f"node {self.name(i)} has state count {k!r}, not an integer")
            if k < 1:
                raise ValidationError(f"node {self.name(i)} has state count {k} < 1")
        seen = set()
        for p, c in arcs:
            if p == c:
                raise ValidationError(f"self-arc on node {self.name(p)}")
            if not (1 <= p <= self.n and 1 <= c <= self.n):
                raise ValidationError(f"arc ({p},{c}) references unknown node id")
            if (p, c) in seen:
                raise ValidationError(f"duplicate arc {self.name(p)} -> {self.name(c)}")
            seen.add((p, c))
        self.arcs: frozenset[tuple[int, int]] = frozenset(seen)
        kids: dict[int, set[int]] = {i: set() for i in self.node_ids()}
        pars: dict[int, set[int]] = {i: set() for i in self.node_ids()}
        for p, c in self.arcs:
            kids[p].add(c)
            pars[c].add(p)
        self._children: dict[int, frozenset[int]] = {i: frozenset(kids[i]) for i in self.node_ids()}
        self._parents: dict[int, frozenset[int]] = {i: frozenset(pars[i]) for i in self.node_ids()}
        self._scope: dict[int, frozenset[int]] = {i: self._parents[i] | {i} for i in self.node_ids()}
        self._validate()

    def node_ids(self) -> range:
        return range(1, self.n + 1)

    def name(self, i: int) -> str:
        return self.names[i - 1]

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise ValidationError(f"unknown node name {name!r}") from None

    def children(self, i: int) -> frozenset[int]:
        return self._children[i]

    def parents(self, i: int) -> frozenset[int]:
        return self._parents[i]

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(i for i in self.node_ids() if not self._children[i])

    def scope(self, i: int) -> frozenset[int]:
        """Dimensions of node i's conditional table: the node plus its parents."""
        return self._scope[i]

    def _validate(self) -> None:
        if self.n == 0:
            raise ValidationError("no nodes")
        # Kahn's algorithm doubles as the cycle check.
        indeg = {i: len(self._parents[i]) for i in self.node_ids()}
        ready = [i for i in self.node_ids() if indeg[i] == 0]
        order = []
        while ready:
            x = ready.pop()
            order.append(x)
            for c in self._children[x]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != self.n:
            raise ValidationError("graph contains a directed cycle")
        # Every node after all of its children.
        self._bottom_up: tuple[int, ...] = tuple(reversed(order))
        if len(weak_components(self.n, self.arcs)) > 1:
            raise ValidationError("graph is not weakly connected; split it into components first")


def weak_components(n: int, arcs: Iterable[tuple[int, int]]) -> list[set[int]]:
    """The weak components of a graph over nodes 1..n, ordered by smallest
    member."""
    root = list(range(n + 1))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for p, c in arcs:
        root[find(p)] = find(c)
    comps: dict[int, set[int]] = {}
    for i in range(1, n + 1):
        comps.setdefault(find(i), set()).add(i)
    return list(comps.values())


@dataclass(frozen=True)
class LayerAssignment:
    """Layer per node plus per-layer member lists (ascending node id)."""

    layer: dict[int, int]
    l_max: int
    members: dict[int, tuple[int, ...]]

    def of(self, i: int) -> int:
        return self.layer[i]


def assign_layers(dag: Dag) -> LayerAssignment:
    """One pass from the leaves up: a node's layer is one more than the
    largest layer among its children, and 0 for a leaf.  A node is taken
    once its last child has raised it, so each node is taken once."""
    layer = dict.fromkeys(dag.node_ids(), 0)
    kids_left = {x: len(dag.children(x)) for x in dag.node_ids()}
    todo = list(dag.leaves)
    while todo:
        x = todo.pop()
        up = layer[x] + 1
        for p in dag.parents(x):
            if layer[p] < up:
                layer[p] = up
            kids_left[p] -= 1
            if not kids_left[p]:
                todo.append(p)
    l_max = max(layer.values(), default=0)
    members = {
        l: tuple(sorted(i for i in dag.node_ids() if layer[i] == l))
        for l in range(l_max + 1)
    }
    return LayerAssignment(layer=layer, l_max=l_max, members=members)


def founding_labels(dag: Dag, layers: LayerAssignment) -> dict[int, int]:
    """Reserved cluster label per node: rank in (layer, node id) order.

    Leaves take 1..#leaves, then each higher layer continues the count, so a
    node opening its own cluster can never collide with an existing label.
    """
    order = sorted(dag.node_ids(), key=lambda i: (layers.of(i), i))
    return {x: r + 1 for r, x in enumerate(order)}


def proposal_clusters(dag: Dag, labels: dict[int, int], u: dict[int, int], x: int) -> list[int]:
    """The clusters node x may take under the partial mapping ``u``: those of
    its assigned children, ascending, then its founding label, the largest
    since every child's cluster opened at a lower layer.  So a leaf opens its
    own cluster.  The search pushes proposals in this order, so the solution
    streams depend on it."""
    return sorted({u[c] for c in dag.children(x) if c in u}) + [labels[x]]


def _require_total(dag: Dag, mapping: dict[int, int]) -> None:
    missing = [dag.name(i) for i in dag.node_ids() if not mapping.get(i)]
    # With every id present, a mapping of length n holds no other key.
    if missing or len(mapping) != dag.n:
        unknown = sorted(map(repr, mapping.keys() - dag.node_ids()))
        if unknown:
            raise ValidationError(f"mapping names unknown node ids: {', '.join(unknown)}")
        raise ValidationError(f"mapping leaves nodes unassigned: {', '.join(missing)}")


def keeps_contiguity(dag: Dag, u: dict[int, int], xs: Iterable[int], k: int) -> bool:
    """True iff no directed path that leaves cluster k from a node of ``xs``
    comes back into k.

    Walks downward from the children of ``xs`` that lie outside k, staying
    outside k, with one shared ``seen`` set.  ``u`` may be partial: only the
    descendants of ``xs`` are read, and an unassigned node counts as outside.
    """
    children = dag._children
    stack = [c for x in xs for c in children[x] if u.get(c) != k]
    seen = set(stack)
    while stack:
        for c in children[stack.pop()]:
            if c not in seen:
                if u.get(c) == k:
                    return False
                seen.add(c)
                stack.append(c)
    return True


def check_contiguity(dag: Dag, mapping: dict[int, int]) -> bool:
    """True iff no directed path leaves a cluster and later re-enters it.

    One pass, children first, gives each node the set of clusters at or
    below it.  A path leaves x's cluster and comes back exactly when x has
    a child in another cluster whose set holds x's cluster.
    """
    _require_total(dag, mapping)
    children = dag._children
    below: dict[int, set[int]] = {}
    for x in dag._bottom_up:
        k = mapping[x]
        mine = {k}
        for c in children[x]:
            theirs = below[c]
            if k in theirs and mapping[c] != k:
                return False
            mine |= theirs
        below[x] = mine
    return True


def search_space_size(dag: Dag, layers: LayerAssignment) -> int:
    """Exact count of proposal-rule mappings: prod over non-leaf nodes of
    (out-degree + 1), each node taking a fresh cluster or a child's."""
    size = 1
    for l in range(1, layers.l_max + 1):
        for x in layers.members.get(l, ()):
            size *= len(dag.children(x)) + 1
    return size


# ---------------------------------------------------------------------------
# Text format: line-oriented, '#' comments.
#   node <name> [states=<k>]
#   edge <parent-name> <child-name>


def parse_dag_text(text: str) -> Dag:
    names: list[str] = []
    states: dict[int, int] = {}
    arcs: list[tuple[int, int]] = []
    pending_edges: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "node":
            if len(parts) < 2:
                raise ValidationError(f"line {lineno}: node line needs a name")
            name = parts[1]
            if name in names:
                raise ValidationError(f"line {lineno}: duplicate node {name!r}")
            names.append(name)
            for opt in parts[2:]:
                if opt.startswith("states="):
                    try:
                        states[len(names)] = int(opt.split("=", 1)[1])
                    except ValueError:
                        raise ValidationError(
                            f"line {lineno}: bad states value {opt!r}"
                        ) from None
                else:
                    raise ValidationError(f"line {lineno}: unknown option {opt!r}")
        elif kind == "edge":
            if len(parts) != 3:
                raise ValidationError(f"line {lineno}: edge line needs two names")
            pending_edges.append((parts[1], parts[2], lineno))
        else:
            raise ValidationError(f"line {lineno}: unknown directive {kind!r}")
    if not names:
        raise ValidationError("no nodes")
    index = {name: i + 1 for i, name in enumerate(names)}
    for pname, cname, lineno in pending_edges:
        if pname not in index or cname not in index:
            raise ValidationError(f"line {lineno}: edge references unknown node")
        arcs.append((index[pname], index[cname]))
    return Dag(names, arcs, states)


def load_dag(path: str) -> Dag:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dag_text(fh.read())


def format_dag_text(dag: Dag) -> str:
    lines = []
    for i in dag.node_ids():
        if dag.states[i] != 2:
            lines.append(f"node {dag.name(i)} states={dag.states[i]}")
        else:
            lines.append(f"node {dag.name(i)}")
    for p, c in sorted(dag.arcs):
        lines.append(f"edge {dag.name(p)} {dag.name(c)}")
    return "\n".join(lines) + "\n"


def seven_node_example() -> Dag:
    """The seven-node binary example network used throughout the tests."""
    return parse_dag_text(
        "node A\nnode B\nnode C\nnode D\nnode E\nnode F\nnode G\n"
        "edge A F\nedge A D\nedge B D\nedge C E\nedge D G\nedge E G\n"
    )
