"""Cluster-based inference cost over a full node-to-cluster mapping.

Builds the complete two-pass schedule a cluster-structured propagation
would execute and totals its operation costs:

* a forward pass from root layers toward the leaves, keeping a cluster's
  link dimensions alive in its running partial result,
* a backward pass from the leaves upward, computed only for cluster-layers
  whose result some consumer actually folds in,
* absorption of backward results into clusters that have no incoming arcs
  (their members never get a backward partial of their own), and
* one posterior-combination step per node.

Only operation costs are produced; no probability values are touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dag import Dag, LayerAssignment, ValidationError, check_contiguity, classify_nodes
from .factors import (
    DEFAULT_WEIGHTS,
    OpCostWeights,
    marginalize_cost,
    multiply_cost,
    table_size,
)


@dataclass(frozen=True)
class InferenceStep:
    phase: str  # forward | backward | absorb | posterior
    cluster: int
    layer: int
    label: str
    cost: float


@dataclass
class InferenceCost:
    total: float
    steps: list[InferenceStep]

    def phase_total(self, phase: str) -> float:
        return sum(s.cost for s in self.steps if s.phase == phase)


class _Accumulator:
    """Tracks dims of one partial result while charging primitive costs."""

    def __init__(self, states, weights):
        self.states = states
        self.w = weights
        self.dims: frozenset[int] = frozenset()
        self.cost = 0.0

    def mult(self, dims: frozenset[int]) -> None:
        self.dims, c = multiply_cost(self.dims, dims, self.states, self.w)
        self.cost += c

    def marg(self, node: int) -> None:
        self.dims, c = marginalize_cost(self.dims, node, self.states, self.w)
        self.cost += c

    def marg_away(self, keep: frozenset[int]) -> None:
        for d in sorted(self.dims - keep):
            self.marg(d)


def _restricted(dims: frozenset[int], keep: frozenset[int], acc: _Accumulator) -> frozenset[int]:
    """Marginalize a copy of ``dims`` down to ``dims & keep``, charging acc."""
    cur = dims
    for d in sorted(dims - keep):
        cur, c = marginalize_cost(cur, d, acc.states, acc.w)
        acc.cost += c
    return cur


def cluster_inference_schedule(
    dag: Dag,
    layers: LayerAssignment,
    mapping: dict[int, int],
    weights: OpCostWeights = DEFAULT_WEIGHTS,
) -> InferenceCost:
    if not check_contiguity(dag, mapping):
        raise ValidationError("mapping is not contiguous")
    states = dag.states
    clusters: dict[int, set[int]] = {}
    for x, k in mapping.items():
        clusters.setdefault(k, set()).add(x)
    cl_layers: dict[int, list[int]] = {
        k: sorted({layers.of(x) for x in ms}, reverse=True) for k, ms in clusters.items()
    }
    members_at: dict[tuple[int, int], frozenset[int]] = {
        (k, l): frozenset(x for x in ms if layers.of(x) == l)
        for k, ms in clusters.items()
        for l in cl_layers[k]
    }
    link = classify_nodes(dag, mapping).link
    root_cluster = {
        k: all(mapping[p] == k for x in ms for p in dag.parents(x))
        for k, ms in clusters.items()
    }

    steps: list[InferenceStep] = []

    def put(phase, k, l, label, acc):
        steps.append(InferenceStep(phase, k, l, label, acc.cost))

    # ---- forward pass -----------------------------------------------------
    fwd: dict[tuple[int, int], frozenset[int]] = {}
    joint: dict[int, frozenset[int]] = {}

    for k in sorted(clusters, key=lambda k: (-cl_layers[k][0], k)):
        if root_cluster[k]:
            # No incoming arcs: fold the whole cluster's tables into one
            # joint, then give each link layer its own exported marginal.
            acc = _Accumulator(states, weights)
            for x in sorted(clusters[k], key=lambda x: (layers.of(x), x)):
                acc.mult(dag.scope(x))
            joint[k] = acc.dims
            put("forward", k, cl_layers[k][-1], f"joint over cluster {k}", acc)
            for l in cl_layers[k]:
                exported = link[k] & members_at[(k, l)]
                if exported:
                    ex = _Accumulator(states, weights)
                    ex.dims = acc.dims
                    ex.marg_away(exported)
                    fwd[(k, l)] = ex.dims
                    put("forward", k, l, f"export link dims at layer {l}", ex)

    for l in range(layers.l_max, -1, -1):
        for k in sorted(k for k in clusters if (k, l) in members_at):
            if root_cluster[k]:
                continue
            z = members_at[(k, l)]
            pending = frozenset(
                x for x in clusters[k] if layers.of(x) < l
            )
            scope = frozenset().union(*(dag.scope(x) for x in z))
            keep_in = scope | link[k] | frozenset().union(
                *(dag.parents(m) for m in pending), frozenset()
            )
            acc = _Accumulator(states, weights)
            incoming: list[tuple[frozenset[int], int, int]] = []
            above = [ll for ll in cl_layers[k] if ll > l]
            if above:
                src = min(above)
                incoming.append((fwd[(k, src)], src, k))
            ext = sorted(
                {
                    (mapping[p], layers.of(p))
                    for x in z
                    for p in dag.parents(x)
                    if mapping[p] != k
                }
            )
            for (kk, ll) in ext:
                incoming.append((fwd[(kk, ll)], ll, kk))
            restricted = [
                (_restricted(dims, keep_in, acc), ll, kk)
                for dims, ll, kk in sorted(incoming, key=lambda t: (t[1], t[2]))
            ]
            for dims, ll, kk in sorted(
                restricted, key=lambda t: (table_size(t[0], states), t[1], t[2])
            ):
                acc.mult(dims)
            for x in sorted(z):
                acc.mult(dag.scope(x))
            keep_out = (
                (link[k] & acc.dims)
                | frozenset(x for x in z if not dag.children(x))
                | frozenset(
                    x for x in z if any(mapping[c] == k for c in dag.children(x))
                )
                | frozenset().union(*(dag.parents(m) for m in pending), frozenset())
            )
            acc.marg_away(keep_out)
            fwd[(k, l)] = acc.dims
            put("forward", k, l, f"partial for cluster {k} layer {l}", acc)

    # ---- backward pass (needed results only) -------------------------------
    child_cls: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (k, l), z in members_at.items():
        seen = sorted(
            {
                (mapping[c], layers.of(c))
                for x in z
                for c in dag.children(x)
            }
        )
        child_cls[(k, l)] = seen

    needed: set[tuple[int, int]] = set()

    def require(cl: tuple[int, int]) -> None:
        if cl in needed or root_cluster[cl[0]]:
            return
        needed.add(cl)
        for sub in child_cls[cl]:
            require(sub)

    for k, ms in clusters.items():
        if root_cluster[k]:
            for x in ms:
                for c in dag.children(x):
                    if mapping[c] != k:
                        require((mapping[c], layers.of(c)))
        else:
            for x in ms:
                for c in dag.children(x):
                    require((mapping[c], layers.of(c)))

    bwd: dict[tuple[int, int], frozenset[int]] = {}
    for (k, l) in sorted(needed, key=lambda t: (t[1], t[0])):
        z = members_at[(k, l)]
        scope = frozenset().union(*(dag.scope(x) for x in z))
        acc = _Accumulator(states, weights)
        incoming = [
            (bwd[cl], cl[1], cl[0]) for cl in child_cls[(k, l)] if cl in bwd
        ]
        restricted = [
            (_restricted(dims, scope, acc), ll, kk)
            for dims, ll, kk in sorted(incoming, key=lambda t: (t[1], t[2]))
        ]
        for dims, ll, kk in sorted(
            restricted, key=lambda t: (table_size(t[0], states), t[1], t[2])
        ):
            acc.mult(dims)
        for x in sorted(z):
            acc.mult(dag.scope(x))
        for x in sorted(z):
            if all(mapping[c] == k for c in dag.children(x)):
                acc.marg(x)
        bwd[(k, l)] = acc.dims
        put("backward", k, l, f"upward partial for cluster {k} layer {l}", acc)

    # ---- absorption into root clusters -------------------------------------
    absorbed: dict[int, frozenset[int]] = {}
    for k in sorted(clusters):
        if not root_cluster[k]:
            continue
        ext = sorted(
            {
                (mapping[c], layers.of(c))
                for x in clusters[k]
                for c in dag.children(x)
                if mapping[c] != k
            }
        )
        if not ext:
            absorbed[k] = joint[k]
            continue
        acc = _Accumulator(states, weights)
        cluster_dims = frozenset(clusters[k])
        parts = [
            (_restricted(bwd[cl], cluster_dims, acc), cl[1], cl[0]) for cl in ext
        ]
        parts.append((joint[k], layers.of(min(clusters[k])), k))
        for dims, ll, kk in sorted(parts, key=lambda t: (table_size(t[0], states), t[1], t[2])):
            acc.mult(dims)
        absorbed[k] = acc.dims
        put("absorb", k, cl_layers[k][-1], f"fold upward results into cluster {k}", acc)

    # ---- posteriors ---------------------------------------------------------
    for x in sorted(dag.node_ids()):
        k = mapping[x]
        l = layers.of(x)
        acc = _Accumulator(states, weights)
        if root_cluster[k]:
            acc.dims = absorbed[k]
            acc.marg_away(frozenset({x}))
        else:
            own = fwd[(k, l)]
            child_sources = sorted(
                {(mapping[c], layers.of(c)) for c in dag.children(x)}
            )
            parts = [
                (_restricted(bwd[cl], own, acc), cl[1], cl[0])
                for cl in child_sources
            ]
            parts.append((own, l, k))
            if len(parts) > 1:
                for dims, ll, kk in sorted(
                    parts, key=lambda t: (table_size(t[0], states), t[1], t[2])
                ):
                    acc.mult(dims)
            else:
                acc.dims = own
            acc.marg_away(frozenset({x}))
        put("posterior", k, l, f"posterior of {dag.name(x)}", acc)

    total = sum(s.cost for s in steps)
    return InferenceCost(total=total, steps=steps)


def cluster_inference_cost(
    dag: Dag,
    layers: LayerAssignment,
    mapping: dict[int, int],
    weights: OpCostWeights = DEFAULT_WEIGHTS,
) -> float:
    return cluster_inference_schedule(dag, layers, mapping, weights).total
