"""Cluster-based inference cost over a full node-to-cluster mapping.

Builds the complete two-pass schedule a cluster-structured propagation
would execute and totals its operation costs:

* a forward pass from root layers toward the leaves, keeping a cluster's
  link dimensions alive in its running partial result,
* a backward pass from the leaves upward, computed only for cluster-layers
  whose result some consumer actually folds in; each upward partial is the
  search engine's transition for that cluster-layer,
* absorption of backward results into clusters that have no incoming arcs
  (their members never get a backward partial of their own), and
* one posterior-combination step per node.

Only operation costs are produced; no probability values are touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dag import Dag, LayerAssignment, ValidationError, check_contiguity
from .costs import BnComputationCost, JEntry, layer_transitions
from .factors import DEFAULT_WEIGHTS, OpCostWeights, fold, marginalize_away


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
    # Every arc between two clusters, read once.  Its tail is a link node,
    # its head's cluster is not a root cluster, and it gives the head's
    # cluster-layer a source and the tail's cluster a sink.
    link: dict[int, set[int]] = {k: set() for k in clusters}
    sources: dict[tuple[int, int], set[tuple[int, int]]] = {}
    sinks: dict[int, set[tuple[int, int]]] = {}
    for p, c in dag.arcs:
        kp, kc = mapping[p], mapping[c]
        if kp != kc:
            link[kp].add(p)
            sources.setdefault((kc, layers.of(c)), set()).add((kp, layers.of(p)))
            sinks.setdefault(kp, set()).add((kc, layers.of(c)))
    roots = clusters.keys() - {k for k, _ in sources}

    steps: list[InferenceStep] = []

    def put(phase, k, l, label, cost):
        steps.append(InferenceStep(phase, k, l, label, cost))

    # ---- forward pass -----------------------------------------------------
    fwd: dict[tuple[int, int], frozenset[int]] = {}
    joint: dict[int, frozenset[int]] = {}

    for k in sorted(clusters, key=lambda k: (-cl_layers[k][0], k)):
        if k in roots:
            # No incoming arcs: fold the whole cluster's tables into one
            # joint, then give each link layer its own exported marginal.
            own = sorted(clusters[k], key=lambda x: (layers.of(x), x))
            joint[k], cost = fold((), None, [dag.scope(x) for x in own], states, weights)
            put("forward", k, cl_layers[k][-1], f"joint over cluster {k}", cost)
            for l in cl_layers[k]:
                exported = link[k] & members_at[(k, l)]
                if exported:
                    fwd[(k, l)], cost = marginalize_away(joint[k], exported, states, weights)
                    put("forward", k, l, f"export link dims at layer {l}", cost)

    for l in range(layers.l_max, -1, -1):
        for k in sorted(k for k in clusters if (k, l) in members_at):
            if k in roots:
                continue
            z = members_at[(k, l)]
            pending_parents = frozenset().union(
                *(dag.parents(x) for x in clusters[k] if layers.of(x) < l)
            )
            scope = frozenset().union(*(dag.scope(x) for x in z))
            incoming: list[tuple[frozenset[int], int, int]] = []
            above = [ll for ll in cl_layers[k] if ll > l]
            if above:
                src = min(above)
                incoming.append((fwd[(k, src)], src, k))
            for (kk, ll) in sorted(sources.get((k, l), ())):
                incoming.append((fwd[(kk, ll)], ll, kk))
            dims, cost = fold(
                sorted(incoming, key=lambda t: (t[1], t[2])),
                scope | link[k] | pending_parents,
                [dag.scope(x) for x in sorted(z)],
                states,
                weights,
            )
            keep_out = (
                link[k]
                | frozenset(
                    x
                    for x in z
                    if not dag.children(x) or any(mapping[c] == k for c in dag.children(x))
                )
                | pending_parents
            )
            fwd[(k, l)], cost = marginalize_away(dims, keep_out, states, weights, cost)
            put("forward", k, l, f"partial for cluster {k} layer {l}", cost)

    # ---- backward pass (needed results only) -------------------------------
    # A cluster-layer's upward partial is needed when one of its members has
    # a parent; root clusters absorb instead.  Each partial is the engine's
    # transition for that cluster-layer.
    needed = {
        (mapping[x], layers.of(x))
        for x in dag.node_ids()
        if dag.parents(x) and mapping[x] not in roots
    }
    engine = BnComputationCost(dag, layers, weights)
    entries: list[JEntry] = []
    bwd: dict[tuple[int, int], frozenset[int]] = {}
    for l in range(layers.l_max + 1):
        nodes = [x for x in layers.members.get(l, ()) if (mapping[x], l) in needed]
        for e, cost in layer_transitions(engine, mapping, entries, l, nodes):
            bwd[(e.cluster, l)] = e.dims
            put("backward", e.cluster, l, f"upward partial for cluster {e.cluster} layer {l}", cost)

    # ---- absorption into root clusters -------------------------------------
    root_dims: dict[int, frozenset[int]] = {}
    for k in sorted(clusters):
        if k not in roots:
            continue
        ext = sorted(sinks.get(k, ()))
        if not ext:
            root_dims[k] = joint[k]
            continue
        # The joint lies within the cluster, so cutting it charges nothing.
        parts = [(bwd[cl], cl[1], cl[0]) for cl in ext]
        parts.append((joint[k], layers.of(min(clusters[k])), k))
        root_dims[k], cost = fold(parts, frozenset(clusters[k]), (), states, weights)
        put("absorb", k, cl_layers[k][-1], f"fold upward results into cluster {k}", cost)

    # ---- posteriors ---------------------------------------------------------
    for x in sorted(dag.node_ids()):
        k = mapping[x]
        l = layers.of(x)
        cost = 0.0
        if k in roots:
            dims = root_dims[k]
        else:
            dims = fwd[(k, l)]
            child_sources = sorted(
                {(mapping[c], layers.of(c)) for c in dag.children(x)}
            )
            # With no child sources the own partial is used as it is.
            if child_sources:
                parts = [(bwd[cl], cl[1], cl[0]) for cl in child_sources]
                parts.append((dims, l, k))
                dims, cost = fold(parts, dims, (), states, weights)
        _, cost = marginalize_away(dims, frozenset({x}), states, weights, cost)
        put("posterior", k, l, f"posterior of {dag.name(x)}", cost)

    total = sum(s.cost for s in steps)
    return InferenceCost(total=total, steps=steps)


def cluster_inference_cost(
    dag: Dag,
    layers: LayerAssignment,
    mapping: dict[int, int],
    weights: OpCostWeights = DEFAULT_WEIGHTS,
) -> float:
    return cluster_inference_schedule(dag, layers, mapping, weights).total
