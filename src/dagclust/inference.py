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
``cluster_inference_schedule`` and ``cluster_inference_cost`` run one walk
of the four passes; the cost path keeps only the step costs.

Each ``Dag`` has one ``StepMemo`` per weighting, held weakly and so
released with the ``Dag``.  Every step is looked up there after
validation: a product (a fold and the sum-out that continues it) on its
parts, ``keep`` set, folded nodes and kept set; a plain sum-out on its
dims and kept set; an upward partial, through ``layer_transitions``, on
the engine's own ``_step`` key.  Each entry is costed from 0.0, so a hit
returns the float a fresh walk would add up.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .dag import Dag, LayerAssignment, ValidationError, check_contiguity
from .costs import BnComputationCost, JEntry, StepMemo, layer_transitions
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
    costs: list[float] = []
    notes: list[tuple] = []
    _walk(dag, layers, mapping, weights, costs, notes)
    steps = []
    for cost, (phase, k, l, label, *args) in zip(costs, notes):
        if phase == "posterior":
            args = map(dag.name, args)
        steps.append(InferenceStep(phase, k, l, label.format(*args), cost))
    return InferenceCost(total=sum(s.cost for s in steps), steps=steps)


def cluster_inference_cost(
    dag: Dag,
    layers: LayerAssignment,
    mapping: dict[int, int],
    weights: OpCostWeights = DEFAULT_WEIGHTS,
) -> float:
    """``cluster_inference_schedule(...).total``, without building the steps."""
    costs: list[float] = []
    _walk(dag, layers, mapping, weights, costs)
    return sum(costs)


# Per Dag, then per weighting.  The weights key holds each weight's type:
# 3 == 3.0, but an int weight times a table size past 2**53 rounds once
# where a float one rounds twice.
_MEMOS: weakref.WeakKeyDictionary[Dag, dict[tuple, StepMemo]] = weakref.WeakKeyDictionary()


def _memo(dag: Dag, w: OpCostWeights) -> StepMemo:
    per_dag = _MEMOS.get(dag)
    if per_dag is None:
        per_dag = _MEMOS[dag] = {}
    key = tuple((type(v), v) for v in (w.add, w.mul, w.div))
    memo = per_dag.get(key)
    if memo is None:
        memo = per_dag[key] = StepMemo()
    return memo


def _walk(
    dag: Dag,
    layers: LayerAssignment,
    mapping: dict[int, int],
    weights: OpCostWeights,
    costs: list[float],
    notes: list[tuple] | None = None,
) -> None:
    """Cost the four passes over ``mapping`` in order, appending each
    step's cost to ``costs`` and, when ``notes`` is given, its
    ``(phase, cluster, layer, label, *args)`` to ``notes``.  The step's
    label is ``label.format(*args)``, with a posterior's node id resolved
    to its name first."""
    if not check_contiguity(dag, mapping):
        raise ValidationError("mapping is not contiguous")
    states, layer, scope = dag.states, layers.layer, dag.scope
    memo = _memo(dag, weights)
    steps, share = memo.steps, memo.share
    put = costs.append

    def product(parts, keep, nodes, kept):
        """``fold`` of ``parts`` and the tables of ``nodes`` cut to ``keep``,
        then summed out down to ``kept`` unless that is None."""
        key = ("product", parts, keep, nodes, kept)
        hit = steps.get(key)
        if hit is None:
            dims, cost = fold(parts, keep, [scope(x) for x in nodes], states, weights)
            if kept is not None:
                dims, cost = marginalize_away(dims, kept, states, weights, cost)
            hit = memo.store(key, (share(dims), cost))
        return hit

    def sum_out(dims, kept):
        """``marginalize_away(dims, kept)`` from cost 0.0."""
        key = ("sum", dims, kept)
        hit = steps.get(key)
        if hit is None:
            out, cost = marginalize_away(dims, kept, states, weights)
            hit = memo.store(key, (share(out), cost))
        return hit

    clusters: dict[int, list[int]] = {}
    members_at: dict[tuple[int, int], list[int]] = {}
    for x, k in mapping.items():
        clusters.setdefault(k, []).append(x)
        members_at.setdefault((k, layer[x]), []).append(x)
    # Each cluster's layers, top first.
    cl_layers: dict[int, list[int]] = {}
    for k, l in sorted(members_at, key=lambda kl: -kl[1]):
        cl_layers.setdefault(k, []).append(l)
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
            sources.setdefault((kc, layer[c]), set()).add((kp, layer[p]))
            sinks.setdefault(kp, set()).add((kc, layer[c]))
    roots = clusters.keys() - {k for k, _ in sources}

    # ---- forward pass -----------------------------------------------------
    fwd: dict[tuple[int, int], frozenset[int]] = {}
    joint: dict[int, frozenset[int]] = {}

    for k in sorted(roots, key=lambda k: (-cl_layers[k][0], k)):
        # No incoming arcs: fold the whole cluster's tables into one
        # joint, then give each link layer its own exported marginal.
        own = tuple(sorted(clusters[k], key=lambda x: (layer[x], x)))
        joint[k], cost = product((), None, own, None)
        put(cost)
        if notes is not None:
            notes.append(("forward", k, cl_layers[k][-1], "joint over cluster {}", k))
        for l in cl_layers[k]:
            exported = link[k].intersection(members_at[(k, l)])
            if exported:
                fwd[(k, l)], cost = sum_out(joint[k], frozenset(exported))
                put(cost)
                if notes is not None:
                    notes.append(("forward", k, l, "export link dims at layer {}", l))

    for k, l in sorted(members_at, key=lambda kl: (-kl[1], kl[0])):
        if k in roots:
            continue
        z = members_at[(k, l)]
        own_layers = cl_layers[k]
        i = own_layers.index(l)
        pending_parents = frozenset().union(
            *(dag.parents(x) for ll in own_layers[i + 1 :] for x in members_at[(k, ll)])
        )
        # The partial from the cluster's next layer up, and one per source.
        inputs = sources.get((k, l), set()) | ({(k, own_layers[i - 1])} if i else set())
        # A member with a child outside the cluster is a link node, so every
        # member survives: as a link, a leaf, or a parent of a member.
        fwd[(k, l)], cost = product(
            tuple((fwd[kl], kl[1], kl[0]) for kl in sorted(inputs, key=lambda kl: (kl[1], kl[0]))),
            frozenset().union(*map(scope, z)) | link[k] | pending_parents,
            tuple(sorted(z)),
            pending_parents.union(link[k], z),
        )
        put(cost)
        if notes is not None:
            notes.append(("forward", k, l, "partial for cluster {} layer {}", k, l))

    # ---- backward pass (needed results only) -------------------------------
    # A cluster-layer's upward partial is needed when one of its members has
    # a parent; root clusters absorb instead.  Each partial is the engine's
    # transition for that cluster-layer.
    needed = {
        (mapping[x], layer[x])
        for x in dag.node_ids()
        if dag.parents(x) and mapping[x] not in roots
    }
    engine = BnComputationCost(dag, layers, weights)
    entries: list[JEntry] = []
    bwd: dict[tuple[int, int], frozenset[int]] = {}
    for l in range(layers.l_max + 1):
        nodes = [x for x in layers.members.get(l, ()) if (mapping[x], l) in needed]
        for e, cost in layer_transitions(engine, mapping, entries, l, nodes, memo):
            bwd[(e.cluster, l)] = e.dims
            put(cost)
            if notes is not None:
                label = "upward partial for cluster {} layer {}"
                notes.append(("backward", e.cluster, l, label, e.cluster, l))

    # ---- absorption into root clusters -------------------------------------
    root_dims: dict[int, frozenset[int]] = {}
    for k in sorted(roots):
        ext = sorted(sinks.get(k, ()))
        if not ext:
            root_dims[k] = joint[k]
            continue
        # The joint lies within the cluster, so cutting it charges nothing.
        parts = [(bwd[cl], cl[1], cl[0]) for cl in ext]
        parts.append((joint[k], layer[min(clusters[k])], k))
        root_dims[k], cost = product(tuple(parts), frozenset(clusters[k]), (), None)
        put(cost)
        if notes is not None:
            notes.append(("absorb", k, cl_layers[k][-1], "fold upward results into cluster {}", k))

    # ---- posteriors ---------------------------------------------------------
    for x in dag.node_ids():
        k = mapping[x]
        l = layer[x]
        if k in roots:
            _, cost = sum_out(root_dims[k], frozenset((x,)))
        else:
            dims = fwd[(k, l)]
            child_sources = sorted({(mapping[c], layer[c]) for c in dag.children(x)})
            # With no child sources the own partial is used as it is.
            if child_sources:
                parts = [(bwd[cl], cl[1], cl[0]) for cl in child_sources]
                parts.append((dims, l, k))
                _, cost = product(tuple(parts), dims, (), frozenset((x,)))
            else:
                _, cost = sum_out(dims, frozenset((x,)))
        put(cost)
        if notes is not None:
            notes.append(("posterior", k, l, "posterior of {}", x))
