"""Cluster-based inference cost over a full node-to-cluster mapping.

Builds the complete two-pass schedule a cluster-structured propagation
would execute and totals its operation costs:

* a forward pass from root layers toward the leaves, keeping a cluster's
  link dimensions alive in its running partial result,
* a backward pass from the leaves upward, computed only for cluster-layers
  whose result some consumer actually folds in; each upward partial is the
  search engine's transition step for that cluster-layer,
* absorption of backward results into clusters that have no incoming arcs
  (their members never get a backward partial of their own), and
* one posterior-combination step per node.

Only operation costs are produced; no probability values are touched.
``cluster_inference_schedule`` and ``cluster_inference_cost`` run one walk
of the four passes; the cost path keeps only the step costs.

What a cluster's steps read depends only on its member set and the layers:
its layers, top first, with the members, the forward cut and kept set and
the upward summed set of each, its link nodes, and its members' parents
and children outside it with their layers.  A ``_Cluster`` holds these
facts, built at a member set's first use and kept per ``Dag`` and
layering, keyed on every node's layer.  A walk reads the mapping only to
name the clusters on the far side of those arcs.  The upward pass gathers
a cluster-layer's inputs from the same facts, one per cluster-layer that
holds a child of a member, as the posterior step does per node, and runs
``costs.transition_step`` on them, so no cost model is built.

Each ``Dag`` also has one ``StepMemo`` per weighting.  Both are held
weakly and so released with the ``Dag``.  Every step is looked up in the
memo after validation: a product (a fold and the sum-out that continues
it) on its parts, ``keep`` set, folded nodes and kept set; a plain sum-out
on its dims and kept set; an upward partial on the transition's own
``(zset, parts, summed)`` key.  Each entry is costed from 0.0, so a hit
returns the float a fresh walk would add up.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import NamedTuple

from .dag import Dag, LayerAssignment, ValidationError, check_contiguity
from .costs import StepMemo, transition_step
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
    notes: list[tuple[str, int, int, str]] = []
    _walk(dag, layers, mapping, weights, costs, notes)
    steps = [InferenceStep(*note, cost) for note, cost in zip(notes, costs)]
    return InferenceCost(total=reduce(add, costs, 0.0), steps=steps)


def cluster_inference_cost(
    dag: Dag,
    layers: LayerAssignment,
    mapping: dict[int, int],
    weights: OpCostWeights = DEFAULT_WEIGHTS,
) -> float:
    """``cluster_inference_schedule(...).total``, without building the steps.
    Both add the step costs left to right, so the total is one float on
    every Python: ``sum`` compensates from 3.12 on."""
    costs: list[float] = []
    _walk(dag, layers, mapping, weights, costs)
    return reduce(add, costs, 0.0)


class _Row(NamedTuple):
    """One layer of a cluster: its members and what its steps read."""

    layer: int
    above: int  # the cluster's next layer up, or -1 at its top
    zset: frozenset[int]
    nodes: tuple[int, ...]  # ascending id
    keep: frozenset[int]  # a forward partial's cut: tables, links, pending parents
    kept: frozenset[int]  # what its sum-out keeps: members, links, pending parents
    exported: frozenset[int]  # link members, exported from a root cluster's joint
    summed: frozenset[int]  # members with no child outside: the upward sum-out
    needed: bool  # a member has a parent, so a consumer folds the upward partial
    sources: tuple[tuple[int, int], ...]  # (parent outside, its layer)
    below: tuple[int, ...]  # the layers of the children inside
    out: tuple[tuple[int, int], ...]  # (child outside, its layer)


class _Cluster(NamedTuple):
    """What one member set fixes under one layering."""

    members: frozenset[int]
    root: bool  # no member has a parent outside
    own: tuple[int, ...]  # members in (layer, id) order: the joint's tables
    low: int  # the layer of the lowest id, where an absorption puts the joint
    rows: tuple[_Row, ...]  # top layer first
    sinks: tuple[tuple[int, int], ...]  # (child outside, its layer)


class _Facts:
    """One layering's facts: each node's layer, its singleton and its
    children with their layers, and each member set's ``_Cluster``, built
    at its first use.  ``pool`` keeps one copy of each set."""

    __slots__ = ("layer", "top", "nodes", "clusters", "pool")

    def __init__(self, dag: Dag, layer: dict[int, int]):
        # The Dag is not kept: its weak entry holds this.
        self.layer = dict(layer)
        self.top = max(layer.values())
        self.pool = StepMemo()
        self.clusters: dict[frozenset[int], _Cluster] = {}
        self.nodes = tuple(
            (x, layer[x], frozenset((x,)), tuple((c, layer[c]) for c in sorted(dag.children(x))))
            for x in dag.node_ids()
        )

    def cluster(self, dag: Dag, members: frozenset[int]) -> _Cluster:
        layer, share = self.layer, self.pool.share
        at: dict[int, list[int]] = {}
        for x in sorted(members):
            at.setdefault(layer[x], []).append(x)
        link = frozenset(x for x in members if not dag.children(x) <= members)
        rows = []
        # The parents of the members below, bottom layer first.
        pending: frozenset[int] = frozenset()
        up = sorted(at)
        for i, l in enumerate(up):
            z = at[l]
            zset = frozenset(z)
            kids = [c for x in z for c in dag.children(x)]
            parents = [p for x in z for p in dag.parents(x)]
            rows.append(_Row(
                l,
                up[i + 1] if i + 1 < len(up) else -1,
                share(zset),
                tuple(z),
                share(frozenset().union(*map(dag.scope, z)) | link | pending),
                share(pending.union(link, z)),
                share(link & zset),
                share(zset - link),
                bool(parents),
                tuple({(p, layer[p]) for p in parents if p not in members}),
                tuple({layer[c] for c in kids if c in members}),
                tuple({(c, layer[c]) for c in kids if c not in members}),
            ))
            pending = pending.union(parents)
        rows.reverse()
        f = _Cluster(
            share(members),
            not any(row.sources for row in rows),
            tuple(sorted(members, key=lambda x: (layer[x], x))),
            layer[min(members)],
            tuple(rows),
            tuple(co for row in rows for co in row.out),
        )
        self.clusters[f.members] = f
        return f


class _Tables:
    """One ``Dag``'s step memos, one per weighting, and its facts, one
    ``_Facts`` per layering."""

    __slots__ = ("memos", "facts")

    def __init__(self):
        self.memos: dict[tuple, StepMemo] = {}
        self.facts: dict[tuple, _Facts] = {}


# Held weakly, so released with the Dag.
_TABLES: weakref.WeakKeyDictionary[Dag, _Tables] = weakref.WeakKeyDictionary()


def _tables(dag: Dag, layers: LayerAssignment, w: OpCostWeights) -> tuple[StepMemo, _Facts]:
    """The step memo for ``w`` and the facts for the layers passed in.  The
    weights key holds each weight's type: 3 == 3.0, but an int weight times
    a table size past 2**53 rounds once where a float one rounds twice.  The
    facts are keyed on every node's layer, so two layerings never share."""
    tables = _TABLES.get(dag)
    if tables is None:
        tables = _TABLES[dag] = _Tables()
    key = tuple((type(v), v) for v in (w.add, w.mul, w.div))
    memo = tables.memos.get(key)
    if memo is None:
        memo = tables.memos[key] = StepMemo()
    key = tuple(layers.layer.items())
    facts = tables.facts.get(key)
    if facts is None:
        facts = tables.facts[key] = _Facts(dag, layers.layer)
    return memo, facts


def _walk(
    dag: Dag,
    layers: LayerAssignment,
    mapping: dict[int, int],
    weights: OpCostWeights,
    costs: list[float],
    notes: list[tuple[str, int, int, str]] | None = None,
) -> None:
    """Cost the four passes over ``mapping`` in order, appending each
    step's cost to ``costs`` and, when ``notes`` is given, its
    ``(phase, cluster, layer, label)`` to ``notes``."""
    if not check_contiguity(dag, mapping):
        raise ValidationError("mapping is not contiguous")
    memo, facts = _tables(dag, layers, weights)
    states, scope = dag.states, dag.scope
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

    groups: dict[int, list[int]] = {}
    for x, k in mapping.items():
        groups.setdefault(k, []).append(x)
    known = facts.clusters
    clusters: dict[int, _Cluster] = {}
    for k in sorted(groups):
        members = frozenset(groups[k])
        clusters[k] = known.get(members) or facts.cluster(dag, members)
    # Root clusters, and the other clusters' layers per layer, each in
    # ascending cluster order.
    roots: list[int] = []
    rows: list[list[tuple[int, _Row]]] = [[] for _ in range(facts.top + 1)]
    for k, f in clusters.items():
        if f.root:
            roots.append(k)
        else:
            for row in f.rows:
                rows[row.layer].append((k, row))

    # ---- forward pass -----------------------------------------------------
    # Partials are keyed by (layer, cluster), which sorts as parts do.
    fwd: dict[tuple[int, int], frozenset[int]] = {}
    joint: dict[int, frozenset[int]] = {}

    # Top layer down; the sort is stable, so ties keep cluster order.
    for k in sorted(roots, key=lambda k: -clusters[k].rows[0].layer):
        # No incoming arcs: fold the whole cluster's tables into one
        # joint, then give each link layer its own exported marginal.
        f = clusters[k]
        joint[k], cost = product((), None, f.own, None)
        put(cost)
        if notes is not None:
            notes.append(("forward", k, f.rows[-1].layer, f"joint over cluster {k}"))
        for row in f.rows:
            if row.exported:
                fwd[row.layer, k], cost = sum_out(joint[k], row.exported)
                put(cost)
                if notes is not None:
                    notes.append(("forward", k, row.layer, f"export link dims at layer {row.layer}"))

    for l in range(facts.top, -1, -1):
        for k, row in rows[l]:
            # The partial from the cluster's next layer up, and one per source.
            inputs = {(lp, mapping[p]) for p, lp in row.sources}
            if row.above >= 0:
                inputs.add((row.above, k))
            parts = tuple([(fwd[lk],) + lk for lk in sorted(inputs)])
            # A member with a child outside the cluster is a link node, so every
            # member survives: as a link, a leaf, or a parent of a member.
            fwd[l, k], cost = product(parts, row.keep, row.nodes, row.kept)
            put(cost)
            if notes is not None:
                notes.append(("forward", k, l, f"partial for cluster {k} layer {l}"))

    # ---- backward pass (needed results only) -------------------------------
    # A cluster-layer's upward partial is needed when one of its members has
    # a parent; root clusters absorb instead.  Each partial is the engine's
    # transition step for that cluster-layer, on the results that hold a
    # child of a member: every such result is needed, so it is in ``bwd``.
    bwd: dict[tuple[int, int], frozenset[int]] = {}
    for l, here in enumerate(rows):
        for k, row in here:
            if not row.needed:
                continue
            held = {(lc, k) for lc in row.below}
            held.update([(lc, mapping[c]) for c, lc in row.out])
            parts = tuple([(bwd[lk],) + lk for lk in sorted(held)])
            t = transition_step(dag, weights, row.zset, parts, row.summed, memo)
            bwd[l, k] = t.dims
            put(t.cost)
            if notes is not None:
                notes.append(("backward", k, l, f"upward partial for cluster {k} layer {l}"))

    # ---- absorption into root clusters -------------------------------------
    root_dims: dict[int, frozenset[int]] = {}
    for k in roots:
        f = clusters[k]
        if not f.sinks:
            root_dims[k] = joint[k]
            continue
        # The joint lies within the cluster, so cutting it charges nothing.
        # Here and in the posteriors the parts go in (cluster, layer) order,
        # which the memo key holds.
        ext = sorted({(mapping[c], lc) for c, lc in f.sinks})
        parts = [(bwd[lc, kc], lc, kc) for kc, lc in ext]
        parts.append((joint[k], f.low, k))
        root_dims[k], cost = product(tuple(parts), f.members, (), None)
        put(cost)
        if notes is not None:
            notes.append(("absorb", k, f.rows[-1].layer, f"fold upward results into cluster {k}"))

    # ---- posteriors ---------------------------------------------------------
    for x, l, single, kids in facts.nodes:
        k = mapping[x]
        if k in root_dims:
            _, cost = sum_out(root_dims[k], single)
        else:
            dims = fwd[l, k]
            # With no child sources the own partial is used as it is.
            if kids:
                ext = sorted({(mapping[c], lc) for c, lc in kids})
                parts = [(bwd[lc, kc], lc, kc) for kc, lc in ext]
                parts.append((dims, l, k))
                _, cost = product(tuple(parts), dims, (), single)
            else:
                _, cost = sum_out(dims, single)
        put(cost)
        if notes is not None:
            notes.append(("posterior", k, l, f"posterior of {dag.name(x)}"))
