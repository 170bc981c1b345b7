"""Cluster-layer transition costs, the search heuristic, and whole-mapping
evaluation.

The search walks the DAG from the leaf layer upward.  Costing one
cluster-layer (cluster k, layer l, node set Z) means: pull in the stored
partial results of the cluster-layers that contain children of Z, cut each
down to the dimensions it shares with Z's tables, multiply everything
together with Z's own conditional tables, and sum out each member of Z that
has no child outside its cluster.  The surviving dimensions (unassigned
parents plus retained link nodes) are the new dependency record; their size
is what makes neighbouring clusters' costs interdependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Protocol, Sequence

from .dag import Dag, LayerAssignment, ValidationError, check_contiguity, founding_labels
from .factors import (
    DEFAULT_WEIGHTS,
    OpCostWeights,
    fold,
    marginalize_away,
    table_size,
)

TOL = 1e-9
# One shared empty set: memo keys that sum nothing out then compare their
# summed sets by identity.
_EMPTY: frozenset[int] = frozenset()


class JEntry(NamedTuple):
    """Dependency record of one costed cluster-layer.

    ``members`` are the nodes whose tables were folded in; ``dims`` are the
    dimensions surviving in the partial result.
    """

    cluster: int
    layer: int
    members: frozenset[int]
    dims: frozenset[int]


class Transition(NamedTuple):
    cost: float
    dims: frozenset[int]


class StepMemo:
    """Product steps memoised on their inputs, for the calls that share
    one: a search run's transitions, an oracle walk's, or one ``Dag``'s
    inference walks under one weighting.

    ``steps`` maps a step's key to its result.  ``shared`` keeps one copy
    of each frozenset and tuple that a stored key or result holds, so
    equal sets and ``(dims, layer, cluster)`` parts met at different steps
    are stored once.
    """

    __slots__ = ("steps", "shared")

    def __init__(self):
        self.steps: dict = {}
        self.shared: dict = {}

    def share(self, x):
        """The stored copy of ``x``, a frozenset, a tuple of shared items,
        or anything else as it is.  Most items recur, so a stored copy is
        looked up before a tuple's items are."""
        kept = self.shared.get(x)
        if kept is None:
            if type(x) is tuple:
                x = tuple(map(self.share, x))
            elif type(x) is not frozenset:
                return x
            kept = self.shared[x] = x
        return kept

    def store(self, key: tuple, value):
        """Keep ``value``, whose sets the caller has shared, under ``key``
        with the key's items shared, and return it."""
        self.steps[tuple(map(self.share, key))] = value
        return value


def transition_step(
    dag: Dag,
    weights: OpCostWeights,
    zset: frozenset[int],
    parts: tuple[tuple[frozenset[int], int, int], ...],
    summed: frozenset[int],
    memo: StepMemo | None = None,
) -> Transition:
    """Cost one cluster-layer from its gathered inputs: fold the ordered
    ``(dims, layer, cluster)`` parts with Z's own tables, then sum out
    ``summed``.  Pure, so equal inputs give equal results: ``memo`` keeps
    each result under ``(zset, parts, summed)``, with its dims shared."""
    if memo is not None:
        key = (zset, parts, summed)
        t = memo.steps.get(key)
        if t is not None:
            return t
    states = dag.states
    tables = [dag.scope(z) for z in sorted(zset)]
    dims, cost = fold(parts, frozenset().union(*tables), tables, states, weights)
    dims, cost = marginalize_away(dims, dims - summed, states, weights, cost)
    if memo is None:
        return Transition(cost=cost, dims=dims)
    return memo.store(key, Transition(cost=cost, dims=memo.share(dims)))


class CostModel(Protocol):
    """Contract the search engine drives.

    Implementations must return strictly positive transition costs and a
    non-negative heuristic.  The root estimate (every node remaining, no
    live record) seeds the incumbent bound, so it must be at least the cost
    of some feasible mapping, or the search may prune every branch and then
    refuses the run; any other estimate only affects search order.

    ``transition`` returns the cost and the dimensions of the new record.
    The mapping it gets assigns every node below the costed nodes; whether
    it assigns the costed nodes themselves, and what else it assigns, varies
    (a search branch before the combo joins it, a prefix of the oracle's
    walk, a whole mapping in ``evaluate_mapping``), and the result must not
    depend on it.
    The search passes ``heuristic`` every record none of whose members has
    a costed parent yet, and estimates only when it queues a new proposal.
    Last, it passes ``transition`` and every estimate below the root one
    ``StepMemo`` that lives for one search run, as the oracle's walk passes
    one per walk and ``optimal_set`` one per repricing of its winners: the
    model may keep memoised work there.  On itself it may keep only
    constants of its graph and weights, such as the root estimate's
    feasible total; never anything a search run builds.  A model may ignore
    the memo.
    """

    weights: OpCostWeights

    def transition(
        self,
        u: dict[int, int],
        entries: Sequence[JEntry],
        cluster: int,
        layer: int,
        zset: frozenset[int],
        memo: StepMemo | None = None,
    ) -> Transition: ...

    def heuristic(
        self,
        remaining: Iterable[int],
        live: Sequence[JEntry],
        u: dict[int, int] | None = None,
        memo: StepMemo | None = None,
    ) -> float: ...


class BnComputationCost:
    """Inference computation cost over conditional-table shapes."""

    def __init__(self, dag: Dag, layers: LayerAssignment, weights: OpCostWeights = DEFAULT_WEIGHTS):
        self.dag = dag
        self.layers = layers
        self.weights = weights
        # The sweep's elimination order, (layer, table size, node id), as a
        # rank per node.  Built with the model, in the caller's thread: a
        # table first built during a search would be allocated on
        # ``stream_search``'s worker thread and outlive it, holding that
        # thread's malloc arena.
        order = sorted(
            dag.node_ids(),
            key=lambda x: (layers.of(x), table_size(dag.scope(x), dag.states), x),
        )
        self._sweep_rank = {x: r for r, x in enumerate(order)}
        # The founding-label mapping's total, a constant of the graph and
        # weights, priced at the first root estimate rather than here, so
        # that building a model stays cheap.  Threads that race to price it
        # store the same float.
        self._founding_total: float | None = None

    # -- transition ---------------------------------------------------------

    def transition(
        self,
        u: dict[int, int],
        entries: Sequence[JEntry],
        cluster: int,
        layer: int,
        zset: frozenset[int],
        memo: StepMemo | None = None,
    ) -> Transition:
        """``memo`` keeps the steps, keyed on their gathered inputs, across
        the calls that share it."""
        if not zset:
            raise ValidationError("cluster-layer node set is empty")
        summed = self._summed(u, zset, cluster)
        kids = frozenset().union(*(self.dag.children(z) for z in zset))
        held = sorted(
            (e for e in entries if not kids.isdisjoint(e.members)),
            key=lambda e: (e.layer, e.cluster),
        )
        parts = tuple((e.dims, e.layer, e.cluster) for e in held)
        return transition_step(self.dag, self.weights, zset, parts, summed, memo)

    def _summed(self, u: dict[int, int], zset: frozenset[int], cluster: int) -> frozenset[int]:
        """The members of Z with no child outside the cluster.  Refuses a Z
        with a child not yet assigned."""
        dag = self.dag
        out = []
        for z in zset:
            inside = True
            for c in dag.children(z):
                k = u.get(c)
                if not k:
                    raise ValidationError(
                        f"child {dag.name(c)} of {dag.name(z)} not yet assigned"
                    )
                inside = inside and k == cluster
            if inside:
                out.append(z)
        return frozenset(out) if out else _EMPTY

    # -- heuristic ----------------------------------------------------------

    def heuristic(
        self,
        remaining: Iterable[int],
        live: Sequence[JEntry],
        u: dict[int, int] | None = None,
        memo: StepMemo | None = None,
    ) -> float:
        """Completion estimate for the unassigned nodes: one backward
        elimination sweep that folds the live records into one chain and
        sums each remaining node straight out.  At the root (every node
        remaining, no live record) it is raised to the total of the
        founding-label mapping, a feasible mapping, so the root estimate
        can seed the incumbent.  Refuses a remaining node with a child
        neither remaining nor assigned in ``u``, which maps node ids.
        ``memo`` keeps the fold of each set of live records across the
        calls that share it."""
        rem = set(remaining)
        self._refuse_unassigned_children(rem, u or {})
        sweep = self._sweep_estimate(rem, live, memo)
        if live or len(rem) < self.dag.n:
            return sweep
        if self._founding_total is None:
            labels = founding_labels(self.dag, self.layers)
            self._founding_total = evaluate_mapping(self.dag, self.layers, self, labels).total
        return max(sweep, self._founding_total)

    def _refuse_unassigned_children(self, rem: set[int], u: dict[int, int]) -> None:
        """Name the lowest (layer, id) remaining node with a child neither
        remaining nor assigned, and its first such child."""
        dag = self.dag
        if len(rem) + len(u) == dag.n and rem.isdisjoint(u) and all(u.values()):
            # Every node is remaining or assigned, so no child is neither.
            return
        outside = set().union(*map(dag.children, rem))
        outside -= rem
        if all(map(u.get, outside)):
            return
        stuck = [z for z in rem if not all(c in rem or u.get(c) for c in dag.children(z))]
        if stuck:
            z = min(stuck, key=lambda x: (self.layers.of(x), x))
            c = next(c for c in dag.children(z) if c not in rem and not u.get(c))
            raise ValidationError(f"child {dag.name(c)} of {dag.name(z)} not yet assigned")

    def _sweep_estimate(
        self, remaining: set[int], live: Sequence[JEntry], memo: StepMemo | None = None
    ) -> float:
        scope, states, w = self.dag.scope, self.dag.states, self.weights
        # The live records' fold, as (dims, table size, cost), is kept under
        # their parts alone: a transition's key starts with its node set, so
        # the two kinds of key never meet.
        parts = tuple((e.dims, e.layer, e.cluster) for e in live)
        folded = None if memo is None else memo.steps.get(parts)
        if folded is None:
            dims, cost = fold(parts, None, (), states, w)
            folded = (dims, table_size(dims, states), cost)
            if memo is not None:
                memo.store(parts, (memo.share(dims), *folded[1:]))
        dims, size, cost = folded
        acc = set(dims)
        # Multiply each node's table (the node and its parents) in and sum
        # the node out, carrying the accumulator's table size as an integer.
        for x in sorted(remaining, key=self._sweep_rank.__getitem__):
            for d in scope(x):
                if d not in acc:
                    acc.add(d)
                    size *= states[d]
            cost += size * w.mul
            acc.remove(x)
            size //= states[x]
            cost += (states[x] - 1) * size * w.add
        return cost


# ---------------------------------------------------------------------------
# Whole-mapping evaluation


@dataclass
class MappingCost:
    total: float


def layer_transitions(
    model: CostModel,
    mapping: dict[int, int],
    entries: list[JEntry],
    layer: int,
    nodes: Iterable[int],
    memo: StepMemo | None = None,
) -> Iterator[tuple[JEntry, float]]:
    """Cost the cluster-layers that ``mapping`` makes of one layer's
    ``nodes``, in ascending cluster order, appending each record to
    ``entries`` before yielding it with its cost.  ``mapping`` must assign
    the nodes and every node below them.  ``memo`` goes to every
    ``transition``."""
    groups: dict[int, set[int]] = {}
    for x in nodes:
        groups.setdefault(mapping[x], set()).add(x)
    for k in sorted(groups):
        z = frozenset(groups[k])
        t = model.transition(mapping, entries, k, layer, z, memo)
        e = JEntry(k, layer, z, t.dims)
        entries.append(e)
        yield e, t.cost


def evaluate_mapping(
    dag: Dag,
    layers: LayerAssignment,
    model: CostModel,
    mapping: dict[int, int],
    memo: StepMemo | None = None,
) -> MappingCost:
    """Total cost of a complete mapping: sum of cluster-layer transitions in
    ascending layer order, driving the model exactly as the engine would.
    ``memo`` goes to every ``transition``."""
    if not check_contiguity(dag, mapping):
        raise ValidationError("mapping is not contiguous")
    entries: list[JEntry] = []
    total = 0.0
    for l in range(layers.l_max + 1):
        for _, cost in layer_transitions(model, mapping, entries, l, layers.members.get(l, ()), memo):
            total += cost
    return MappingCost(total=total)
