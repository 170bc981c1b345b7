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
from functools import cached_property
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
# Relative slack on the completion bound: the bound and the completion add
# their terms in different orders, so their float sums may each be off by a
# few ulps.
_MARGIN = 1 + 1e-9


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
    one: a search run, an oracle walk, or one ``Dag``'s inference walks
    under one weighting.

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


class CostModel(Protocol):
    """Contract the search engine drives.

    Implementations must return strictly positive transition costs and a
    non-negative heuristic; any such heuristic preserves optimality and only
    affects search order.  The heuristic must however upper-bound the true
    completion cost whenever it seeds the incumbent bound, so implementations
    should anchor it to a concrete feasible completion.

    ``transition`` returns the cost and the dimensions of the new record.
    The mapping it gets assigns every node below the costed nodes; whether
    it assigns the costed nodes themselves, and what else it assigns, varies
    (a search branch before the combo joins it, a prefix of the oracle's
    walk, a whole mapping in ``evaluate_mapping``), and the result must not
    depend on it.
    The search passes ``heuristic`` every record none of whose members has
    a costed parent yet.  Last, it passes ``transition`` and ``heuristic``
    one ``StepMemo`` that lives for one search run, as the oracle's walk
    passes ``transition`` one per walk: the model may keep memoised work
    there, never on itself.  A model may ignore the memo.
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

    # The estimate's node tables are built at its first call: a model that
    # only prices transitions, as one inference call does, never needs them.

    @cached_property
    def _labels(self) -> dict[int, int]:
        """Rank in (layer, node id) order, the singleton completion's."""
        return founding_labels(self.dag, self.layers)

    @cached_property
    def _sweep_rank(self) -> dict[int, int]:
        """Rank in (layer, table size, node id) order, the sweep's."""
        dag = self.dag
        order = sorted(
            dag.node_ids(),
            key=lambda x: (self.layers.of(x), table_size(dag.scope(x), dag.states), x),
        )
        return {x: r for r, x in enumerate(order)}

    @cached_property
    def _bound_terms(self) -> dict[int, float]:
        """Per node x, the most its singleton step and every cut of its
        record can cost: ``|children(x)| + 1`` multiplies, a sum-out and
        ``|parents(x)|`` cuts, each at most the size of x's table."""
        dag, w = self.dag, self.weights
        return {
            x: (w.mul * (len(dag.children(x)) + 1) + w.add * (1 + len(dag.parents(x))))
            * table_size(dag.scope(x), dag.states)
            for x in dag.node_ids()
        }

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
        the calls that share it; it is the one ``heuristic`` takes."""
        if not zset:
            raise ValidationError("cluster-layer node set is empty")
        summed = self._summed(u, zset, cluster)
        kids = frozenset().union(*(self.dag.children(z) for z in zset))
        held = sorted(
            (e for e in entries if not kids.isdisjoint(e.members)),
            key=lambda e: (e.layer, e.cluster),
        )
        parts = tuple((e.dims, e.layer, e.cluster) for e in held)
        if memo is None:
            return self._step(zset, parts, summed)
        key = (zset, parts, summed)
        t = memo.steps.get(key)
        if t is None:
            t = self._step(zset, parts, summed)
            t = memo.store(key, t._replace(dims=memo.share(t.dims)))
        return t

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

    def _step(
        self,
        zset: frozenset[int],
        parts: tuple[tuple[frozenset[int], int, int], ...],
        summed: frozenset[int],
    ) -> Transition:
        """Cost one cluster-layer from its gathered inputs: fold the ordered
        ``(dims, layer, cluster)`` parts with Z's own tables, then sum out
        ``summed``.  Pure, so equal inputs give equal results."""
        dag, states, w = self.dag, self.dag.states, self.weights
        tables = [dag.scope(z) for z in sorted(zset)]
        dims, cost = fold(parts, frozenset().union(*tables), tables, states, w)
        dims, cost = marginalize_away(dims, dims - summed, states, w, cost)
        return Transition(cost=cost, dims=dims)

    # -- heuristic ----------------------------------------------------------

    def heuristic(
        self,
        remaining: Iterable[int],
        live: Sequence[JEntry],
        u: dict[int, int] | None = None,
        memo: StepMemo | None = None,
    ) -> float:
        """Completion estimate for the unassigned nodes.

        Two naive completions are costed and the dearer one returned: a
        single backward elimination sweep that folds the live partials into
        one chain and sums each remaining node straight out, and a
        one-cluster-per-node completion driven through the transition
        machinery.  At the root (every node remaining, no records) the
        latter is the total of the founding-label mapping, a concrete
        feasible mapping, so the estimate there bounds the optimum from
        above and can seed the incumbent.  Away from the root it folds only
        the live records, not every record a singleton would gather, so it
        can fall below the cost of completing the branch with singletons.

        The sweep is priced first, then a cheap upper bound on the
        completion.  With S(x) the size of x's table, the bound adds
        ``(mul*(|children(x)|+1) + add*(1+|parents(x)|)) * S(x)`` for each
        remaining x and ``add * g * size(e.dims)`` for each live record e,
        g being the number of distinct parents of e's members.  The
        singleton step of z gathers at most one record per child and works
        inside scope(z): each of its multiplies costs at most mul*S(z), its
        sum-out removes at most z, and cutting a gathered part D down to
        scope(z) costs add*(|D| - |D & scope(z)|) (the per-node charges
        telescope), at most add*|D|.  The record that z's step makes holds
        at most S(z) cells and is cut once by each parent of z; a live
        record is cut once by each parent of its members.  When the bound,
        scaled by a relative margin against float noise, is still below
        the sweep, the completion cannot decide the estimate and is not
        run.

        The bound assumes the search's own input: the remaining nodes are
        distinct and unassigned, each child of a remaining node is
        remaining or assigned in ``u``, and no node lies in two records.
        On any other input the completion runs, and refuses what it
        refuses.

        ``memo`` is the ``StepMemo`` that ``transition`` takes, kept across
        the calls of one search: the completion prices its steps through
        ``transition``, so a singleton step and a transition of the same
        inputs share one entry.  Without one each call starts from a fresh
        one.
        """
        remaining = list(remaining)
        u = u or {}
        sweep = self._sweep_estimate(remaining, live)
        if (
            self._completion_bound(remaining, live) * _MARGIN < sweep
            and self._bound_holds(remaining, live, u)
        ):
            return sweep
        if memo is None:
            memo = StepMemo()
        return max(sweep, self._singleton_completion(remaining, live, u, memo))

    def _completion_bound(self, remaining: list[int], live: Sequence[JEntry]) -> float:
        """Upper bound on the singleton completion of an input that
        ``_bound_holds`` accepts; see ``heuristic``."""
        terms, parents, states = self._bound_terms, self.dag.parents, self.dag.states
        bound = sum(map(terms.__getitem__, remaining))
        for e in live:
            g = len(frozenset().union(*map(parents, e.members)))
            bound += self.weights.add * g * table_size(e.dims, states)
        return bound

    def _bound_holds(self, remaining: list[int], live: Sequence[JEntry], u: dict[int, int]) -> bool:
        """True iff the input has the shape ``_completion_bound`` assumes."""
        rem = set(remaining)
        assigned = {x for x, k in u.items() if k}
        held = [m for e in live for m in e.members]
        return (
            len(rem) == len(remaining)
            and rem.isdisjoint(assigned)
            and all(map((rem | assigned).issuperset, map(self.dag.children, rem)))
            and len(set(held)) == len(held)
            and rem.isdisjoint(held)
        )

    def _sweep_estimate(self, remaining: list[int], live: Sequence[JEntry]) -> float:
        scope, states, w = self.dag.scope, self.dag.states, self.weights
        acc, cost = fold([(e.dims, e.layer, e.cluster) for e in live], None, (), states, w)
        size = table_size(acc, states)
        acc = set(acc)
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

    def _singleton_completion(
        self, remaining: list[int], live: Sequence[JEntry], u: dict[int, int], memo: StepMemo
    ) -> float:
        """Cost each remaining node as its own cluster-layer, under its
        founding label, lowest layer first."""
        labels, layer = self._labels, self.layers.of
        u2 = dict(u)
        by_layer: dict[int, list[int]] = {}
        for z in remaining:
            u2[z] = labels[z]
            by_layer.setdefault(layer(z), []).append(z)
        entries = list(live)
        cost = 0.0
        for l in sorted(by_layer):
            for _, c in layer_transitions(self, u2, entries, l, by_layer[l], memo):
                cost += c
        return cost


@dataclass(frozen=True)
class GhatEstimate:
    """Priority estimate: accrued cost + transition + completion estimate."""

    g_so_far: float
    transition: float
    heuristic_remaining: float

    def __post_init__(self):
        for part in (self.g_so_far, self.transition, self.heuristic_remaining):
            if part < 0:
                raise ValidationError("ghat components must be non-negative")

    @property
    def total(self) -> float:
        return self.g_so_far + self.transition + self.heuristic_remaining


def ghat(g_so_far: float, transition: float, heuristic_remaining: float) -> GhatEstimate:
    return GhatEstimate(g_so_far, transition, heuristic_remaining)


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
) -> MappingCost:
    """Total cost of a complete mapping: sum of cluster-layer transitions in
    ascending layer order, driving the model exactly as the engine would."""
    if not check_contiguity(dag, mapping):
        raise ValidationError("mapping is not contiguous")
    entries: list[JEntry] = []
    total = 0.0
    for l in range(layers.l_max + 1):
        for _, cost in layer_transitions(model, mapping, entries, l, layers.members.get(l, ())):
            total += cost
    return MappingCost(total=total)
