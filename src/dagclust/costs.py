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
from typing import Iterable, NamedTuple, Protocol, Sequence

from .dag import Dag, LayerAssignment, ValidationError, check_contiguity, founding_labels
from .factors import (
    DEFAULT_WEIGHTS,
    OpCostWeights,
    fold,
    marginalize_away,
    marginalize_cost,
    multiply_cost,
    table_size,
)

TOL = 1e-9


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


class CostModel(Protocol):
    """Contract the search engine drives.

    Implementations must return strictly positive transition costs and a
    non-negative heuristic; any such heuristic preserves optimality and only
    affects search order.  The heuristic must however upper-bound the true
    completion cost whenever it seeds the incumbent bound, so implementations
    should anchor it to a concrete feasible completion.

    ``transition`` returns the cost and the dimensions of the new record.
    The search passes ``heuristic`` every record none of whose members has
    a costed parent yet.
    """

    weights: OpCostWeights

    def transition(
        self,
        u: dict[int, int],
        entries: Sequence[JEntry],
        cluster: int,
        layer: int,
        zset: frozenset[int],
    ) -> Transition: ...

    def heuristic(
        self,
        remaining: Iterable[int],
        live: Sequence[JEntry],
        u: dict[int, int] | None = None,
    ) -> float: ...


class BnComputationCost:
    """Inference computation cost over conditional-table shapes."""

    def __init__(self, dag: Dag, layers: LayerAssignment, weights: OpCostWeights = DEFAULT_WEIGHTS):
        self.dag = dag
        self.layers = layers
        self.weights = weights
        self._labels = founding_labels(dag, layers)

    # -- transition ---------------------------------------------------------

    def transition(
        self,
        u: dict[int, int],
        entries: Sequence[JEntry],
        cluster: int,
        layer: int,
        zset: frozenset[int],
    ) -> Transition:
        if not zset:
            raise ValidationError("cluster-layer node set is empty")
        dag, states, w = self.dag, self.dag.states, self.weights
        for z in zset:
            for c in dag.children(z):
                if not u.get(c):
                    raise ValidationError(
                        f"child {dag.name(c)} of {dag.name(z)} not yet assigned"
                    )
        scope = frozenset(zset)
        for z in zset:
            scope |= dag.parents(z)
        kids = frozenset().union(*(dag.children(z) for z in zset))
        held = sorted(
            (e for e in entries if not kids.isdisjoint(e.members)),
            key=lambda e: (e.layer, e.cluster),
        )
        dims, cost = fold(
            [(e.dims, e.layer, e.cluster) for e in held],
            scope,
            [dag.scope(z) for z in sorted(zset)],
            states,
            w,
        )
        summed = frozenset(
            z for z in zset if all(u.get(c) == cluster for c in dag.children(z))
        )
        dims, cost = marginalize_away(dims, dims - summed, states, w, cost)
        return Transition(cost=cost, dims=dims)

    # -- heuristic ----------------------------------------------------------

    def heuristic(
        self,
        remaining: Iterable[int],
        live: Sequence[JEntry],
        u: dict[int, int] | None = None,
    ) -> float:
        """Upper-bound completion estimate for the unassigned nodes.

        Two naive completions are costed and the dearer one returned: a
        single backward elimination sweep that folds the live partials into
        one chain and sums each remaining node straight out, and an actual
        one-cluster-per-node completion driven through the transition
        machinery.  The latter is the cost of a concrete feasible
        completion, which makes the estimate a true upper bound; the sweep
        usually dominates on narrow graphs and keeps the classic naive
        figure.
        """
        remaining = list(remaining)
        return max(
            self._sweep_estimate(remaining, live),
            self._singleton_completion(remaining, live, u or {}),
        )

    def _sweep_estimate(self, remaining: list[int], live: Sequence[JEntry]) -> float:
        dag, states, w = self.dag, self.dag.states, self.weights
        acc, cost = fold([(e.dims, e.layer, e.cluster) for e in live], None, (), states, w)
        todo = sorted(
            remaining,
            key=lambda x: (
                self.layers.of(x),
                table_size(dag.scope(x), states),
                x,
            ),
        )
        for x in todo:
            acc, c = multiply_cost(acc, dag.scope(x), states, w)
            cost += c
            acc, c = marginalize_cost(acc, x, states, w)
            cost += c
        return cost

    def _singleton_completion(
        self, remaining: list[int], live: Sequence[JEntry], u: dict[int, int]
    ) -> float:
        entries = list(live)
        u2 = dict(u)
        cost = 0.0
        for z in sorted(remaining, key=lambda x: (self.layers.of(x), x)):
            k = self._labels[z]
            t = self.transition(u2, entries, k, self.layers.of(z), frozenset({z}))
            entries.append(JEntry(k, self.layers.of(z), frozenset({z}), t.dims))
            u2[z] = k
            cost += t.cost
        return cost


@dataclass(frozen=True)
class GhatEstimate:
    """Priority estimate: accrued cost + transition + completion upper bound."""

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
    transitions: list[tuple[int, int, frozenset[int], float]]  # (cluster, layer, z, cost)


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
    transitions = []
    total = 0.0
    for l in range(layers.l_max + 1):
        groups: dict[int, set[int]] = {}
        for x in layers.members.get(l, ()):
            groups.setdefault(mapping[x], set()).add(x)
        for k in sorted(groups):
            z = frozenset(groups[k])
            t = model.transition(mapping, entries, k, l, z)
            entries.append(JEntry(k, l, z, t.dims))
            total += t.cost
            transitions.append((k, l, z, t.cost))
    return MappingCost(total=total, transitions=transitions)
