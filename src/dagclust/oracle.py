"""Exact brute-force enumeration of feasible cluster mappings.

Feasible mappings follow the proposal rule: every leaf opens its own
cluster, and every other node either opens its own cluster or joins the
cluster of one of its children.  That construction keeps clusters
contiguous, and its count is the product over non-leaf nodes of
(out-degree + 1), which is what guards the enumeration cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .dag import (
    CapExceededError,
    Dag,
    LayerAssignment,
    ValidationError,
    check_contiguity,
    founding_labels,
    keeps_contiguity,
    proposal_clusters,
    search_space_size,
)
from .costs import TOL, CostModel, evaluate_mapping
from .search import partition_signature

DEFAULT_CAP = 10**7


@dataclass(frozen=True)
class FeasibleMapping:
    u: dict[int, int]
    total_cost: float
    signature: tuple[int, ...]


def iter_feasible(
    dag: Dag,
    layers: LayerAssignment,
    cap: int = DEFAULT_CAP,
) -> Iterator[dict[int, int]]:
    """Stream every contiguous proposal-rule mapping, placing nodes in
    ascending (layer, node id) order.

    Joining a child's cluster is rejected when some other descendant path
    would leave that cluster and re-enter it; with such diamond patterns the
    raw proposal-rule count overstates the feasible set.
    """
    size = search_space_size(dag, layers)
    if size > cap:
        raise CapExceededError(size, cap)
    labels = founding_labels(dag, layers)
    order = sorted(dag.node_ids(), key=lambda x: (layers.of(x), x))

    def rec(idx: int, u: dict[int, int]) -> Iterator[dict[int, int]]:
        if idx == len(order):
            yield dict(u)
            return
        x = order[idx]
        for k in proposal_clusters(dag, labels, u, x):
            if k != labels[x] and not keeps_contiguity(dag, u, (x,), k):
                continue
            u[x] = k
            yield from rec(idx + 1, u)
        del u[x]

    yield from rec(0, {})


def enumerate_feasible(
    dag: Dag,
    layers: LayerAssignment,
    model: CostModel | None = None,
    cap: int = DEFAULT_CAP,
) -> list[FeasibleMapping]:
    out = []
    for u in iter_feasible(dag, layers, cap):
        if not check_contiguity(dag, u):
            raise AssertionError("enumeration produced a non-contiguous mapping")
        cost = evaluate_mapping(dag, layers, model, u).total if model is not None else float("nan")
        out.append(FeasibleMapping(u=u, total_cost=cost, signature=partition_signature(u)))
    return out


def optimal_set(
    dag: Dag,
    layers: LayerAssignment,
    model: CostModel,
    cap: int = DEFAULT_CAP,
) -> tuple[float, list[FeasibleMapping]]:
    """Exact argmin over the feasible set; duplicate partitions collapse."""
    best = float("inf")
    winners: dict[tuple[int, ...], FeasibleMapping] = {}
    for u in iter_feasible(dag, layers, cap):
        cost = evaluate_mapping(dag, layers, model, u).total
        if cost < best - TOL:
            best = cost
            winners = {}
        if abs(cost - best) <= TOL:
            fm = FeasibleMapping(u=u, total_cost=cost, signature=partition_signature(u))
            winners.setdefault(fm.signature, fm)
    if not winners:
        raise ValidationError("no feasible mappings")
    return best, [winners[s] for s in sorted(winners)]


# ---------------------------------------------------------------------------
# Label-invariant similarity


def co_membership(mapping: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """Symmetric 0/1 matrix with ones where two nodes share a cluster."""
    ids = sorted(mapping)
    return tuple(
        tuple(1 if mapping[a] == mapping[b] else 0 for b in ids) for a in ids
    )


def similarity(
    y: tuple[tuple[int, ...], ...],
    optimal: list[tuple[tuple[int, ...], ...]],
) -> float:
    """Max over reference matrices of overlap(Y, Y*) / ones(Y*)."""
    if not optimal:
        raise ValidationError("empty reference set")
    n = len(y)
    best = 0.0
    for ref in optimal:
        if len(ref) != n:
            raise ValidationError("co-membership matrices differ in size")
        dot = sum(
            y[i][j] * ref[i][j] for i in range(n) for j in range(n)
        )
        ones = sum(sum(row) for row in ref)
        best = max(best, dot / ones)
    return best


def mapping_similarity(
    mapping: dict[int, int], references: list[dict[int, int]]
) -> float:
    return similarity(co_membership(mapping), [co_membership(r) for r in references])
