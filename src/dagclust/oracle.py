"""Exact brute-force enumeration and pricing of feasible cluster mappings.

Feasible mappings follow the proposal rule: every leaf opens its own
cluster, and every other node either opens its own cluster or joins the
cluster of one of its children.  That construction keeps clusters
contiguous, and its count is the product over non-leaf nodes of
(out-degree + 1), which is what guards the enumeration cap.

One depth-first walk places the nodes in ascending (layer, node id) order.
A layer's transitions depend only on the mapping of that layer and the
layers below it, so when a priced walk moves past a layer it costs that
layer once for the prefix placed so far, carrying the dependency records
and the running total down to every mapping that shares the prefix.  The
additions happen in ``evaluate_mapping``'s order, so every total equals
its total bit for bit; ``optimal_set`` reprices its winners with it and
refuses any difference.
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
from .costs import TOL, CostModel, JEntry, StepMemo, evaluate_mapping, layer_transitions
from .search import partition_signature

DEFAULT_CAP = 10**7


@dataclass(frozen=True)
class FeasibleMapping:
    u: dict[int, int]
    total_cost: float
    signature: tuple[int, ...]


def _walk(
    dag: Dag,
    layers: LayerAssignment,
    cap: int,
    model: CostModel | None = None,
) -> Iterator[tuple[dict[int, int], float]]:
    """Yield ``(u, total)`` for every contiguous proposal-rule mapping.

    ``u`` is the walk's own dict, changed as soon as the walk resumes: copy
    it to keep it.  Without a model every total is 0.0.  The cap is refused
    before anything is yielded.
    """
    size = search_space_size(dag, layers)
    if size > cap:
        raise CapExceededError(size, cap)
    labels = founding_labels(dag, layers)
    order = sorted(labels, key=labels.__getitem__)
    # Position -> the layer completed by the nodes before it.
    done: dict[int, int] = {}
    if model is not None:
        for i, x in enumerate(order, 1):
            if i == len(order) or layers.of(order[i]) != layers.of(x):
                done[i] = layers.of(x)
    entries: list[JEntry] = []
    # The model's memo for this walk's transitions.
    memo = StepMemo()

    def rec(idx: int, u: dict[int, int], total: float) -> Iterator[tuple[dict[int, int], float]]:
        l = done.get(idx)
        if l is not None:
            mark = len(entries)
            for _, cost in layer_transitions(model, u, entries, l, layers.members[l], memo):
                total += cost
        if idx == len(order):
            yield u, total
        else:
            x = order[idx]
            for k in proposal_clusters(dag, labels, u, x):
                if k != labels[x] and not keeps_contiguity(dag, u, (x,), k):
                    continue
                u[x] = k
                yield from rec(idx + 1, u, total)
            del u[x]
        if l is not None:
            del entries[mark:]

    yield from rec(0, {}, 0.0)


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
    for u, _ in _walk(dag, layers, cap):
        yield dict(u)


def _check_contiguous(dag: Dag, u: dict[int, int]) -> None:
    if not check_contiguity(dag, u):
        raise AssertionError("enumeration produced a non-contiguous mapping")


def enumerate_feasible(
    dag: Dag,
    layers: LayerAssignment,
    model: CostModel | None = None,
    cap: int = DEFAULT_CAP,
) -> list[FeasibleMapping]:
    """Every feasible mapping in walk order, priced when a model is given
    (else its total is nan)."""
    out = []
    for u, cost in _walk(dag, layers, cap, model):
        _check_contiguous(dag, u)
        u = dict(u)
        cost = cost if model is not None else float("nan")
        out.append(FeasibleMapping(u=u, total_cost=cost, signature=partition_signature(u)))
    return out


def optimal_set(
    dag: Dag,
    layers: LayerAssignment,
    model: CostModel,
    cap: int = DEFAULT_CAP,
) -> tuple[float, list[FeasibleMapping]]:
    """Exact argmin over the feasible set; duplicate partitions collapse.

    Each winner is repriced with ``evaluate_mapping``, and a total that
    differs from the walk's is refused.  The repricing keeps a memo of its
    own, apart from the walk's, so the check shares no step with the walk.
    """
    best = float("inf")
    winners: dict[tuple[int, ...], FeasibleMapping] = {}
    for u, cost in _walk(dag, layers, cap, model):
        _check_contiguous(dag, u)
        if cost < best - TOL:
            best = cost
            winners = {}
        if abs(cost - best) <= TOL:
            sig = partition_signature(u)
            if sig not in winners:
                winners[sig] = FeasibleMapping(u=dict(u), total_cost=cost, signature=sig)
    if not winners:
        raise ValidationError("no feasible mappings")
    memo = StepMemo()
    for fm in winners.values():
        again = evaluate_mapping(dag, layers, model, fm.u, memo).total
        if again != fm.total_cost:
            raise ValidationError(
                f"walk priced {sorted(fm.u.items())} at {fm.total_cost!r}, "
                f"evaluate_mapping at {again!r}"
            )
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
