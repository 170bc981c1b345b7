import itertools
import random

import pytest

from dagclust import (
    BnComputationCost,
    CapExceededError,
    ValidationError,
    assign_layers,
    enumerate_feasible,
    evaluate_mapping,
    optimal_set,
    parse_dag_text,
    search_space_size,
    similarity,
)
from dagclust import costs, oracle
from dagclust.costs import StepMemo
from dagclust.generator import GeneratorSpec, generate_dag
from dagclust.oracle import co_membership, iter_feasible
from dagclust.search import partition_signature

from conftest import name_mapping, random_test_dag


def test_enumeration_count(fig1, fig1_layers):
    assert len(enumerate_feasible(fig1, fig1_layers)) == 48


def test_enumeration_chain():
    d = parse_dag_text("node A\nnode B\nnode C\nedge A B\nedge B C\n")
    layers = assign_layers(d)
    model = BnComputationCost(d, layers)
    fms = enumerate_feasible(d, layers, model)
    assert len(fms) == 4 == search_space_size(d, layers)
    assert all(f.total_cost > 0 for f in fms)


def test_enumeration_single_node():
    d = parse_dag_text("node X\n")
    layers = assign_layers(d)
    fms = enumerate_feasible(d, layers)
    assert len(fms) == 1 and fms[0].u == {1: 1}


def test_cap_refusal(fig1, fig1_layers):
    with pytest.raises(CapExceededError) as err:
        list(iter_feasible(fig1, fig1_layers, cap=10))
    assert err.value.size == 48 and err.value.cap == 10


def test_optimal_set(fig1, fig1_layers, fig1_model):
    best, winners = optimal_set(fig1, fig1_layers, fig1_model)
    assert best == pytest.approx(54.0, abs=1e-9)
    expected = [
        {"A": 2, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2},
        {"A": 1, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2},
        {"A": 5, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2},
    ]
    want = sorted(
        partition_signature(name_mapping(fig1, row)) for row in expected
    )
    assert sorted(w.signature for w in winners) == want


def test_optimal_set_single_node():
    d = parse_dag_text("node X\n")
    layers = assign_layers(d)
    model = BnComputationCost(d, layers)
    best, winners = optimal_set(d, layers, model)
    assert len(winners) == 1
    assert best == pytest.approx(model.transition({}, [], 1, 0, frozenset({1})).cost)


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_optimal_set_second_scan(seed):
    dag = random_test_dag(seed, n=8)
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers)
    best, winners = optimal_set(dag, layers, model)
    # independent re-scan of every feasible mapping
    costs = [
        evaluate_mapping(dag, layers, model, u).total for u in iter_feasible(dag, layers)
    ]
    assert best == min(costs)
    ties = sum(1 for c in costs if abs(c - best) <= 1e-9)
    assert ties >= len(winners)  # winners collapse duplicate partitions


class _Counting:
    """Cost model proxy counting ``transition`` calls; ``skew`` adds
    0.5 for every node of the mapping passed, which makes a layer's cost
    depend on more than the layers at and below it."""

    def __init__(self, inner, skew=False):
        self.inner = inner
        self.weights = inner.weights
        self.heuristic = inner.heuristic
        self.skew = skew
        self.calls = 0

    def transition(self, u, entries, cluster, layer, zset, memo=None):
        self.calls += 1
        t = self.inner.transition(u, entries, cluster, layer, zset, memo)
        return t._replace(cost=t.cost + 0.5 * len(u)) if self.skew else t


def test_walk_totals_equal_evaluate_mapping(fig1):
    """The walk prices iter_feasible's mappings, in its order, at exactly
    evaluate_mapping's totals."""
    graphs = [fig1] + [
        generate_dag(GeneratorSpec(n=3 + gi % 8, seed=1000 + gi, rewire=0.2, extra_arc_rate=0.4))
        for gi in range(20)
    ]
    priced = 0
    for dag in graphs:
        layers = assign_layers(dag)
        model = BnComputationCost(dag, layers)
        fms = enumerate_feasible(dag, layers, model)
        assert [fm.u for fm in fms] == list(iter_feasible(dag, layers))
        for fm in fms:
            assert fm.total_cost == evaluate_mapping(dag, layers, model, fm.u).total, fm.u
            priced += 1
    assert priced > 48


@pytest.mark.parametrize("run", [optimal_set, enumerate_feasible])
def test_cap_refused_before_any_transition(fig1, fig1_layers, fig1_model, run):
    model = _Counting(fig1_model)
    with pytest.raises(CapExceededError) as err:
        run(fig1, fig1_layers, model, cap=47)
    assert err.value.size == 48 and err.value.cap == 47
    assert model.calls == 0
    run(fig1, fig1_layers, model, cap=48)
    assert model.calls > 0


def test_optimal_set_refuses_a_winner_evaluate_mapping_prices_otherwise(fig1, fig1_layers, fig1_model):
    """A model whose layer cost reads nodes above the layer prices the walk's
    prefixes differently from whole mappings; the winners' repricing sees it."""
    with pytest.raises(ValidationError, match="evaluate_mapping at"):
        optimal_set(fig1, fig1_layers, _Counting(fig1_model, skew=True))


def test_optimal_set_reprices_winners_through_one_memo(monkeypatch):
    """The winners' repricing shares one fresh ``StepMemo`` per call, so it
    runs fewer steps than repricing each winner afresh, with the same
    winners and totals."""
    steps = 0
    real_fold = costs.fold

    def counting_fold(*args):
        nonlocal steps
        steps += 1
        return real_fold(*args)

    monkeypatch.setattr(costs, "fold", counting_fold)
    real = oracle.evaluate_mapping
    saved = 0
    seen = []
    for n, seed in ((16, 2001), (12, 2002), (13, 2004), (14, 2006)):
        dag = generate_dag(GeneratorSpec(n=n, states=(2, 3), seed=seed))
        layers = assign_layers(dag)
        model = BnComputationCost(dag, layers)
        runs = []
        for keep in (True, False):
            memos, repriced = [], 0

            def reprice(dag, layers, model, mapping, memo=None):
                nonlocal repriced
                memos.append(memo)
                before = steps
                try:
                    return real(dag, layers, model, mapping, memo if keep else None)
                finally:
                    repriced += steps - before

            monkeypatch.setattr(oracle, "evaluate_mapping", reprice)
            best, winners = optimal_set(dag, layers, model)
            assert type(memos[0]) is StepMemo and all(m is memos[0] for m in memos)
            assert len(memos) == len(winners)
            seen.append(memos[0])
            runs.append(((best, [(w.u, w.total_cost) for w in winners]), repriced))
        (shared, with_memo), (afresh, without) = runs
        assert shared == afresh
        assert with_memo <= without
        saved += without - with_memo
    assert saved > 0
    # A fresh memo per call.
    assert len(set(map(id, seen))) == len(seen)


def test_total_cost_all_singletons(fig1, fig1_layers, fig1_model):
    u = {i: i for i in fig1.node_ids()}
    # frozen from an independent hand derivation of the per-layer pops
    assert evaluate_mapping(fig1, fig1_layers, fig1_model, u).total == pytest.approx(
        5.2 + 10.4 + 11.2 + 7.2 + 9.6 + 7.6 + 5.2, abs=1e-9
    )


def test_total_cost_rejects_infeasible():
    d = parse_dag_text("node A\nnode B\nnode C\nedge A B\nedge B C\n")
    layers = assign_layers(d)
    model = BnComputationCost(d, layers)
    with pytest.raises(ValidationError):
        evaluate_mapping(d, layers, model, {1: 1, 2: 2, 3: 1})


# -- similarity ------------------------------------------------------------------


def test_similarity_identity(fig1):
    u = name_mapping(fig1, {"A": 2, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2})
    y = co_membership(u)
    assert similarity(y, [y]) == pytest.approx(1.0)


def test_similarity_singletons_closed_form(fig1):
    n = fig1.n
    singles = {i: i for i in fig1.node_ids()}
    ref = name_mapping(fig1, {"A": 2, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2})
    ones = sum(sum(row) for row in co_membership(ref))
    got = similarity(co_membership(singles), [co_membership(ref)])
    assert got == pytest.approx(n / ones)


def test_similarity_label_invariance():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(2, 9)
        u = {i: rng.randint(1, n) for i in range(1, n + 1)}
        perm = {k: 100 + k * 7 for k in set(u.values())}
        v = {i: perm[k] for i, k in u.items()}
        refs = [{i: rng.randint(1, n) for i in range(1, n + 1)} for _ in range(3)]
        refs = [co_membership(r) for r in refs]
        assert similarity(co_membership(u), refs) == pytest.approx(
            similarity(co_membership(v), refs)
        )


def test_similarity_shape_checks():
    y = co_membership({1: 1, 2: 1})
    z = co_membership({1: 1, 2: 1, 3: 2})
    with pytest.raises(ValidationError):
        similarity(y, [z])
    with pytest.raises(ValidationError):
        similarity(y, [])


def test_co_membership_matrix_properties():
    u = {1: 1, 2: 1, 3: 2, 4: 2, 5: 3}
    y = co_membership(u)
    n = len(y)
    for i in range(n):
        assert y[i][i] == 1
        for j in range(n):
            assert y[i][j] == y[j][i]
    # transitivity over shared clusters
    for i, j, k in itertools.permutations(range(n), 3):
        if y[i][j] and y[j][k]:
            assert y[i][k]
