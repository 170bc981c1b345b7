import pytest

from dagclust import (
    BnComputationCost,
    JEntry,
    SearchConfig,
    ValidationError,
    assign_layers,
    evaluate_mapping,
    parse_dag_text,
    seven_node_example,
)
from dagclust import costs as costs_module
from dagclust.costs import StepMemo, layer_transitions
from dagclust.dag import founding_labels
from dagclust.factors import (
    Marginalize,
    Multiply,
    eval_schedule,
    fold,
    marginalize_away,
    marginalize_cost,
    multiply_cost,
    table_size,
)
from dagclust.generator import GeneratorSpec, generate_dag
from dagclust.oracle import enumerate_feasible, optimal_set
from dagclust.search import ClusterSearch, search

from conftest import assert_stored_once, name_mapping, random_test_dag


def test_first_pop_transition(fig1, fig1_layers, fig1_model):
    t = fig1_model.transition({}, [], 1, 0, frozenset({fig1.id_of("F")}))
    assert t.cost == pytest.approx(5.2, abs=1e-9)
    assert t.dims == frozenset({fig1.id_of("A")})


def test_transition_requires_nodes(fig1_model):
    with pytest.raises(ValidationError, match="empty"):
        fig1_model.transition({}, [], 1, 0, frozenset())


def test_transition_requires_assigned_children(fig1, fig1_model):
    with pytest.raises(ValidationError, match="not yet assigned"):
        fig1_model.transition({}, [], 3, 1, frozenset({fig1.id_of("D")}))


def test_root_singleton_matches_direct_schedule(fig1, fig1_layers, fig1_model):
    """A parentless singleton with nothing retained is just its own table
    multiplied in and summed out; cross-check against an explicit schedule."""
    b = fig1.id_of("B")
    d = fig1.id_of("D")
    u = {x: 99 for x in fig1.node_ids() if x != b}
    entry = JEntry(99, 1, frozenset({d}), frozenset({fig1.id_of("A"), b}))
    t = fig1_model.transition(u, [entry], 6, 2, frozenset({b}))
    sched = [
        Marginalize("p", fig1.id_of("A")),
        Multiply("acc", frozenset({b})),
        Multiply("acc", frozenset({b})),
    ]
    # seed the partial accumulator first, then replay the gather by hand
    from dagclust.factors import Load

    sched = [Load("p", entry.dims)] + sched
    expect, _ = eval_schedule(sched, fig1.states, fig1_model.weights)
    assert t.cost == pytest.approx(expect, abs=1e-9)
    assert t.dims == frozenset({b})  # link node rides along


def test_transition_gathers_and_restricts(fig1, fig1_layers, fig1_model):
    """Costing D's singleton layer after F and G reproduces the worked
    figures: the child partial is cut down to shared dimensions first."""
    idF, idG, idD, idE = (fig1.id_of(n) for n in "FGDE")
    u = {idF: 1, idG: 2}
    entries = [
        JEntry(1, 0, frozenset({idF}), frozenset({fig1.id_of("A")})),
        JEntry(2, 0, frozenset({idG}), frozenset({idD, idE})),
    ]
    t = fig1_model.transition({**u, idD: 2}, entries, 2, 1, frozenset({idD}))
    assert t.cost == pytest.approx(13.6, abs=1e-9)
    assert t.dims == frozenset({fig1.id_of("A"), fig1.id_of("B")})
    t2 = fig1_model.transition({**u, idE: 3}, entries, 3, 1, frozenset({idE}))
    assert t2.cost == pytest.approx(7.2, abs=1e-9)
    assert t2.dims == frozenset({fig1.id_of("C"), idE})


def test_joint_layer_exceeds_split_singletons(fig1, fig1_model):
    """Overlapping-scope nodes costed as one cluster-layer exceed the sum of
    their singleton costs here.  This is not super-additivity in general:
    when one child partial carries both nodes' dimensions, costing them
    apart restricts that partial twice, which can cost more than joining."""
    idF, idG, idD, idE = (fig1.id_of(n) for n in "FGDE")
    u = {idF: 1, idG: 2}
    entries = [
        JEntry(1, 0, frozenset({idF}), frozenset({fig1.id_of("A")})),
        JEntry(2, 0, frozenset({idG}), frozenset({idD, idE})),
    ]
    joint = fig1_model.transition(
        {**u, idD: 2, idE: 2}, entries, 2, 1, frozenset({idD, idE})
    ).cost
    s1 = fig1_model.transition({**u, idD: 2}, entries, 2, 1, frozenset({idD})).cost
    s2 = fig1_model.transition({**u, idE: 4}, entries, 4, 1, frozenset({idE})).cost
    assert joint > s1 + s2


# -- heuristic -----------------------------------------------------------------


def test_heuristic_all_nodes(fig1, fig1_model):
    assert fig1_model.heuristic(fig1.node_ids(), []) == pytest.approx(85.8, abs=1e-9)


def test_heuristic_after_first_pop(fig1, fig1_model):
    idF = fig1.id_of("F")
    t = fig1_model.transition({}, [], 1, 0, frozenset({idF}))
    rest = [x for x in fig1.node_ids() if x != idF]
    h = fig1_model.heuristic(rest, [JEntry(1, 0, frozenset({idF}), t.dims)], {idF: 1})
    assert h == pytest.approx(82.6, abs=1e-9)


def test_heuristic_nothing_left(fig1, fig1_model):
    u = {i: i for i in fig1.node_ids()}
    assert fig1_model.heuristic([], [], u) == 0.0


def test_heuristic_upper_bounds_singleton_completion():
    """The root estimate seeds the incumbent, so it must be at least the
    total of a feasible mapping: the one that gives every node its founding
    label.  Checked exactly on fig1, the criterion-4 family and the
    anytime_large graphs."""
    graphs = (
        [seven_node_example()]
        + [
            generate_dag(GeneratorSpec(n=3 + gi % 8, seed=1000 + gi, rewire=0.2, extra_arc_rate=0.4))
            for gi in range(100)
        ]
        + [generate_dag(GeneratorSpec(n=n, seed=seed)) for n in (50, 100) for seed in range(1, 5)]
    )
    for dag in graphs:
        layers = assign_layers(dag)
        model = BnComputationCost(dag, layers)
        total = evaluate_mapping(dag, layers, model, founding_labels(dag, layers)).total
        assert model.heuristic(dag.node_ids(), []) >= total


def test_root_estimate_prices_the_founding_mapping_once(monkeypatch):
    """The founding-label total is kept on the model from its first root
    estimate: a second root estimate returns the same float without
    pricing the mapping again."""
    dag = generate_dag(GeneratorSpec(n=30, seed=2))
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers)
    priced = []

    def counting(*args, **kwargs):
        priced.append(args)
        return evaluate_mapping(*args, **kwargs)

    monkeypatch.setattr(costs_module, "evaluate_mapping", counting)
    first = model.heuristic(dag.node_ids(), [])
    assert len(priced) == 1
    assert first == max(
        model._sweep_estimate(set(dag.node_ids()), []),
        evaluate_mapping(dag, layers, model, founding_labels(dag, layers)).total,
    )
    assert model.heuristic(dag.node_ids(), [], {}, StepMemo()) == first
    assert len(priced) == 1


# -- the estimate against a plain one ----------------------------------------------


def _plain_transition(model, u, entries, cluster, layer, zset):
    """A transition that scans every record: (cost, dims)."""
    dag, states, w = model.dag, model.dag.states, model.weights
    for z in zset:
        for c in dag.children(z):
            if not u.get(c):
                raise ValidationError(f"child {dag.name(c)} of {dag.name(z)} not yet assigned")
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
    summed = frozenset(z for z in zset if all(u.get(c) == cluster for c in dag.children(z)))
    dims, cost = marginalize_away(dims, dims - summed, states, w, cost)
    return cost, dims


def _plain_heuristic(model, remaining, live, u):
    """The completion estimate with nothing indexed: the elimination sweep,
    raised at the root (every node remaining, no live record) to the total
    of the founding-label mapping.  That mapping is walked on every input,
    one singleton cluster-layer per remaining node, lowest (layer, id)
    first, and its first transition to meet a child neither assigned nor
    remaining refuses the input."""
    dag, layers, states, w = model.dag, model.layers, model.dag.states, model.weights
    remaining = list(remaining)
    acc, sweep = fold([(e.dims, e.layer, e.cluster) for e in live], None, (), states, w)
    for x in sorted(remaining, key=lambda x: (layers.of(x), table_size(dag.scope(x), states), x)):
        acc, c = multiply_cost(acc, dag.scope(x), states, w)
        sweep += c
        acc, c = marginalize_cost(acc, x, states, w)
        sweep += c
    labels = founding_labels(dag, layers)
    entries, u2, singles = list(live), dict(u), 0.0
    for z in sorted(remaining, key=lambda x: (layers.of(x), x)):
        k = labels[z]
        cost, dims = _plain_transition(model, u2, entries, k, layers.of(z), frozenset({z}))
        entries.append(JEntry(k, layers.of(z), frozenset({z}), dims))
        u2[z] = k
        singles += cost
    if live or len(remaining) < dag.n:
        return sweep
    return max(sweep, singles)


class _StateLog(ClusterSearch):
    """Records the (remaining, live, u) the search estimates from at every
    proposal."""

    def _propose_parents(self, br, popped):
        self.log.append((self._unassigned(br), list(br.live), dict(br.u)))
        super()._propose_parents(br, popped)


def _estimate_runs():
    """(dag, config, whether to check refusals on the dag)."""
    small = [seven_node_example()] + [
        generate_dag(GeneratorSpec(n=3 + gi % 8, seed=1000 + gi, rewire=0.2, extra_arc_rate=0.4))
        for gi in range(20)
    ]
    for dag in small:
        for alpha in (0.0, 0.5, 1.0):
            yield dag, SearchConfig(alpha=alpha, seed=0), True
    for seed in (1, 2):
        dag = generate_dag(GeneratorSpec(n=50, seed=seed))
        yield dag, SearchConfig(seed=0, max_iterations=200), seed == 1


def test_memoised_estimate_equals_reference():
    """On every state real searches estimate from, the estimate equals the
    plain one exactly, alone and through one memo shared in log order, which
    keeps fewer folds than there are states; a child neither assigned nor
    remaining is refused with the same error, on small graphs and on a
    50-node one."""
    states = refused = folds = 0
    for dag, cfg, refusals in _estimate_runs():
        layers = assign_layers(dag)
        model = BnComputationCost(dag, layers)
        cs = _StateLog(dag, layers, model, cfg)
        cs.log = [(list(dag.node_ids()), [], {})]
        cs.run()
        # Once each, and again through one memo shared in log order, as
        # the run shares its own.
        memo = StepMemo()
        for remaining, live, u in cs.log:
            expect = _plain_heuristic(model, remaining, live, u)
            assert model.heuristic(remaining, live, u) == expect
            assert model.heuristic(remaining, live, u, memo) == expect
        assert_stored_once(memo)
        states += len(cs.log)
        folds += len(memo.steps)
        if not refusals:
            continue
        # Leave one node out of a fresh completion: each of its parents
        # then has a child neither assigned nor remaining, also when the
        # node maps to no cluster or a remaining node is assigned instead,
        # which leave every node counted once.
        for x in dag.node_ids():
            rest = [y for y in dag.node_ids() if y != x]
            for u in ({}, {x: 0}, {rest[0]: 1}):
                try:
                    expect = _plain_heuristic(model, rest, [], u)
                except ValidationError as exc:
                    with pytest.raises(ValidationError) as got:
                        model.heuristic(rest, [], u)
                    assert str(got.value) == str(exc)
                    refused += dag.n == 50
                else:
                    assert not dag.parents(x)
                    assert model.heuristic(rest, [], u) == expect
    assert states > 1000 and folds < states
    assert refused > 20


class _MemoAudit:
    """Cost model proxy that prices every transition handed a memo again
    without one, and keeps each distinct memo it sees, by identity."""

    def __init__(self, inner):
        self.inner = inner
        self.weights = inner.weights
        self.heuristic = inner.heuristic
        self.memos: list[dict] = []
        self.checked = 0

    def _seen(self, memo):
        if memo is not None and all(m is not memo for m in self.memos):
            self.memos.append(memo)

    def transition(self, u, entries, cluster, layer, zset, memo=None):
        t = self.inner.transition(u, entries, cluster, layer, zset, memo)
        if memo is not None:
            plain = self.inner.transition(u, entries, cluster, layer, zset)
            assert t.cost == plain.cost and t.dims == plain.dims
            self.checked += 1
        self._seen(memo)
        return t


def _memo_steps(memo) -> int:
    return len(memo.steps)


def test_memoised_transitions_equal_plain_ones(fig1):
    """On the criterion-4 family, every transition priced through a memo
    equals the plain one, ``==`` on cost and dims: in searches at alpha 0,
    0.5 and 1, whose transitions share one memo per run, and in the
    oracle's walks, one memo per walk, and in ``optimal_set``'s repricing
    of its winners, one memo of its own."""
    from test_acceptance import _random_suite

    priced = stored = 0
    for dag in [fig1] + _random_suite():
        layers = assign_layers(dag)
        model = BnComputationCost(dag, layers)
        audits = []
        for alpha in (0.0, 0.5, 1.0):
            audit = _MemoAudit(model)
            search(dag, layers, audit, SearchConfig(alpha=alpha, seed=0))
            assert len(audit.memos) == 1 and audit.checked > 0
            audits.append(audit)
        audit = _MemoAudit(model)
        enumerate_feasible(dag, layers, audit)
        optimal_set(dag, layers, audit)
        assert len(audit.memos) == 3
        audits.append(audit)
        priced += sum(a.checked for a in audits)
        stored += sum(_memo_steps(m) for a in audits for m in a.memos)
    # The memos hit: far fewer steps were stored than transitions were
    # priced.
    assert stored * 4 < priced


def test_memo_repeats_are_hits(fig1, fig1_layers, fig1_model):
    """A repeated transition returns the stored result, and equal result
    dims are kept once."""
    audit = _MemoAudit(fig1_model)
    enumerate_feasible(fig1, fig1_layers, audit)
    (memo,) = audit.memos
    assert _memo_steps(memo) < audit.checked
    u = {x: x for x in fig1.node_ids()}
    first = list(layer_transitions(fig1_model, u, [], 0, fig1_layers.members[0], memo))
    again = list(layer_transitions(fig1_model, u, [], 0, fig1_layers.members[0], memo))
    assert first == again
    assert all(a.dims is b.dims for (a, _), (b, _) in zip(first, again))
    dims = [v.dims for v in memo.steps.values()]
    assert all(memo.shared[d] is d for d in dims)


def test_run_and_walk_memos_store_each_set_once(fig1):
    """A search's run memo and an oracle walk's memo hold one object per
    distinct frozenset and per ``(dims, layer, cluster)`` part, keys
    included, as the inference memo does."""
    for dag in [fig1] + [random_test_dag(seed) for seed in (3, 8, 21)]:
        layers = assign_layers(dag)
        audit = _MemoAudit(BnComputationCost(dag, layers))
        search(dag, layers, audit, SearchConfig(alpha=0.5, seed=0))
        enumerate_feasible(dag, layers, audit)
        run, walk = audit.memos
        assert_stored_once(run)
        assert_stored_once(walk)


# -- mapping evaluation -------------------------------------------------------------


@pytest.mark.parametrize(
    "named,expect",
    [
        ({"A": 2, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2}, 54.0),
        ({"A": 1, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2}, 54.0),
        ({"A": 5, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2}, 54.0),
        ({"A": 1, "B": 6, "C": 2, "D": 1, "E": 2, "F": 1, "G": 2}, 57.6),
        ({"A": 1, "B": 6, "C": 7, "D": 1, "E": 2, "F": 1, "G": 2}, 57.0),
    ],
)
def test_published_mapping_totals(fig1, fig1_layers, fig1_model, named, expect):
    u = name_mapping(fig1, named)
    assert evaluate_mapping(fig1, fig1_layers, fig1_model, u).total == pytest.approx(
        expect, abs=1e-9
    )


def test_evaluate_rejects_noncontiguous():
    d = parse_dag_text("node A\nnode B\nnode C\nedge A B\nedge B C\n")
    layers = assign_layers(d)
    model = BnComputationCost(d, layers)
    with pytest.raises(ValidationError, match="contiguous"):
        evaluate_mapping(d, layers, model, {1: 1, 2: 2, 3: 1})


def test_worked_per_step_costs(fig1, fig1_layers, fig1_model):
    u = name_mapping(fig1, {"A": 1, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2})
    entries = []
    by_cl = {
        (e.cluster, l): cost
        for l in range(fig1_layers.l_max + 1)
        for e, cost in layer_transitions(fig1_model, u, entries, l, fig1_layers.members.get(l, ()))
    }
    assert by_cl[(2, 0)] == pytest.approx(10.4, abs=1e-9)
    assert by_cl[(2, 1)] == pytest.approx(13.6, abs=1e-9)
