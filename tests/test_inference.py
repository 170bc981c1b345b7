import gc
import weakref

import pytest

from dagclust import (
    BnComputationCost,
    Dag,
    LayerAssignment,
    ValidationError,
    assign_layers,
    cluster_inference_cost,
    evaluate_mapping,
    parse_dag_text,
)
from dagclust.factors import (
    DEFAULT_WEIGHTS,
    Load,
    Marginalize,
    Multiply,
    OpCostWeights,
    eval_schedule,
    marginalize_cost,
    multiply_cost,
)
from dagclust import inference
from dagclust.generator import GeneratorSpec, generate_dag
from dagclust.inference import cluster_inference_schedule
from dagclust.oracle import iter_feasible

from conftest import assert_stored_once, name_mapping
from test_golden import _feasible, _inference_graphs

WORKED = {"A": 1, "F": 1, "D": 2, "G": 2, "E": 3, "B": 6, "C": 7}
LINK_VARIANT = {"A": 2, "F": 1, "D": 2, "G": 2, "E": 3, "B": 6, "C": 7}


def test_worked_clustering_total(fig1, fig1_layers):
    u = name_mapping(fig1, WORKED)
    assert cluster_inference_cost(fig1, fig1_layers, u) == pytest.approx(117.2, abs=1e-9)


def test_worked_clustering_steps(fig1, fig1_layers):
    u = name_mapping(fig1, WORKED)
    res = cluster_inference_schedule(fig1, fig1_layers, u)
    fwd = {(s.cluster, s.layer): s.cost for s in res.steps if s.phase == "forward"}
    bwd = {(s.cluster, s.layer): s.cost for s in res.steps if s.phase == "backward"}
    assert fwd[(2, 1)] == pytest.approx(17.6, abs=1e-9)
    assert fwd[(2, 0)] == pytest.approx(17.6, abs=1e-9)
    assert fwd[(3, 1)] == pytest.approx(7.2, abs=1e-9)
    assert bwd[(2, 0)] == pytest.approx(10.4, abs=1e-9)
    assert bwd[(2, 1)] == pytest.approx(13.6, abs=1e-9)
    assert bwd[(3, 1)] == pytest.approx(7.2, abs=1e-9)
    absorbs = sorted(
        round(s.cost, 6) for s in res.steps if s.phase == "absorb"
    )
    assert absorbs == [pytest.approx(5.2), pytest.approx(5.2), pytest.approx(7.2)]
    posts = {
        s.label.split()[-1]: s.cost for s in res.steps if s.phase == "posterior"
    }
    assert posts["D"] == pytest.approx(5.2, abs=1e-9)
    assert posts["E"] == pytest.approx(5.2, abs=1e-9)
    assert posts["A"] == pytest.approx(1.2, abs=1e-9)
    assert posts["F"] == pytest.approx(1.2, abs=1e-9)
    assert posts["G"] == 0.0


def test_link_variant_step_costs(fig1, fig1_layers):
    """Moving the shared root into the mid cluster widens every partial it
    rides in; the leaf-layer step nearly doubles."""
    u = name_mapping(fig1, LINK_VARIANT)
    res = cluster_inference_schedule(fig1, fig1_layers, u)
    fwd = {(s.cluster, s.layer): s.cost for s in res.steps if s.phase == "forward"}
    assert fwd[(2, 0)] == pytest.approx(33.2, abs=1e-9)
    # The paper quotes 15.6 for the widened mid-layer step; no accounting that
    # also gives 33.2 reaches it (test_quoted_link_variant_step_unreachable).
    assert fwd[(2, 1)] == pytest.approx(16.4, abs=1e-9)


def _step_costs(factors, keep, states, charge_seed):
    """Every cost one accumulator can reach while multiplying ``factors`` in
    and summing out all dims outside ``keep``.

    Tries every multiply order and every point at which a dim may be summed
    out (once no factor still to come mentions it).  ``charge_seed`` decides
    whether the first multiply into the empty accumulator is charged like any
    other or is a free load.  Costs are rounded to 1e-6.
    """
    reached = set()

    def walk(acc, rest, cost):
        if not rest and acc == keep:
            reached.add(round(cost, 6))
        for x in sorted(acc - keep):
            if not any(x in f for f in rest):
                out, c = marginalize_cost(acc, x, states)
                walk(out, rest, cost + c)
        for i, f in enumerate(rest):
            if acc or charge_seed:
                out, c = multiply_cost(acc, f, states)
            else:
                out, c = f, 0.0
            walk(out, rest[:i] + rest[i + 1 :], cost + c)

    walk(frozenset(), list(factors), 0.0)
    return reached


def test_quoted_link_variant_step_unreachable(fig1, fig1_layers):
    """The quoted 15.6 for the link variant's mid-layer step cannot hold
    together with the fixtures that do, so criterion 1 asserts 16.4.

    Mid-layer step of cluster 2 (A, D, G): multiply its own layer-2 partial
    {A}, root cluster 6's export {B} and P(D|A,B); keep D, and keep A only
    if the link dim stays alive.  Leaf step: multiply the mid partial ({A,D},
    or {D} once A is gone), cluster 3's export {E} and P(G|D,E); keep G, and
    A if carried.  The worked mapping's mid-layer step is the same product
    with A summed out.
    """
    def d(names):
        return frozenset(fig1.id_of(c) for c in names)

    mid = [d("A"), d("B"), d("ABD")]

    def reachable(charge_seed):
        def costs(factors, keep):
            return _step_costs(factors, keep, fig1.states, charge_seed)

        mid_keep_a = costs(mid, d("AD"))
        mid_drop_a = costs(mid, d("D"))
        leaf = (
            costs([d("AD"), d("E"), d("DEG")], d("AG"))  # A carried through
            | costs([d("AD"), d("E"), d("DEG")], d("G"))  # A summed out here
            | costs([d("D"), d("E"), d("DEG")], d("G"))  # A summed out earlier
        )
        return mid_keep_a, mid_drop_a, leaf

    c_keep_a, c_drop_a, c_leaf = reachable(charge_seed=True)
    f_keep_a, f_drop_a, f_leaf = reachable(charge_seed=False)
    # No seed convention reaches both the quoted 15.6 and the passing 33.2.
    assert not (15.6 in c_keep_a | c_drop_a and 33.2 in c_leaf)
    assert not (15.6 in f_keep_a | f_drop_a and 33.2 in f_leaf)
    # The worked mid-layer step (17.6) needs the charged first multiply; made
    # free, it costs the quoted 15.6.
    assert 17.6 in c_drop_a and 17.6 not in f_drop_a and 15.6 in f_drop_a
    # Charged, no schedule of the variant mid-layer step undercuts 16.4.
    assert min(c_keep_a) == 16.4 and min(c_drop_a) == 17.6

    u = name_mapping(fig1, LINK_VARIANT)
    res = cluster_inference_schedule(fig1, fig1_layers, u)
    fwd = {(s.cluster, s.layer): s.cost for s in res.steps if s.phase == "forward"}
    assert fwd[(2, 1)] == pytest.approx(16.4, abs=1e-9)
    assert fwd[(2, 0)] == pytest.approx(33.2, abs=1e-9)
    assert round(fwd[(2, 1)], 6) in c_keep_a and round(fwd[(2, 0)], 6) in c_leaf


def test_rejects_noncontiguous(fig1, fig1_layers):
    u = {i: 1 for i in fig1.node_ids()}
    u[fig1.id_of("D")] = 2
    # path A -> D -> G leaves cluster 1 at D and re-enters at G
    with pytest.raises(ValidationError, match="contiguous"):
        cluster_inference_cost(fig1, fig1_layers, u)


def test_single_cluster_chain_matches_hand_schedule():
    d = parse_dag_text("node A\nnode B\nedge A B\n")
    layers = assign_layers(d)
    got = cluster_inference_cost(d, layers, {1: 1, 2: 1})
    a, b = d.id_of("A"), d.id_of("B")
    sched = [
        Multiply("joint", frozenset({a, b})),  # child table first (lower layer)
        Multiply("joint", frozenset({a})),
        Load("post:A", frozenset({a, b})),
        Marginalize("post:A", b),
        Load("post:B", frozenset({a, b})),
        Marginalize("post:B", a),
    ]
    expect, _ = eval_schedule(sched, d.states, BnComputationCost(d, layers).weights)
    assert got == pytest.approx(expect, abs=1e-9)


def test_whole_graph_single_cluster(fig1, fig1_layers):
    u = {i: 1 for i in fig1.node_ids()}
    total = cluster_inference_cost(fig1, fig1_layers, u)
    assert total > 0
    res = cluster_inference_schedule(fig1, fig1_layers, u)
    assert not [s for s in res.steps if s.phase == "backward"]


def test_requires_total_mapping(fig1, fig1_layers):
    with pytest.raises(ValidationError, match="unassigned"):
        cluster_inference_cost(fig1, fig1_layers, {1: 1})


def test_cost_path_equals_schedule_total(fig1, fig1_layers):
    """The cost path builds no steps but adds the same costs in the same
    order, so its total is the schedule's exactly."""
    named = [name_mapping(fig1, m) for m in (WORKED, LINK_VARIANT)]
    runs = [(fig1, fig1_layers, u) for u in named] + list(_feasible(_inference_graphs()))
    for dag, layers, u in runs:
        total = cluster_inference_schedule(dag, layers, u).total
        assert cluster_inference_cost(dag, layers, u) == total


def test_totals_add_the_steps_left_to_right(fig1, fig1_layers):
    """Both totals add the step costs one by one in schedule order, the
    floats ``sum`` gave before Python 3.12 compensated, on every feasible
    fig1 mapping."""
    count = 0
    for u in iter_feasible(fig1, fig1_layers):
        sched = cluster_inference_schedule(fig1, fig1_layers, u)
        total = 0.0
        for s in sched.steps:
            total += s.cost
        assert sched.total == total
        assert cluster_inference_cost(fig1, fig1_layers, u) == total
        count += 1
    assert count > 1


def test_cost_path_refuses_as_schedule_does(fig1, fig1_layers):
    """Both paths refuse alike, also once the memo holds fig1's steps."""
    for u in iter_feasible(fig1, fig1_layers):
        cluster_inference_schedule(fig1, fig1_layers, u)
    split = {i: 1 for i in fig1.node_ids()}
    split[fig1.id_of("D")] = 2
    for u in (split, {1: 1}):
        with pytest.raises(ValidationError) as want:
            cluster_inference_schedule(fig1, fig1_layers, u)
        with pytest.raises(ValidationError) as got:
            cluster_inference_cost(fig1, fig1_layers, u)
        assert str(got.value) == str(want.value)


def test_unknown_node_ids_refused(fig1, fig1_layers):
    u = {i: 1 for i in fig1.node_ids()}
    u[99] = 1
    model = BnComputationCost(fig1, fig1_layers)
    for price in (
        cluster_inference_cost,
        cluster_inference_schedule,
        lambda dag, layers, u: evaluate_mapping(dag, layers, model, u),
    ):
        with pytest.raises(ValidationError, match="unknown node ids: 99$"):
            price(fig1, fig1_layers, u)
        # Also when the unknown id stands in for a node it leaves out.
        del u[7]
        with pytest.raises(ValidationError, match="unknown node ids: 99$"):
            price(fig1, fig1_layers, u)
        u[7] = 1


def _copy(dag):
    """The same graph as a new ``Dag``, so with a memo of its own."""
    return Dag(list(dag.names), sorted(dag.arcs), dag.states)


def _priced(dag, layers, u, w=DEFAULT_WEIGHTS):
    steps = cluster_inference_schedule(dag, layers, u, w).steps
    return cluster_inference_cost(dag, layers, u, w), steps


def test_warm_and_cold_memos_agree(fig1, fig1_layers):
    """Pricing in either order on one Dag gives, bit for bit, what each
    mapping gives on a Dag of its own."""
    named = [name_mapping(fig1, m) for m in (WORKED, LINK_VARIANT)]
    runs = [(fig1, fig1_layers, named)]
    # The two n=8 graphs have steps that differ only in the set their
    # sum-out keeps, at different costs.
    extra = [generate_dag(GeneratorSpec(n=8, seed=s, states=(2, 3))) for s in (4, 10)]
    for dag in _inference_graphs() + extra:
        layers = assign_layers(dag)
        runs.append((dag, layers, list(iter_feasible(dag, layers))))
    for dag, layers, us in runs:
        one, back = _copy(dag), _copy(dag)
        forward = [_priced(one, layers, u) for u in us]
        backward = [_priced(back, layers, u) for u in reversed(us)][::-1]
        cold = [_priced(_copy(dag), layers, u) for u in us]
        assert forward == backward == cold, dag.names


def test_memo_keeps_weightings_apart():
    alt = OpCostWeights(add=0.5, mul=2.0, div=3.0)
    for dag in _inference_graphs():
        layers = assign_layers(dag)
        one = _copy(dag)
        for u in iter_feasible(dag, layers):
            for w in (DEFAULT_WEIGHTS, alt, DEFAULT_WEIGHTS):
                cold = cluster_inference_cost(_copy(dag), layers, u, w)
                assert cluster_inference_cost(one, layers, u, w) == cold, (u, w)
    # An int weight equals its float, but times a table past 2**53 cells
    # it rounds differently, so the two keep apart too.
    star = Dag(
        [f"p{i}" for i in range(29)] + ["x"],
        [(i, 30) for i in range(1, 30)],
        dict.fromkeys(range(1, 31), 5),
    )
    layers = assign_layers(star)
    u = dict.fromkeys(star.node_ids(), 1)
    ints, floats = OpCostWeights(mul=3), OpCostWeights(mul=3.0)
    got = [cluster_inference_cost(star, layers, u, w) for w in (ints, floats)]
    assert ints == floats and got[0] != got[1]
    assert got == [cluster_inference_cost(_copy(star), layers, u, w) for w in (ints, floats)]


def test_memo_lifetime_and_footprint(fig1):
    dag = _copy(fig1)
    layers = assign_layers(dag)
    us = list(iter_feasible(dag, layers))
    for u in us:
        cluster_inference_cost(dag, layers, u)
    tables = inference._TABLES[dag]
    (memo,) = tables.memos.values()
    (facts,) = tables.facts.values()

    def sizes():
        return len(memo.steps), len(memo.shared), len(facts.clusters), len(facts.pool.shared)

    size = sizes()
    assert size[2] == len({frozenset(x for x in u if u[x] == k) for u in us for k in u.values()})
    cluster_inference_cost(dag, layers, us[0])
    cluster_inference_schedule(dag, layers, us[0])
    assert sizes() == size

    assert_stored_once(memo)
    # The facts hold one object per distinct set, each member set included.
    ids: dict = {}

    def visit(x):
        if type(x) is frozenset:
            ids.setdefault(x, set()).add(id(x))
        elif isinstance(x, tuple):
            for y in x:
                visit(y)

    for members, f in facts.clusters.items():
        assert members is f.members
        visit(f)
    assert ids and all(len(same) == 1 for same in ids.values())

    # The tables hold their Dag weakly and go with it, facts included.
    gc.collect()
    held = len(inference._TABLES)
    gone = weakref.ref(dag)
    fact = weakref.ref(next(iter(facts.clusters)))
    del dag, tables, memo, facts, members, f, ids
    gc.collect()
    assert gone() is None and fact() is None
    assert len(inference._TABLES) == held - 1


def test_facts_keep_layerings_apart(fig1, fig1_layers):
    """One Dag priced under two layerings gives, under each, what a cold
    walk on a fresh copy gives: facts built for one layering are never
    read for another."""
    c = fig1.id_of("C")
    # C, a root, raised one layer: every parent still lies above its children.
    layer = dict(fig1_layers.layer)
    layer[c] += 1
    top = max(layer.values())
    raised = LayerAssignment(
        layer=layer,
        l_max=top,
        members={l: tuple(x for x in fig1.node_ids() if layer[x] == l) for l in range(top + 1)},
    )
    assert all(layer[p] > layer[x] for x in fig1.node_ids() for p in fig1.parents(x))
    dag = _copy(fig1)
    us = list(iter_feasible(dag, fig1_layers))
    for layers in (fig1_layers, raised, fig1_layers):
        for u in us:
            assert _priced(dag, layers, u) == _priced(_copy(fig1), layers, u), (layers, u)
    assert len(inference._TABLES[dag].facts) == 2
    # The two layerings give some mapping different schedules.
    assert any(_priced(dag, fig1_layers, u) != _priced(dag, raised, u) for u in us)
