import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagclust import (
    Dag,
    ValidationError,
    assign_layers,
    check_contiguity,
    parse_dag_text,
    search_space_size,
)
from dagclust.dag import founding_labels, format_dag_text, keeps_contiguity, proposal_clusters
from dagclust.generator import GeneratorSpec, generate_dag
from dagclust.oracle import iter_feasible

from conftest import name_mapping


# -- parsing and validation --------------------------------------------------


def test_parse_basic():
    d = parse_dag_text("# a comment\nnode A states=3\nnode B\nedge A B\n")
    assert d.n == 2
    assert d.states == {1: 3, 2: 2}
    assert (1, 2) in d.arcs


def test_parse_roundtrip(fig1):
    assert parse_dag_text(format_dag_text(fig1)).arcs == fig1.arcs


@pytest.mark.parametrize(
    "text,msg",
    [
        ("", "no nodes"),
        ("node A\nnode A\n", "duplicate"),
        ("node A\nedge A B\n", "unknown node"),
        ("node A\nfrob A\n", "unknown directive"),
        ("node A states=x\n", "bad states"),
        ("node A\nnode B\nedge A B\nedge A B\n", "duplicate arc"),
        ("node A\nedge A A\n", "self-arc"),
    ],
)
def test_parse_errors(text, msg):
    with pytest.raises(ValidationError, match=msg):
        parse_dag_text(text)


def test_cycle_rejected():
    with pytest.raises(ValidationError, match="cycle"):
        parse_dag_text("node A\nnode B\nedge A B\nedge B A\n")


def test_disconnected_rejected():
    with pytest.raises(ValidationError, match="connected"):
        parse_dag_text("node A\nnode B\nnode C\nedge A B\n")


@pytest.mark.parametrize(
    "states,msg",
    [
        ({3: 4, 0: 9}, "unknown node ids: 0, 3"),
        ({1: 2.5}, "state count 2.5, not an integer"),
        ({2: 0}, "state count 0 < 1"),
        ({1: True}, "state count True, not an integer"),
    ],
    ids=["unknown-ids", "float", "zero", "bool"],
)
def test_bad_state_table_rejected(states, msg):
    with pytest.raises(ValidationError, match=msg):
        Dag(["a", "b"], [(1, 2)], states)


# -- layers -------------------------------------------------------------------


def test_layers_example(fig1, fig1_layers):
    got = {fig1.name(i): fig1_layers.of(i) for i in fig1.node_ids()}
    assert got == {"F": 0, "G": 0, "D": 1, "E": 1, "A": 2, "B": 2, "C": 2}
    assert fig1_layers.l_max == 2


def test_layers_single_node():
    d = parse_dag_text("node X\n")
    l = assign_layers(d)
    assert l.of(1) == 0 and l.l_max == 0


def _longest_path_to_leaf(dag, start):
    # brute force over all directed paths
    best = 0
    stack = [(start, 0)]
    while stack:
        x, depth = stack.pop()
        kids = dag.children(x)
        if not kids:
            best = max(best, depth)
        for c in kids:
            stack.append((c, depth + 1))
    return best


@pytest.mark.parametrize("seed", range(6))
def test_layers_match_longest_path_oracle(seed):
    from conftest import random_test_dag

    dag = random_test_dag(seed, n=10)
    layers = assign_layers(dag)
    for x in dag.node_ids():
        assert layers.of(x) == _longest_path_to_leaf(dag, x)


def _relaxed_layers(dag):
    """Longest path to a leaf by relaxing every arc n times."""
    depth = dict.fromkeys(dag.node_ids(), 0)
    for _ in range(dag.n):
        for p, c in dag.arcs:
            depth[p] = max(depth[p], depth[c] + 1)
    return depth


@pytest.mark.parametrize("n", [1, 2, 7, 30, 118])
def test_layers_match_relaxed_longest_path_on_generated(n):
    for seed in range(4):
        for levels in (0, n):
            dag = generate_dag(GeneratorSpec(n=n, layers=levels, extra_arc_rate=0.8, seed=seed))
            layers = assign_layers(dag)
            assert layers.layer == _relaxed_layers(dag)
            assert layers.l_max == max(layers.layer.values())
            assert sorted(x for m in layers.members.values() for x in m) == list(dag.node_ids())


def test_layers_strictly_decrease_along_arcs(fig1, fig1_layers):
    for p, c in fig1.arcs:
        assert fig1_layers.of(p) > fig1_layers.of(c)


def test_layers_independent_of_input_order(fig1):
    base = {fig1.name(i): assign_layers(fig1).of(i) for i in fig1.node_ids()}
    names = list(fig1.names)
    rng = random.Random(7)
    for _ in range(5):
        perm = names[:]
        rng.shuffle(perm)
        arcs = [
            (perm.index(fig1.name(p)) + 1, perm.index(fig1.name(c)) + 1)
            for p, c in fig1.arcs
        ]
        d2 = Dag(perm, arcs)
        l2 = assign_layers(d2)
        assert {d2.name(i): l2.of(i) for i in d2.node_ids()} == base


def test_founding_labels(fig1, fig1_layers):
    labels = founding_labels(fig1, fig1_layers)
    named = {fig1.name(i): labels[i] for i in fig1.node_ids()}
    assert named == {"F": 1, "G": 2, "D": 3, "E": 4, "A": 5, "B": 6, "C": 7}


# -- contiguity ----------------------------------------------


def test_contiguity_chain_break():
    d = parse_dag_text("node A\nnode B\nnode C\nedge A B\nedge B C\n")
    assert not check_contiguity(d, {1: 1, 2: 2, 3: 1})
    assert check_contiguity(d, {1: 1, 2: 2, 3: 3})


def test_contiguity_all_feasible(fig1, fig1_layers):
    count = 0
    for u in iter_feasible(fig1, fig1_layers):
        assert check_contiguity(fig1, u)
        count += 1
    assert count == 48


def _raw_proposal_mappings(dag, layers):
    """Every proposal-rule mapping, contiguous or not: leaves open their own
    cluster, every other node opens its own or joins a child's."""
    labels = founding_labels(dag, layers)
    order = sorted(dag.node_ids(), key=lambda x: (layers.of(x), x))
    out = [{}]
    for x in order:
        out = [
            {**u, x: k}
            for u in out
            for k in {labels[x]} | {u[c] for c in dag.children(x)}
        ]
    return out


def test_contiguity_check_accepts_exactly_the_feasible_set():
    """``check_contiguity`` and ``iter_feasible`` share one walk; over raw
    proposal-rule mappings they must agree in both directions."""
    from conftest import random_test_dag

    rejected = 0
    for seed in range(40):
        dag = random_test_dag(seed, n=4 + seed % 7)
        layers = assign_layers(dag)
        raw = {tuple(sorted(u.items())): u for u in _raw_proposal_mappings(dag, layers)}
        accepted = {key for key, u in raw.items() if check_contiguity(dag, u)}
        feasible = [tuple(sorted(u.items())) for u in iter_feasible(dag, layers)]
        assert len(feasible) == len(set(feasible))
        assert set(feasible) == accepted
        rejected += len(raw) - len(accepted)
    assert rejected > 0  # the corpus exercises the rejecting branch


def _per_cluster_contiguity(dag, u):
    clusters = {}
    for x, k in u.items():
        clusters.setdefault(k, []).append(x)
    return all(keeps_contiguity(dag, u, ms, k) for k, ms in clusters.items())


@given(
    st.integers(1, 12),
    st.integers(0, 10**6),
    st.floats(0.0, 0.5),
    st.lists(st.integers(1, 4), min_size=12, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_one_pass_contiguity_equals_per_cluster_walk(n, seed, extra, labels):
    """The one-pass check agrees with a ``keeps_contiguity`` walk per
    cluster, on every feasible mapping and on random total mappings."""
    dag = generate_dag(GeneratorSpec(n=n, seed=seed, rewire=0.2, extra_arc_rate=extra))
    layers = assign_layers(dag)
    us = list(itertools.islice(iter_feasible(dag, layers), 200))
    us += [dict(zip(dag.node_ids(), labels[i:] + labels[:i])) for i in range(n)]
    verdicts = [check_contiguity(dag, u) for u in us]
    assert verdicts == [_per_cluster_contiguity(dag, u) for u in us]


def test_proposal_order_ascending_founding_label_last(fig1):
    """On every partial mapping the oracle builds, a non-leaf node's
    proposals ascend strictly and end with its founding label.  The search
    pushes proposals in this order, so the stream digests depend on it."""
    graphs = [fig1] + [
        generate_dag(GeneratorSpec(n=3 + gi % 8, seed=1000 + gi, rewire=0.2, extra_arc_rate=0.4))
        for gi in range(10)
    ]
    for dag in graphs:
        layers = assign_layers(dag)
        labels = founding_labels(dag, layers)
        order = sorted(dag.node_ids(), key=lambda x: (layers.of(x), x))
        for u in iter_feasible(dag, layers):
            for i, x in enumerate(order):
                if layers.of(x) == 0:
                    continue
                ks = proposal_clusters(dag, labels, {y: u[y] for y in order[:i]}, x)
                assert all(a < b for a, b in zip(ks, ks[1:]))
                assert ks[-1] == labels[x]
                assert u[x] in ks


# -- search-space size -------------------------------------------------------------


def test_search_space_example(fig1, fig1_layers):
    assert search_space_size(fig1, fig1_layers) == 48


def test_search_space_chain():
    d = parse_dag_text("node A\nnode B\nnode C\nedge A B\nedge B C\n")
    assert search_space_size(d, assign_layers(d)) == 4


def test_search_space_isolated_leaves():
    d = Dag(["X"], [])
    assert search_space_size(d, assign_layers(d)) == 1


@pytest.mark.parametrize("seed", range(8))
def test_enumeration_never_exceeds_formula(seed):
    from conftest import random_test_dag

    dag = random_test_dag(seed)
    layers = assign_layers(dag)
    count = sum(1 for _ in iter_feasible(dag, layers))
    assert count <= search_space_size(dag, layers)


def test_enumeration_equals_formula_on_trees():
    # every node has a single child: options never collide
    d = parse_dag_text(
        "node A\nnode B\nnode C\nnode D\nedge A B\nedge B C\nedge D C\n"
    )
    layers = assign_layers(d)
    assert sum(1 for _ in iter_feasible(d, layers)) == search_space_size(d, layers)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_random_dag_layer_invariant(seed):
    from conftest import random_test_dag

    dag = random_test_dag(seed)
    layers = assign_layers(dag)
    for p, c in dag.arcs:
        assert layers.of(p) >= layers.of(c) + 1
    for l, members in layers.members.items():
        for a, b in itertools.combinations(members, 2):
            assert (a, b) not in dag.arcs and (b, a) not in dag.arcs
