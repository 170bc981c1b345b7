import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagclust import OpCostWeights, ValidationError, parse_dag_text
from dagclust.factors import (
    Divide,
    Load,
    Marginalize,
    Multiply,
    bucket_elimination_cost,
    divide_cost,
    eval_schedule,
    fold,
    jointree_fixture_cost,
    marginalize_away,
    marginalize_cost,
    multiply_cost,
    table_size,
)

BIN = {i: 2 for i in range(1, 9)}
W = OpCostWeights()


def fs(*xs):
    return frozenset(xs)


# -- primitives ---------------------------------------------------------------


def test_multiply_into_scalar():
    dims, cost = multiply_cost(fs(), fs(1, 2, 3), BIN, W)
    assert dims == fs(1, 2, 3) and cost == 8


def test_multiply_overlapping():
    dims, cost = multiply_cost(fs(5, 3), fs(4, 5), BIN, W)
    assert dims == fs(3, 4, 5) and cost == 8


def test_multiply_single_dim():
    dims, cost = multiply_cost(fs(), fs(1), BIN, W)
    assert dims == fs(1) and cost == 2


def test_marginalize_three_dims():
    dims, cost = marginalize_cost(fs(7, 4, 5), 7, BIN, W)
    assert dims == fs(4, 5) and cost == pytest.approx(2.4)


def test_marginalize_two_dims():
    dims, cost = marginalize_cost(fs(1, 6), 6, BIN, W)
    assert dims == fs(1) and cost == pytest.approx(1.2)


def test_marginalize_four_dims():
    dims, cost = marginalize_cost(fs(1, 2, 3, 4), 4, BIN, W)
    assert dims == fs(1, 2, 3) and cost == pytest.approx(4.8)


def test_marginalize_missing_node():
    with pytest.raises(ValidationError, match="marginalize"):
        marginalize_cost(fs(1), 2, BIN, W)


def test_marginalize_nonbinary():
    states = {1: 4, 2: 3}
    dims, cost = marginalize_cost(fs(1, 2), 1, states, W)
    assert cost == pytest.approx((4 - 1) * 3 * 0.6)


def test_divide():
    assert divide_cost(fs(1), BIN, W) == pytest.approx(6.0)
    assert divide_cost(fs(), BIN, W) == pytest.approx(3.0)
    assert divide_cost(fs(4), BIN, W) == pytest.approx(6.0)


def test_weights_must_be_positive():
    for bad in ({"add": 0.0}, {"div": -1.0}, {"add": float("nan")}, {"mul": float("inf")}):
        with pytest.raises(ValidationError, match="finite and strictly positive"):
            OpCostWeights(**bad)


# -- schedules -----------------------------------------------------------------


def test_empty_schedule():
    total, rows = eval_schedule([], BIN, W)
    assert total == 0.0 and rows == []


def test_schedule_tracks_accumulators():
    sched = [
        Multiply("a", fs(1, 2)),
        Marginalize("a", 1),
        Load("b", fs(3)),
        Multiply("b", fs(2)),
        Divide("b", fs(2)),
    ]
    total, rows = eval_schedule(sched, BIN, W)
    assert [r.op for r in rows] == ["multiply", "marginalize", "load", "multiply", "divide"]
    assert total == pytest.approx(4 + 1.2 + 0 + 4 + 6)


def test_schedule_error_identifies_step():
    with pytest.raises(ValidationError, match="step 1"):
        eval_schedule([Multiply("a", fs(1)), Marginalize("a", 9)], BIN, W)
    with pytest.raises(ValidationError, match="step 0"):
        eval_schedule([Marginalize("ghost", 1)], BIN, W)


def test_schedule_total_matches_recomputed_primitives():
    sched = [
        Multiply("x", fs(1, 2, 3)),
        Marginalize("x", 2),
        Multiply("x", fs(4)),
        Marginalize("x", 1),
    ]
    total, rows = eval_schedule(sched, BIN, W)
    acc = fs()
    expect = 0.0
    for step in sched:
        if isinstance(step, Multiply):
            acc, c = multiply_cost(acc, step.dims, BIN, W)
        else:
            acc, c = marginalize_cost(acc, step.node, BIN, W)
        expect += c
    assert total == pytest.approx(expect, abs=1e-9)


def test_fold_matches_explicit_schedule():
    """Parts are cut first, then multiplied smallest first with ties broken
    by layer, then the own tables follow in order."""
    states = {**BIN, 3: 3}
    parts = [(fs(1, 2, 3), 1, 5), (fs(4), 0, 9), (fs(2, 4), 0, 7)]
    dims, cost = fold(parts, fs(1, 2, 4), [fs(1, 6)], states, W)
    total, _ = eval_schedule(
        [
            Load("cut", fs(1, 2, 3)),
            Marginalize("cut", 3),
            Multiply("acc", fs(4)),
            Multiply("acc", fs(2, 4)),
            Multiply("acc", fs(1, 2)),
            Multiply("acc", fs(1, 6)),
        ],
        states,
        W,
    )
    assert dims == fs(1, 2, 4, 6)
    assert cost == total
    assert fold(parts, None, (), states, W)[0] == fs(1, 2, 3, 4)


def test_marginalize_away_continues_the_running_sum():
    dims, cost = marginalize_away(fs(1, 2, 3), fs(2), BIN, W, cost=0.1)
    assert dims == fs(2)
    assert cost == (0.1 + 4 * 0.6) + 2 * 0.6


# -- worked totals ----------------------------------------------------------------


def test_bucket_elimination_total(fig1, fig1_layers):
    total, _ = bucket_elimination_cost(fig1, fig1_layers, fig1.id_of("F"))
    assert total == pytest.approx(64.4, abs=1e-9)


def test_bucket_elimination_explicit_order(fig1, fig1_layers):
    order = [fig1.id_of(n) for n in "GEDCBA"]
    total, _ = bucket_elimination_cost(fig1, fig1_layers, fig1.id_of("F"), order)
    assert total == pytest.approx(64.4, abs=1e-9)


def test_bucket_elimination_bad_order(fig1, fig1_layers):
    with pytest.raises(ValidationError, match="elimination order"):
        bucket_elimination_cost(fig1, fig1_layers, fig1.id_of("F"), [1, 2])


def test_jointree_total(fig1):
    total, rows = jointree_fixture_cost(fig1)
    assert total == pytest.approx(132.8, abs=1e-9)


def test_jointree_rejects_other_graphs():
    d = parse_dag_text("node A\nnode B\nedge A B\n")
    with pytest.raises(ValidationError):
        jointree_fixture_cost(d)


# -- properties --------------------------------------------------------------------

dims_strategy = st.frozensets(st.integers(1, 8), min_size=0, max_size=5)


@given(dims_strategy, dims_strategy)
@settings(max_examples=60, deadline=None)
def test_multiply_commutative_beyond_scalar(a, b):
    d1, c1 = multiply_cost(a, b, BIN, W)
    d2, c2 = multiply_cost(b, a, BIN, W)
    assert d1 == d2 and c1 == pytest.approx(c2)


@given(dims_strategy, st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_marginalize_then_multiply_is_never_dearer(acc, node):
    """Summing a node out before multiplying a disjoint factor in costs no
    more than doing it the other way around."""
    if node not in acc:
        acc = acc | {node}
    other = frozenset({9})
    states = {**BIN, 9: 2}
    a1, c1 = marginalize_cost(acc, node, states, W)
    a1, c2 = multiply_cost(a1, other, states, W)
    early = c1 + c2
    b1, c3 = multiply_cost(acc, other, states, W)
    b1, c4 = marginalize_cost(b1, node, states, W)
    late = c3 + c4
    assert early <= late + 1e-9
    assert a1 == b1


@given(st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_table_size_products(a, b):
    states = {1: a, 2: b}
    assert table_size(fs(1, 2), states) == a * b
    assert table_size(fs(), states) == 1


def _replay_away(dims, keep, states, w, cost=0.0):
    for d in sorted(dims - keep):
        dims, c = marginalize_cost(dims, d, states, w)
        cost += c
    return dims, cost


def _replay_fold(parts, keep, tables, states, w):
    """``fold`` as its charges were first written: one primitive per
    operation, each table sized from scratch."""
    cost = 0.0
    cut = []
    for dims, layer, cluster in parts:
        if keep is not None:
            dims, cost = _replay_away(dims, keep, states, w, cost)
        cut.append((dims, layer, cluster))
    acc = fs()
    for dims, _, _ in sorted(cut, key=lambda t: (table_size(t[0], states), t[1], t[2])):
        acc, c = multiply_cost(acc, dims, states, w)
        cost += c
    for dims in tables:
        acc, c = multiply_cost(acc, dims, states, w)
        cost += c
    return acc, cost


_node_dims = st.frozensets(st.integers(1, 6), max_size=4)
# None keeps everything, the empty set and {7} (no part holds node 7) drop
# everything, any other set cuts.
_keeps = st.one_of(st.none(), st.just(fs()), st.just(fs(7)), _node_dims)
_parts = st.lists(st.tuples(_node_dims, st.integers(0, 2), st.integers(1, 3)), max_size=5)
_weights = st.sampled_from([W, OpCostWeights(add=0.7, mul=1.3, div=2.0)])

# Three parts of one size whose multiply order changes the total: the first
# is ordered only by layer, the second only by cluster.
_TIE_BY_LAYER = [(fs(1, 2), 1, 1), (fs(3, 4), 0, 2), (fs(1, 3), 0, 3)]
_TIE_BY_CLUSTER = [(fs(1, 2), 0, 1), (fs(1, 3), 0, 3), (fs(3, 4), 0, 2)]


@given(
    st.lists(st.integers(1, 4), min_size=6, max_size=6),
    _parts,
    _keeps,
    st.lists(_node_dims, max_size=3),
    _weights,
)
@example([2] * 6, _TIE_BY_LAYER, None, [], W)
@example([2] * 6, _TIE_BY_CLUSTER, None, [], W)
@example([2, 3, 4, 1, 2, 3], _TIE_BY_LAYER, fs(1, 3), [fs(2, 5)], W)
@settings(max_examples=300, deadline=None)
def test_kernel_equals_primitive_replay(counts, parts, keep, tables, w):
    """``fold`` and ``marginalize_away`` carry table sizes as integers; their
    dims and float costs equal, bit for bit, a replay of the same charges
    through ``multiply_cost``, ``marginalize_cost`` and ``table_size``."""
    states = dict(enumerate(counts, start=1))
    assert fold(parts, keep, tables, states, w) == _replay_fold(parts, keep, tables, states, w)
    for dims, _, _ in parts:
        for k in (fs(), fs(7), keep or fs()):
            want = _replay_away(dims, k, states, w, 0.1)
            assert marginalize_away(dims, k, states, w, 0.1) == want
