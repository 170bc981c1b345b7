import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagclust import OpCostWeights, ValidationError, assign_layers, parse_dag_text
from dagclust.factors import (
    Divide,
    Load,
    Marginalize,
    Multiply,
    bucket_elimination_cost,
    divide_cost,
    dump_schedule_tsv,
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
    with pytest.raises(ValidationError):
        OpCostWeights(add=0.0)
    with pytest.raises(ValidationError):
        OpCostWeights(div=-1.0)


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


def test_dump_tsv(fig1):
    total, rows = bucket_elimination_cost(fig1, assign_layers(fig1), fig1.id_of("F"))
    text = dump_schedule_tsv(rows, fig1)
    lines = text.strip().splitlines()
    assert lines[0] == "step_index\top\taccumulator_id\tdims\tcost"
    assert len(lines) == len(rows) + 1


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
