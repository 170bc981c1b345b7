import pytest

from dagclust import (
    BnComputationCost,
    JEntry,
    ValidationError,
    assign_layers,
    evaluate_mapping,
    ghat,
    parse_dag_text,
)
from dagclust.factors import Marginalize, Multiply, eval_schedule

from conftest import name_mapping


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


def test_heuristic_upper_bounds_singleton_completion(fig1, fig1_layers, fig1_model):
    u = {i: i for i in fig1.node_ids()}
    singleton = evaluate_mapping(fig1, fig1_layers, fig1_model, u).total
    assert fig1_model.heuristic(fig1.node_ids(), []) >= singleton - 1e-9


# -- ghat ------------------------------------------------------------------------


def test_ghat_sums():
    est = ghat(0.0, 5.2, 82.6)
    assert est.total == pytest.approx(87.8, abs=1e-9)
    assert ghat(0.0, 0.0, 85.8).total == pytest.approx(85.8, abs=1e-9)


def test_ghat_rejects_negative():
    with pytest.raises(ValidationError):
        ghat(-1.0, 0.0, 0.0)


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
    res = evaluate_mapping(fig1, fig1_layers, fig1_model, u)
    by_cl = {(k, l): cost for k, l, _, cost in res.transitions}
    assert by_cl[(2, 0)] == pytest.approx(10.4, abs=1e-9)
    assert by_cl[(2, 1)] == pytest.approx(13.6, abs=1e-9)
