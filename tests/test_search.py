import pytest

from dagclust import (
    BnComputationCost,
    SearchConfig,
    assign_layers,
    check_contiguity,
    parse_dag_text,
    search,
    stream_search,
)
from dagclust.oracle import enumerate_feasible, optimal_set
from dagclust.search import ClusterSearch, ConfigError, enumerate_combos, partition_signature

from conftest import name_mapping


# -- configuration -----------------------------------------------------------


def test_alpha_range_checked():
    with pytest.raises(ConfigError):
        SearchConfig(alpha=1.5)


def test_enumeration_mode_coupling():
    with pytest.raises(ConfigError):
        SearchConfig(gmin_infinite=True, prune_enabled=True)
    cfg = SearchConfig.enumeration()
    assert cfg.gmin_infinite and not cfg.prune_enabled


def test_leaf_init_validation(fig1, fig1_layers, fig1_model):
    with pytest.raises(ConfigError, match="exactly the leaf nodes"):
        ClusterSearch(
            fig1, fig1_layers, fig1_model, SearchConfig(leaf_init={1: 1})
        )._leaf_labels()
    with pytest.raises(ConfigError, match="reserved"):
        ClusterSearch(
            fig1,
            fig1_layers,
            fig1_model,
            SearchConfig(leaf_init={fig1.id_of("F"): 5, fig1.id_of("G"): 2}),
        )._leaf_labels()


# -- combination generation -----------------------------------------------------


def test_combos_free_pair():
    combos = enumerate_combos({1, 2}, set())
    assert combos[0] == frozenset({1, 2})
    assert set(combos) == {
        frozenset({1, 2}),
        frozenset({1}),
        frozenset({2}),
        frozenset(),
    }


def test_combos_pinned_ride_along():
    combos = enumerate_combos({1, 2, 3}, {1})
    assert all(1 in c for c in combos)
    assert frozenset({1}) in combos  # the empty-subset case


def test_combos_nothing_free():
    assert enumerate_combos({4}, {4}) == [frozenset({4})]
    assert enumerate_combos(set(), set()) == [frozenset()]


def test_combos_match_worked_example():
    """Two clusters proposed over three nodes where the first node is pinned
    to one of them: popping both cluster-layers yields exactly four complete
    mappings."""
    d = parse_dag_text(
        "node X1\nnode X2\nnode X3\nnode L\nedge X1 L\nedge X2 L\nedge X3 L\n"
    )
    layers = assign_layers(d)
    model = BnComputationCost(d, layers)
    res = search(d, layers, model, SearchConfig.enumeration())
    mapped = {
        tuple(s.mapping[d.id_of(n)] for n in ("X1", "X2", "X3"))
        for s in res.solutions
    }
    # every node may open its own cluster or join the leaf's; 8 combinations
    assert len(mapped) == 8 == res.report.branches_complete


# -- engine versus oracle on the example graph --------------------------------------


def test_engine_matches_oracle(fig1, fig1_layers, fig1_model):
    best, winners = optimal_set(fig1, fig1_layers, fig1_model)
    res = search(fig1, fig1_layers, fig1_model, SearchConfig(seed=0))
    assert res.report.optimal_cost == pytest.approx(best, abs=1e-9)
    got = sorted({partition_signature(s.mapping) for s in res.solutions if s.optimal})
    assert got == sorted(w.signature for w in winners)
    assert res.report.optimal_solution_count == 3


def test_engine_enumeration_mode(fig1, fig1_layers, fig1_model):
    res = search(fig1, fig1_layers, fig1_model, SearchConfig.enumeration(seed=2))
    assert res.report.branches_complete == 48
    mappings = {tuple(sorted(s.mapping.items())) for s in res.solutions}
    assert len(mappings) == 48
    expect = {
        tuple(sorted(f.u.items())) for f in enumerate_feasible(fig1, fig1_layers)
    }
    assert mappings == expect


def test_emitted_mappings_contiguous(fig1, fig1_layers, fig1_model):
    res = search(fig1, fig1_layers, fig1_model, SearchConfig(seed=5))
    for s in res.solutions:
        assert check_contiguity(fig1, s.mapping)


def test_same_seed_same_stream(fig1, fig1_layers, fig1_model):
    a = search(fig1, fig1_layers, fig1_model, SearchConfig(alpha=0.5, seed=9))
    b = search(fig1, fig1_layers, fig1_model, SearchConfig(alpha=0.5, seed=9))
    assert [(s.iteration, s.total_cost, s.branch) for s in a.solutions] == [
        (s.iteration, s.total_cost, s.branch) for s in b.solutions
    ]


def test_stream_matches_batch(fig1, fig1_layers, fig1_model):
    batch = search(fig1, fig1_layers, fig1_model, SearchConfig(seed=4))
    streamed = list(stream_search(fig1, fig1_layers, fig1_model, SearchConfig(seed=4)))
    assert [(s.iteration, s.total_cost) for s in streamed] == [
        (s.iteration, s.total_cost) for s in batch.solutions
    ]


def test_stream_reraises_model_failure(fig1, fig1_layers, fig1_model):
    class Failing:
        weights = fig1_model.weights
        calls = 0

        def transition(self, *args):
            Failing.calls += 1
            if Failing.calls > 12:
                raise RuntimeError("model failed")
            return fig1_model.transition(*args)

        def heuristic(self, *args):
            return fig1_model.heuristic(*args)

    with pytest.raises(RuntimeError, match="model failed"):
        list(stream_search(fig1, fig1_layers, Failing(), SearchConfig(seed=4)))


def test_stall_window_terminates_early(fig1, fig1_layers, fig1_model):
    full = search(fig1, fig1_layers, fig1_model, SearchConfig(seed=0))
    stalled = search(
        fig1, fig1_layers, fig1_model, SearchConfig(seed=0, stall_window=1000)
    )
    assert stalled.report.optimal_cost == pytest.approx(54.0, abs=1e-9)
    assert stalled.report.iterations_total <= full.report.iterations_total


def test_max_iterations_flagged(fig1, fig1_layers, fig1_model):
    res = search(fig1, fig1_layers, fig1_model, SearchConfig(seed=0, max_iterations=5))
    assert res.report.terminated_early


def test_explicit_leaf_init(fig1, fig1_layers, fig1_model):
    cfg = SearchConfig(leaf_init={fig1.id_of("F"): 1, fig1.id_of("G"): 2})
    res = search(fig1, fig1_layers, fig1_model, cfg)
    assert res.report.optimal_cost == pytest.approx(54.0, abs=1e-9)
    assert res.report.optimal_solution_count == 3


def test_relabelled_leaf_init(fig1, fig1_layers, fig1_model):
    """Leaves propose the labels leaf_init gives them, not their founding
    labels; the optima are the same partitions."""
    cfg = SearchConfig(leaf_init={fig1.id_of("F"): 8, fig1.id_of("G"): 9})
    res = search(fig1, fig1_layers, fig1_model, cfg)
    assert res.report.optimal_cost == pytest.approx(54.0, abs=1e-9)
    assert res.report.optimal_solution_count == 3
    assert {s.mapping[fig1.id_of("F")] for s in res.solutions} == {8}


def test_merged_leaf_init(fig1, fig1_layers, fig1_model):
    cfg = SearchConfig(leaf_init={fig1.id_of("F"): 1, fig1.id_of("G"): 1})
    res = search(fig1, fig1_layers, fig1_model, cfg)
    for s in res.solutions:
        assert s.mapping[fig1.id_of("F")] == s.mapping[fig1.id_of("G")] == 1


# -- white-box: queue, proposals, pruning ---------------------------------------------


def test_fresh_search_leaf_entries_eligible(fig1, fig1_layers, fig1_model):
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    eligible = cs._eligible()
    assert {(e.cluster, e.layer) for e in eligible} == {(1, 0), (2, 0)}
    assert all(e.ghat == pytest.approx(85.8, abs=1e-9) for e in eligible)


def test_first_pop_proposes_parent_clusters(fig1, fig1_layers, fig1_model):
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    entry = min(cs._eligible(), key=lambda e: (e.ghat, e.seq))
    assert entry.cluster == 1  # the F proposal was pushed first
    cs.pending[entry.branch].remove(entry)
    cs._process_pop(cs.branches[entry.branch], entry)
    added = {(e.cluster, e.layer): e for e in cs.pending[1] if e.layer == 2}
    assert set(added) == {(1, 2), (5, 2)}
    for e in added.values():
        assert e.ghat == pytest.approx(87.8, abs=1e-9)


def test_root_pop_proposes_nothing(fig1, fig1_layers, fig1_model):
    u = name_mapping(fig1, {"F": 1, "G": 2, "D": 2, "E": 3})
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    br = cs.branches[1]
    br.u.update(u)
    before = len(cs.pending.get(1, []))
    cs._propose_parents(br, frozenset({fig1.id_of("B")}))
    assert len(cs.pending.get(1, [])) == before


def test_inactive_branch_entries_excluded(fig1, fig1_layers, fig1_model):
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    br = cs.branches[1]
    clone = br.clone(99, creation_layer=1)
    cs.branches[99] = clone
    cs._push(type(cs.pending[1][0])(99, 3, 0, 50.0, 999))
    assert all(e.branch != 99 for e in cs._eligible())
    assert any(e.branch == 99 for e in cs._inactive_entries())
    clone.active = True
    assert any(e.branch == 99 for e in cs._eligible())


def test_prune_dominated_twin_branches(fig1, fig1_layers, fig1_model):
    """Among linked branches the dearer cumulative prefix dies; ties and the
    incumbent bound are both honoured."""
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    a = cs.branches[1]
    b = a.clone(2, creation_layer=1)
    c = a.clone(3, creation_layer=1)
    cs.branches[2] = b
    cs.branches[3] = c
    a.g = {0: 35.2}
    b.g = {0: 36.0}
    c.g = {0: 35.2}
    key = (1, ("sig",))
    cs.links[key] = {1, 2, 3}
    for bid in (1, 2, 3):
        cs.branch_links[bid] = [key]
    cs._prune_at_pop(a, 1)
    assert cs.branches[1].alive and not cs.branches[2].alive and cs.branches[3].alive


def test_prune_against_incumbent(fig1, fig1_layers, fig1_model):
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    br = cs.branches[1]
    br.g = {0: 90.0}  # already above the naive incumbent 85.8
    cs._prune_at_pop(br, 1)
    assert not br.alive


def test_unlinked_branch_not_pruned(fig1, fig1_layers, fig1_model):
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    br = cs.branches[1]
    br.g = {0: 10.0}
    cs._prune_at_pop(br, 1)
    assert br.alive


# -- invariants over whole runs ------------------------------------------------------


class _Instrumented(ClusterSearch):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.gmin_trace = []
        self.popped_dead = 0

    def _process_pop(self, br, entry):
        if not br.alive:
            self.popped_dead += 1
        out = super()._process_pop(br, entry)
        self.gmin_trace.append(self.gmin)
        return out


@pytest.mark.parametrize("alpha,seed", [(0.0, 0), (0.5, 1), (1.0, 2)])
def test_run_invariants(fig1, fig1_layers, fig1_model, alpha, seed):
    cs = _Instrumented(fig1, fig1_layers, fig1_model, SearchConfig(alpha=alpha, seed=seed))
    res = cs.run()
    assert cs.popped_dead == 0
    for prev, cur in zip(cs.gmin_trace, cs.gmin_trace[1:]):
        assert cur <= prev + 1e-9
    live_u = {}
    for b in cs.branches.values():
        if b.alive and b.u:
            key = tuple(sorted(b.u.items()))
            assert key not in live_u or not b.alive
            live_u[key] = b.id
    assert res.report.iterations_total > 0


def test_heuristic_never_below_remaining_optimum(fig1, fig1_layers, fig1_model):
    best, _ = optimal_set(fig1, fig1_layers, fig1_model)
    h0 = fig1_model.heuristic(fig1.node_ids(), [])
    assert h0 >= best - 1e-9
