import gc
import io
import os
import random
import threading
import time

import pytest

from dagclust import (
    BnComputationCost,
    SearchConfig,
    assign_layers,
    check_contiguity,
    parse_dag_text,
    search,
    seven_node_example,
    stream_search,
)
from dagclust.cli import main as cli_main
from dagclust.generator import GeneratorSpec, generate_dag
from dagclust.oracle import enumerate_feasible, optimal_set
from dagclust.search import (
    ClusterSearch,
    ConfigError,
    enumerate_combos,
    partition_signature,
)

from conftest import name_mapping, random_test_dag


# -- configuration -----------------------------------------------------------


def test_alpha_range_checked():
    with pytest.raises(ConfigError):
        SearchConfig(alpha=1.5)
    with pytest.raises(ConfigError, match="max_iterations"):
        SearchConfig(max_iterations=-1)
    with pytest.raises(ConfigError, match="stall_window"):
        SearchConfig(stall_window=-1)
    SearchConfig(max_iterations=0, stall_window=0)


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


@pytest.mark.parametrize(
    "graphs,alpha,seed",
    [
        pytest.param(lambda: [seven_node_example()], 0.5, 5, id="fig1"),
        *(
            pytest.param(
                lambda: [random_test_dag(1000 + gi, n=3 + gi % 8) for gi in range(50)], alpha, 0,
                id=f"criterion4-alpha{alpha}",
            )
            for alpha in (0.0, 0.5, 1.0)
        ),
        pytest.param(lambda: [generate_dag(GeneratorSpec(n=16, seed=1))], 0.5, 0, id="n16"),
    ],
)
def test_emitted_mappings_contiguous(graphs, alpha, seed):
    """Every emitted mapping is contiguous, and no two are equal.  The
    engine keeps no per-solution state, so these checks live here."""
    for dag in graphs():
        layers = assign_layers(dag)
        res = search(dag, layers, BnComputationCost(dag, layers), SearchConfig(alpha=alpha, seed=seed))
        mappings = [tuple(sorted(s.mapping.items())) for s in res.solutions]
        assert len(set(mappings)) == len(mappings)
        assert all(check_contiguity(dag, s.mapping) for s in res.solutions)


def test_same_seed_same_stream(fig1, fig1_layers, fig1_model):
    a = search(fig1, fig1_layers, fig1_model, SearchConfig(alpha=0.5, seed=9))
    b = search(fig1, fig1_layers, fig1_model, SearchConfig(alpha=0.5, seed=9))
    assert [(s.iteration, s.total_cost, s.branch) for s in a.solutions] == [
        (s.iteration, s.total_cost, s.branch) for s in b.solutions
    ]


def test_second_run_repeats_the_first(fig1, fig1_layers, fig1_model):
    """A run builds its own state, so running one instance twice gives one
    stream and one report."""
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig(alpha=0.5, seed=3))
    a, b = cs.run(), cs.run()
    assert a.solutions
    assert [(s.iteration, s.branch, s.total_cost, s.mapping) for s in a.solutions] == [
        (s.iteration, s.branch, s.total_cost, s.mapping) for s in b.solutions
    ]
    assert a.report == b.report


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


def test_closed_stream_stops_its_worker():
    """Closing the generator ends the worker at its next solution, so a slow
    search does not run on unseen to its iteration cap."""
    dag = generate_dag(GeneratorSpec(n=30, seed=0))
    layers = assign_layers(dag)
    plain = BnComputationCost(dag, layers)

    class Slow:
        weights = plain.weights
        transitions = 0

        def transition(self, *args):
            Slow.transitions += 1
            time.sleep(0.001)
            return plain.transition(*args)

        def heuristic(self, *args):
            return plain.heuristic(*args)

    before = set(threading.enumerate())
    stream = stream_search(dag, layers, Slow(), SearchConfig.enumeration(max_iterations=10_000))
    next(stream)
    (worker,) = set(threading.enumerate()) - before
    stream.close()
    worker.join(timeout=5)
    assert not worker.is_alive()
    done = Slow.transitions
    time.sleep(0.05)
    assert Slow.transitions == done


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


# -- white-box: queue, proposals, pruning ---------------------------------------------


def test_fresh_search_leaf_entries_eligible(fig1, fig1_layers, fig1_model):
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    assert {key for _, _, _, key in cs._ready} == {(1, 0), (2, 0)}
    assert all(bid == 1 for _, _, bid, _ in cs._ready)
    assert all(ghat == pytest.approx(85.8, abs=1e-9) for ghat, _, _, _ in cs._ready)


def test_first_pop_proposes_parent_clusters(fig1, fig1_layers, fig1_model):
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    br, key = cs._take_ready()
    assert br is cs.branches[1]
    assert key == (1, 0)  # the F proposal was pushed first
    cs._process_pop(br, key)
    added = {key: ghat for key, (ghat, _) in cs.branches[1].pending.items() if key[1] == 2}
    assert set(added) == {(1, 2), (5, 2)}
    for ghat in added.values():
        assert ghat == pytest.approx(87.8, abs=1e-9)


def test_root_pop_proposes_nothing(fig1, fig1_layers, fig1_model):
    u = name_mapping(fig1, {"F": 1, "G": 2, "D": 2, "E": 3})
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    br = cs.branches[1]
    br.u.update(u)
    before = len(br.pending)
    cs._propose_parents(br, frozenset({fig1.id_of("B")}))
    assert len(br.pending) == before


def test_inactive_branch_entries_excluded(fig1, fig1_layers, fig1_model):
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    br = cs.branches[1]
    clone = br.clone(99, cs._seq)
    assert not clone.active
    assert list(clone.pending) == list(br.pending)
    assert all(c[1] > b[1] for c, b in zip(clone.pending.values(), br.pending.values()))
    cs.branches[99] = clone
    cs._push(clone, (3, 0), 50.0)
    assert all(bid != 99 for _, _, bid, _ in cs._ready)
    assert cs._waiting_top(cs._waiting_ghat) is None
    cs._index_waiting(clone)
    assert cs._waiting_ghat[0] == (50.0, clone.pending[3, 0][1], 99)
    assert cs._waiting_layer[0] == (0, clone.pending[1, 0][1], 99)
    assert cs._next_waiting() is clone
    cs._activate(clone)
    assert {key for _, _, bid, key in cs._ready if bid == 99} == {(1, 0), (2, 0), (3, 0)}
    assert cs._waiting_top(cs._waiting_ghat) is None


def test_prune_keeps_incumbent_ties(fig1, fig1_layers, fig1_model):
    """Against an incumbent of 35.2 the dearer twin dies when it pops, while
    both branches that tie the incumbent survive theirs."""
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    a = cs.branches[1]
    b = a.clone(2, cs._seq)
    c = a.clone(3, cs._seq)
    cs.branches[2] = b
    cs.branches[3] = c
    a.g = {0: 35.2}
    b.g = {0: 36.0}
    c.g = {0: 35.2}
    cs.gmin = 35.2
    for br in (a, b, c):
        cs._prune_at_pop(br)
    assert a.alive and not b.alive and c.alive
    assert set(cs.branches) == {1, 3}


def test_prune_against_incumbent(fig1, fig1_layers, fig1_model):
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    br = cs.branches[1]
    br.g = {0: 90.0}  # already above the naive incumbent 85.8
    cs._prune_at_pop(br)
    assert not br.alive


def test_branch_below_incumbent_not_pruned(fig1, fig1_layers, fig1_model):
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    br = cs.branches[1]
    br.g = {0: 10.0}
    cs._prune_at_pop(br)
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
        # Only a branch's own pop adds proposals, so one with none left is
        # dropped when its pop ends.
        assert all(b.pending for b in self.branches.values())
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


class _GatherLog:
    """Cost model wrapper that records, for each transition, the indexes of
    the records it gathers: those holding a child of the costed nodes."""

    def __init__(self, dag, inner):
        self.dag = dag
        self.inner = inner
        self.weights = inner.weights
        self.heuristic = inner.heuristic
        self.gathers = {}

    def transition(self, u, entries, cluster, layer, zset, memo=None):
        kids = frozenset().union(*(self.dag.children(z) for z in zset))
        self.gathers[tuple(entries), zset] = {
            i for i, e in enumerate(entries) if not kids.isdisjoint(e.members)
        }
        return self.inner.transition(u, entries, cluster, layer, zset, memo)


class _LiveAudit(ClusterSearch):
    """Checks at every proposal that the live records kept on the branch are
    the records no transition on the branch's history has gathered, and
    those none of whose members has an assigned parent."""

    checks = 0

    def _propose_parents(self, br, popped):
        gathered = set()
        for j, e in enumerate(br.entries):
            gathered |= self.model.gathers[tuple(br.entries[:j]), e.members]
        expect = [e for i, e in enumerate(br.entries) if i not in gathered]
        assert list(br.live) == expect
        parents = self.dag.parents
        unparented = [
            e for e in br.entries if not any(br.u.get(p) for x in e.members for p in parents(x))
        ]
        assert list(br.live) == unparented
        self.checks += 1
        super()._propose_parents(br, popped)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_live_entries_are_the_ungathered_records(alpha):
    graphs = [seven_node_example()] + [
        generate_dag(GeneratorSpec(n=3 + gi % 8, seed=1000 + gi, rewire=0.2, extra_arc_rate=0.4))
        for gi in range(100)
    ]
    checks = 0
    for dag in graphs:
        layers = assign_layers(dag)
        model = _GatherLog(dag, BnComputationCost(dag, layers))
        cs = _LiveAudit(dag, layers, model, SearchConfig(alpha=alpha, seed=0))
        assert cs.run().solutions
        checks += cs.checks
    assert checks > 0


def test_estimate_memo_is_per_search():
    """A search keeps its completion memo to itself: a second run on the
    same model repeats the first, the model is unchanged, and compare's
    threads give the rows of a single thread."""
    dag = generate_dag(GeneratorSpec(n=30, seed=1))
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers)

    def snapshot():
        return {k: (v, dict(v) if isinstance(v, dict) else None) for k, v in vars(model).items()}

    # The model builds its node tables at its first estimate, and keeps
    # nothing else.
    model.heuristic(dag.node_ids(), [])
    before = snapshot()
    runs = []
    for _ in range(2):
        cs = ClusterSearch(dag, layers, model, SearchConfig(seed=0, max_iterations=150))
        runs.append(cs.run())
        assert cs._memo is None
    a, b = runs
    assert a.solutions
    assert a.report == b.report
    assert [(s.iteration, s.branch, s.total_cost, s.mapping) for s in a.solutions] == [
        (s.iteration, s.branch, s.total_cost, s.mapping) for s in b.solutions
    ]
    assert snapshot() == before

    fig1_path = os.path.join(os.path.dirname(__file__), "..", "data", "fig1.dag")
    rows = []
    for jobs in ("1", "2"):
        buf = io.StringIO()
        assert cli_main(["compare", fig1_path, "--seeds", "3", "--alphas", "0,0.5,1", "--jobs", jobs], out=buf) == 0
        rows.append(buf.getvalue())
    assert rows[0] == rows[1]


def test_search_drops_its_memo_after_run():
    """A run hands its transitions and estimates one memo, and once the run
    ends nothing but the caller's own reference holds it: not the search,
    not its model."""
    dag = generate_dag(GeneratorSpec(n=12, seed=3))
    layers = assign_layers(dag)
    plain = BnComputationCost(dag, layers)
    seen = []

    class Recording:
        weights = plain.weights

        def transition(self, u, entries, cluster, layer, zset, memo=None):
            seen.append(memo)
            return plain.transition(u, entries, cluster, layer, zset, memo)

        def heuristic(self, remaining, live, u=None, memo=None):
            seen.append(memo)
            return plain.heuristic(remaining, live, u, memo)

    cs = ClusterSearch(dag, layers, Recording(), SearchConfig(seed=0))
    cs.run()
    assert len(set(map(id, seen))) == 1
    memo = seen.pop()
    assert memo.steps
    seen.clear()
    gc.collect()
    assert gc.get_referrers(memo) == []


def test_heuristic_never_below_remaining_optimum(fig1, fig1_layers, fig1_model):
    best, _ = optimal_set(fig1, fig1_layers, fig1_model)
    h0 = fig1_model.heuristic(fig1.node_ids(), [])
    assert h0 >= best - 1e-9


# -- the selection index against a full scan -------------------------------------------


def _scan_ready(cs):
    """The (branch id, key) of the eligible proposal with the lowest
    (ghat, seq), found by scanning every pending proposal of every live
    active branch."""
    eligible = [
        (ghat, seq, br.id, key)
        for br in cs.branches.values()
        if br.alive and br.active
        for key, (ghat, seq) in br.pending.items()
        if key[1] <= br.progress
    ]
    return min(eligible)[2:] if eligible else None


def _scan_waiting(cs):
    """The branch an activation picks, found by scanning every pending proposal
    of every live inactive branch; the RNG draw is read from a copy."""
    waiting = [
        (ghat, layer, seq, br)
        for br in cs.branches.values()
        if br.alive and not br.active
        for (_, layer), (ghat, seq) in br.pending.items()
    ]
    if not waiting:
        return None
    draw = random.Random()
    draw.setstate(cs.rng.getstate())
    if draw.random() < cs.config.alpha:
        pick = min(waiting, key=lambda w: (w[0], w[2]))
    else:
        pick = min(waiting, key=lambda w: (w[1], w[2]))
    return pick[3]


class _Differential(ClusterSearch):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.pops = self.activations = 0

    def _take_ready(self):
        expect = _scan_ready(self)
        got = super()._take_ready()
        if expect is None:
            assert got is None, (self.iteration, got)
        else:
            assert got[0] is self.branches[expect[0]] and got[1] == expect[1], (self.iteration, got, expect)
        self.pops += got is not None
        return got

    def _next_waiting(self):
        expect = _scan_waiting(self)
        got = super()._next_waiting()
        assert got is expect, (self.iteration, got, expect)
        self.activations += got is not None
        return got


def _differential_graphs():
    return [seven_node_example()] + [random_test_dag(1000 + gi, n=3 + gi % 8) for gi in range(10)]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_index_picks_what_a_full_scan_picks(alpha):
    """Every pop and activation of a run is the one the brute-force scan over
    all pending proposals would choose, and at termination no index holds a
    valid top and no dead, finished or spent branch is kept."""
    pops = activations = 0
    for dag in _differential_graphs():
        layers = assign_layers(dag)
        cs = _Differential(dag, layers, BnComputationCost(dag, layers), SearchConfig(alpha=alpha, seed=0))
        res = cs.run()
        assert not res.report.terminated_early
        pops += cs.pops
        activations += cs.activations
        assert ClusterSearch._take_ready(cs) is None
        assert cs._waiting_top(cs._waiting_ghat) is None
        assert cs._waiting_top(cs._waiting_layer) is None
        # Killed and finished branches, and those with no proposal left,
        # leave at once.
        assert all(b.alive and b.pending and len(b.u) < dag.n for b in cs.branches.values())
    assert pops > 0 and activations > 0


class _PushAudit(ClusterSearch):
    """Counts pushes to inactive branches, and those that reach one the
    current pop did not clone."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._first_clone = None  # lowest branch id a running pop may clone
        self.inactive_pushes = self.strays = 0

    def _process_pop(self, br, key):
        self._first_clone = self.branches_created + 1
        try:
            return super()._process_pop(br, key)
        finally:
            self._first_clone = None

    def _push(self, br, key, ghat):
        if not br.active:
            self.inactive_pushes += 1
            self.strays += self._first_clone is None or br.id < self._first_clone
        super()._push(br, key, ghat)


def test_inactive_branch_gains_proposals_only_in_its_cloning_pop():
    """An inactive branch is indexed once, when the pop that cloned it ends,
    so no later push may reach it: fig1 and the criterion-4 graphs."""
    graphs = [seven_node_example()] + [
        generate_dag(GeneratorSpec(n=3 + gi % 8, seed=1000 + gi, rewire=0.2, extra_arc_rate=0.4))
        for gi in range(100)
    ]
    inactive_pushes = 0
    for dag in graphs:
        layers = assign_layers(dag)
        cs = _PushAudit(dag, layers, BnComputationCost(dag, layers), SearchConfig(alpha=0.5, seed=0))
        cs.run()
        assert cs.strays == 0
        inactive_pushes += cs.inactive_pushes
    assert inactive_pushes > 0
