import gc
import io
import itertools
import math
import os
import random
import sys
import threading
import time

import pytest

from dagclust import (
    BnComputationCost,
    SearchConfig,
    ValidationError,
    assign_layers,
    check_contiguity,
    parse_dag_text,
    search,
    seven_node_example,
    stream_search,
)
from dagclust.cli import main as cli_main
from dagclust.costs import JEntry
from dagclust.dag import keeps_contiguity, proposal_clusters
from dagclust.generator import GeneratorSpec, generate_dag
from dagclust.oracle import enumerate_feasible, optimal_set
from dagclust.search import (
    ClusterSearch,
    ConfigError,
    _NO_PROPOSALS,
    _Branch,
    _Snapshot,
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
    res = search(d, layers, model, SearchConfig(prune_enabled=False))
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
    res = search(fig1, fig1_layers, fig1_model, SearchConfig(prune_enabled=False, seed=2))
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
    stream = stream_search(dag, layers, Slow(), SearchConfig(prune_enabled=False, max_iterations=10_000))
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


class _ZeroEstimate:
    """The stock transitions with an estimate of 0 everywhere, so the root
    estimate lies below every feasible mapping's cost."""

    def __init__(self, inner):
        self.inner = inner
        self.weights = inner.weights

    def transition(self, *args):
        return self.inner.transition(*args)

    def heuristic(self, *args):
        return 0.0


@pytest.mark.parametrize("run", [search, lambda *a: list(stream_search(*a))], ids=["search", "stream"])
def test_search_refuses_a_root_estimate_below_every_mapping(fig1, fig1_layers, fig1_model, run):
    """A pruned run that empties its queue with no solution fails loudly,
    naming the root estimate; a capped one returns an empty result."""
    model = _ZeroEstimate(fig1_model)
    with pytest.raises(ValidationError, match=r"root estimate 0\.0 lies below every feasible mapping's cost"):
        run(fig1, fig1_layers, model, SearchConfig(seed=0))
    capped = run(fig1, fig1_layers, model, SearchConfig(seed=0, max_iterations=1))
    solutions = capped.solutions if run is search else capped
    assert solutions == []
    if run is search:
        assert capped.report.terminated_early and capped.report.optimal_cost is None
    # Unpruned, the same model finds every mapping.
    assert run(fig1, fig1_layers, model, SearchConfig(prune_enabled=False, seed=0))


# -- white-box: queue, proposals, pruning ---------------------------------------------


def _queued(br):
    """Every proposal the branch queues as (key, ghat, seq), in seq order:
    the snapshot entries (an inactive clone's), then its own."""
    inherited = [(key, ghat, seq) for seq, (key, ghat) in enumerate(br.snap.ghat.items(), br.seq0)]
    return inherited + [(key, ghat, seq) for key, (ghat, seq) in br.own.items()]


def _snapshot(br):
    """The snapshot a cloning pop of the active branch ``br`` builds."""
    return _Snapshot(
        {key: ghat for key, (ghat, _) in br.own.items()}, dict(br.u), list(br.entries), dict(br.g)
    )


def _assignment(br):
    """The branch's assignment: its own ``u``, or a waiting clone's
    snapshot's plus its combo, priced or not."""
    if br.delta is None:
        return br.u
    entry, _ = br.delta
    u = dict(br.snap.u)
    if entry is not None:
        u.update(dict.fromkeys(entry.members, entry.cluster))
    return u


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
    added = {key: ghat for key, ghat, _ in _queued(cs.branches[1]) if key[1] == 2}
    assert set(added) == {(1, 2), (5, 2)}
    for ghat in added.values():
        assert ghat == pytest.approx(87.8, abs=1e-9)


def test_root_pop_proposes_nothing(fig1, fig1_layers, fig1_model):
    u = name_mapping(fig1, {"F": 1, "G": 2, "D": 2, "E": 3})
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    br = cs.branches[1]
    br.u.update(u)
    before = _queued(br)
    keys = cs._parent_keys(br, frozenset({fig1.id_of("B")}))
    assert keys == []
    cs._propose_parents(br, keys)
    assert _queued(br) == before


class _Counting:
    """Cost model proxy that counts its transitions and estimates."""

    def __init__(self, inner):
        self.inner = inner
        self.weights = inner.weights
        self.transitions = self.estimates = 0

    def transition(self, *args):
        self.transitions += 1
        return self.inner.transition(*args)

    def heuristic(self, *args):
        self.estimates += 1
        return self.inner.heuristic(*args)


class _EmptyPops(ClusterSearch):
    """Checks that a pop which no unassigned node of its layer can join
    walks no contiguity and costs, estimates and clones nothing, and keeps
    the iterations of such pops.  ``walks`` counts the contiguity checks."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.empty = []
        self.walks = 0

    def _process_pop(self, br, key):
        k, l = key
        places = any(
            k in proposal_clusters(self.dag, self.labels, br.u, x)
            for x in self.layers.members.get(l, ())
            if not br.u.get(x)
        )
        model = self.model
        before = (self.walks, model.transitions, model.estimates, self.branches_created)
        out = super()._process_pop(br, key)
        if not places:
            assert (self.walks, model.transitions, model.estimates, self.branches_created) == before
            assert out == []
            self.empty.append(self.iteration)
        return out


def test_pop_that_places_no_node_only_counts(fig1, monkeypatch):
    """A pop that can place no node walks no contiguity, costs no
    transition, makes no estimate and creates no branch, yet counts as one
    iteration."""
    for dag in (fig1, random_test_dag(1007, n=10)):
        layers = assign_layers(dag)
        model = _Counting(BnComputationCost(dag, layers))
        cs = _EmptyPops(dag, layers, model, SearchConfig(seed=0))

        def walk(*args, cs=cs):
            cs.walks += 1
            return keeps_contiguity(*args)

        # ``dagclust.search`` as an attribute of the package is the function.
        monkeypatch.setattr(sys.modules["dagclust.search"], "keeps_contiguity", walk)
        cs.run()
        monkeypatch.undo()
        assert cs.walks
        assert cs.empty
        counts = []
        for cap in (cs.empty[0] - 1, cs.empty[0]):
            model.transitions = model.estimates = 0
            capped = ClusterSearch(dag, layers, model, SearchConfig(seed=0, max_iterations=cap))
            capped.run()
            counts.append((capped.iteration, capped.branches_created, model.transitions, model.estimates))
        before, after = counts
        assert after == (before[0] + 1, *before[1:])


class _EstimateAudit(ClusterSearch):
    """Checks that each ``_propose_parents`` call estimates once if it
    queues a new proposal and never otherwise."""

    pushing = idle = 0

    def _propose_parents(self, br, keys):
        estimates, seq = self.model.estimates, self._seq
        super()._propose_parents(br, keys)
        pushed = self._seq > seq
        assert pushed == bool(keys)
        assert self.model.estimates - estimates == pushed
        self.pushing += pushed
        self.idle += not pushed


def test_search_estimates_only_what_it_queues():
    """Over whole runs, the root estimate and one per proposing call that
    queues something are the only estimates."""
    pushing = idle = 0
    runs = [(random_test_dag(1000 + gi, n=3 + gi % 8), SearchConfig(alpha=0.5, seed=0)) for gi in range(10)]
    runs.append((generate_dag(GeneratorSpec(n=50, seed=1)), SearchConfig(seed=0, max_iterations=150)))
    for dag, cfg in runs:
        layers = assign_layers(dag)
        model = _Counting(BnComputationCost(dag, layers))
        cs = _EstimateAudit(dag, layers, model, cfg)
        cs.run()
        assert model.estimates == 1 + cs.pushing
        pushing += cs.pushing
        idle += cs.idle
    assert pushing > 0 and idle > 0


def test_inactive_branch_entries_excluded(fig1, fig1_layers, fig1_model):
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    br = cs.branches[1]
    clone = cs._clone(br, _snapshot(br))
    assert not clone.active
    assert [key for key, _, _ in _queued(clone)] == [key for key, _, _ in _queued(br)]
    assert all(c[2] > b[2] for c, b in zip(_queued(clone), _queued(br)))
    cs._push(clone, (3, 0), 50.0)
    assert all(bid != clone.id for _, _, bid, _ in cs._ready)
    assert cs._waiting_top(cs._waiting_ghat) is None
    cs._index_waiting(clone)
    seqs = {key: seq for key, _, seq in _queued(clone)}
    assert cs._waiting_ghat[0] == (50.0, seqs[3, 0], clone.id)
    assert cs._waiting_layer[0] == (0, seqs[1, 0], clone.id)
    assert cs._next_waiting() is clone
    cs._activate(clone)
    assert {key for _, _, bid, key in cs._ready if bid == clone.id} == {(1, 0), (2, 0), (3, 0)}
    assert cs._waiting_top(cs._waiting_ghat) is None


def test_prune_keeps_incumbent_ties(fig1, fig1_layers, fig1_model):
    """Against an incumbent of 35.2 the dearer twin dies when it pops, while
    both branches that tie the incumbent survive theirs."""
    cs = ClusterSearch(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    a = cs.branches[1]
    snap = _snapshot(a)
    b = cs._clone(a, snap)
    c = cs._clone(a, snap)
    assert (b.id, c.id) == (2, 3)
    a.g = {0: 35.2}
    b.g = {0: 36.0}
    c.g = {0: 35.2}
    cs.gmin = 35.2
    for br in (a, b, c):
        cs._prune_at_pop(br)
    assert a.alive and not b.alive and c.alive
    assert set(cs.branches) == {1, 3}


def test_cum_g_adds_left_to_right():
    """The accrued cost adds the layer costs one by one: both halves of an
    ulp round away, where a compensated ``sum`` (Python 3.12 on) keeps
    them, so the streams do not depend on the Python version."""
    g = {0: 1.0, 1: 2**-53, 2: 2**-53}
    br = _Branch(
        id=1, u={}, entries=[], g=g, progress=0, active=True, live=(),
        snap=_NO_PROPOSALS, seq0=0, own={},
    )
    assert br.cum_g() == 1.0
    assert math.fsum(g.values()) > 1.0


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
        self.checked_assignments = 0

    def _process_pop(self, br, entry):
        if not br.alive:
            self.popped_dead += 1
        created = self.branches_created
        out = super()._process_pop(br, entry)
        # Layer 0 holds exactly the leaves, each pinned to its founding
        # label, so a leaf pop has one combo and clones nothing.
        assert entry[1] or self.branches_created == created, (self.iteration, entry)
        self.gmin_trace.append(self.gmin)
        # Only a branch's own pop adds proposals or moves its progress, so
        # one that can never pop again is dropped when its pop ends: an
        # inactive one with no proposal, an active one with none at or
        # below its progress.
        assert all(_queued(b) for b in self.branches.values())
        assert all(
            any(l <= b.progress for (_, l), _, _ in _queued(b))
            for b in self.branches.values()
            if b.active
        )
        self._check_active_own_their_queue()
        # No two held branches hold one assignment.
        held = [tuple(sorted(_assignment(b).items())) for b in self.branches.values()]
        held = [u for u in held if u]
        assert len(set(held)) == len(held), self.iteration
        self.checked_assignments += len(held)
        return out

    def _activate(self, br):
        super()._activate(br)
        self._check_active_own_their_queue()

    def _check_active_own_their_queue(self):
        # Activation moves a clone's snapshot entries into its own map.
        assert all(b.snap is _NO_PROPOSALS for b in self.branches.values() if b.active)


@pytest.mark.parametrize("alpha,seed", [(0.0, 0), (0.5, 1), (1.0, 2)])
def test_run_invariants(fig1, fig1_layers, fig1_model, alpha, seed):
    cs = _Instrumented(fig1, fig1_layers, fig1_model, SearchConfig(alpha=alpha, seed=seed))
    res = cs.run()
    assert cs.popped_dead == 0
    for prev, cur in zip(cs.gmin_trace, cs.gmin_trace[1:]):
        assert cur <= prev + 1e-9
    assert cs.checked_assignments > 0
    assert res.report.iterations_total > 0


def test_no_branch_outlives_a_run_to_termination():
    """A run that ends because nothing can pop leaves no branch behind."""
    graphs = [seven_node_example()] + [
        generate_dag(GeneratorSpec(n=3 + gi % 8, seed=1000 + gi, rewire=0.2, extra_arc_rate=0.4))
        for gi in range(20)
    ]
    for dag in graphs:
        layers = assign_layers(dag)
        model = BnComputationCost(dag, layers)
        for alpha in (0.0, 0.5, 1.0):
            cs = _Instrumented(dag, layers, model, SearchConfig(alpha=alpha, seed=0))
            assert not cs.run().report.terminated_early
            assert cs.branches == {}


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
    """Checks at every pricing, in a pop or an activation, that the live
    records kept on the branch are the records no transition on the
    branch's history has gathered, and those none of whose members has an
    assigned parent."""

    checks = 0

    def _price(self, br, k, l, combo):
        super()._price(br, k, l, combo)
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
    """A search keeps its step memo to itself: a second run on the
    same model repeats the first, the model is unchanged, and compare's
    threads give the rows of a single thread."""
    dag = generate_dag(GeneratorSpec(n=30, seed=1))
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers)

    def snapshot():
        return {k: (v, dict(v) if isinstance(v, dict) else None) for k, v in vars(model).items()}

    # The model builds its node table with itself, so a search, which may
    # run on a worker thread, adds nothing to it.  The one constant it keeps
    # from a first root estimate, the founding-label total, is a fact of
    # the graph and weights, not of a run.
    fresh = snapshot()
    root = model.heuristic(dag.node_ids(), [])
    before = snapshot()
    assert before.keys() == fresh.keys()
    assert [k for k in before if before[k] != fresh[k]] == ["_founding_total"]
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
    assert model.heuristic(dag.node_ids(), []) == root

    fig1_path = os.path.join(os.path.dirname(__file__), "..", "data", "fig1.dag")
    rows = []
    for jobs in ("1", "2"):
        buf = io.StringIO()
        assert cli_main(["compare", fig1_path, "--seeds", "3", "--alphas", "0,0.5,1", "--jobs", jobs], out=buf) == 0
        rows.append(buf.getvalue())
    assert rows[0] == rows[1]


def test_search_drops_its_memo_after_run():
    """A run hands its transitions and every estimate but the root one one
    memo, and once the run ends nothing but the caller's own reference
    holds it: not the search, not its model."""
    dag = generate_dag(GeneratorSpec(n=12, seed=3))
    layers = assign_layers(dag)
    plain = BnComputationCost(dag, layers)
    seen = []
    estimated = []

    class Recording:
        weights = plain.weights

        def transition(self, u, entries, cluster, layer, zset, memo=None):
            seen.append(memo)
            return plain.transition(u, entries, cluster, layer, zset, memo)

        def heuristic(self, remaining, live, u=None, memo=None):
            estimated.append(memo)
            return plain.heuristic(remaining, live, u, memo)

    cs = ClusterSearch(dag, layers, Recording(), SearchConfig(seed=0))
    cs.run()
    assert len(set(map(id, seen))) == 1
    memo = seen.pop()
    assert memo.steps
    assert estimated[0] is None and set(map(id, estimated[1:])) == {id(memo)}
    # The estimates kept live folds beside the transitions' steps.
    assert any(type(key[0]) is not frozenset for key in memo.steps if key)
    seen.clear()
    estimated.clear()
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
        for key, ghat, seq in _queued(br)
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
        for (_, layer), ghat, seq in _queued(br)
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
    all pending proposals would choose; at termination no index holds a
    valid top and no branch is kept, and a run stopped part way keeps no
    dead, finished or spent branch."""
    pops = activations = held = waiting = 0
    for dag in _differential_graphs():
        layers = assign_layers(dag)
        model = BnComputationCost(dag, layers)
        cs = _Differential(dag, layers, model, SearchConfig(alpha=alpha, seed=0))
        res = cs.run()
        assert not res.report.terminated_early
        pops += cs.pops
        activations += cs.activations
        assert ClusterSearch._take_ready(cs) is None
        assert cs._waiting_top(cs._waiting_ghat) is None
        assert cs._waiting_top(cs._waiting_layer) is None
        assert cs.branches == {}
        # Killed and finished branches, and those with no proposal left,
        # leave at once, so every branch a capped run holds can still pop
        # or be activated.
        total = res.report.iterations_total
        for cap in (total // 4, total // 2, 3 * total // 4):
            cs = ClusterSearch(dag, layers, model, SearchConfig(alpha=alpha, seed=0, max_iterations=cap))
            cs.run()
            for b in cs.branches.values():
                assert b.alive and _queued(b) and len(_assignment(b)) < dag.n
            held += len(cs.branches)
            waiting += sum(not b.active for b in cs.branches.values())
    assert pops > 0 and activations > 0
    assert waiting > 0 and held > waiting


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


class _PerCloneCopy(ClusterSearch):
    """Keeps beside each branch what a per-clone copy builds.  Its proposal
    map: a push appends under the next seq, a pop deletes, and a clone
    re-keys its parent's map in order under fresh seqs from the same
    counter.  Its assignment: a clone copies its parent's ``u``,
    ``entries``, ``g`` and live records, and its combo is priced at once
    and stored on that copy.  At each activation the branch's queue must
    equal that map, seq for seq, with no snapshot left on it, and its
    assignment and live records that copy, items and insertion order both,
    whether the pop or the activation priced it.  Each cloning pop must
    hand all its clones one snapshot, and leave them waiting with no
    assignment of their own, the snapshot counting those still held, and
    leave unpriced exactly the clones with a combo that queued nothing and
    emitted nothing."""

    def _init(self):
        self.copies = {}
        self.seqs = itertools.count()
        self.assigned = {}  # per clone not yet activated: its (u, entries, g, live)
        self.pop_clones = []  # per cloning pop: its number of clones
        self.activations = self.assignments_checked = self.adoptions = self.dropped = 0
        self.unpriced = self.priced_at_activation = 0
        self._key = self._clones = None
        super()._init()

    def _push(self, br, key, ghat):
        self.copies.setdefault(br.id, {})[key] = (ghat, next(self.seqs))
        super()._push(br, key, ghat)

    def _take_ready(self):
        got = super()._take_ready()
        if got is not None:
            del self.copies[got[0].id][got[1]]
        return got

    def _process_pop(self, br, key):
        self._key, self._clones = key, []
        out = super()._process_pop(br, key)
        clones, self._clones = self._clones, None
        if clones:
            assert len({id(nb.snap) for nb in clones}) == 1, (self.iteration, key)
            assert all(not nb.active and nb.u is nb.entries is nb.g is None for nb in clones)
            waiting = clones[0].snap.waiting
            assert waiting == sum(nb.id in self.branches for nb in clones), (self.iteration, key)
            self.dropped += len(clones) - waiting
            self.pop_clones.append(len(clones))
            emitted = {rec.branch for rec in out}
            for nb in clones:
                entry, cost = nb.delta
                if entry is not None:
                    unpriced = cost is None
                    assert unpriced == (entry.dims is None), (self.iteration, nb.id)
                    assert unpriced == (not nb.own and nb.id not in emitted), (self.iteration, nb.id)
                    self.unpriced += unpriced
        return out

    def _clone(self, br, snap):
        nb = super()._clone(br, snap)
        self._clones.append(nb)
        parent = self.copies.get(br.id, {})
        self.copies[nb.id] = {key: (ghat, next(self.seqs)) for key, (ghat, _) in parent.items()}
        self.assigned[nb.id] = (dict(br.u), list(br.entries), dict(br.g), list(br.live))
        return nb

    def _parent_keys(self, br, popped):
        # Called once on each clone with a combo, in its cloning pop.
        if br.id in self.assigned:
            u, entries, g, live = self.assigned[br.id]
            k, l = self._key
            t = self.model.transition(u, entries, k, l, popped)
            entry = JEntry(k, l, popped, t.dims)
            entries.append(entry)
            kids = frozenset().union(*map(self.dag.children, popped))
            live[:] = [*(e for e in live if kids.isdisjoint(e.members)), entry]
            for x in popped:
                u[x] = k
            g[l] = g.get(l, 0.0) + t.cost
        return super()._parent_keys(br, popped)

    def _activate(self, br):
        snap = br.snap
        entry, cost = br.delta
        super()._activate(br)
        self.adoptions += br.u is snap.u
        assert br.snap is _NO_PROPOSALS and br.delta is None
        expect = [(key, ghat, seq) for key, (ghat, seq) in self.copies.get(br.id, {}).items()]
        assert _queued(br) == expect, (self.iteration, br.id)
        if br.id in self.assigned:
            u, entries, g, live = self.assigned.pop(br.id)
            assert list(br.u.items()) == list(u.items()), (self.iteration, br.id)
            assert br.entries == entries, (self.iteration, br.id)
            assert list(br.g.items()) == list(g.items()), (self.iteration, br.id)
            assert list(br.live) == live, (self.iteration, br.id)
            self.assignments_checked += 1
            self.priced_at_activation += entry is not None and cost is None
        self.activations += 1


def test_clones_share_one_snapshot_and_keep_the_copied_seqs():
    """On a 50-node anytime search the clones one pop makes wait on one
    snapshot object; every activated clone queues exactly the (key, ghat,
    seq) triples a per-clone copy of its parent's proposals gave, and holds
    the assignment a per-clone copy of its parent's gave once its combo was
    stored on it, whether it copied the snapshot's or adopted it."""
    dag = generate_dag(GeneratorSpec(n=50, seed=3))
    layers = assign_layers(dag)
    cfg = SearchConfig(alpha=0.5, seed=0, max_iterations=300)
    cs = _PerCloneCopy(dag, layers, BnComputationCost(dag, layers), cfg)
    res = cs.run()
    assert res.report.iterations_total == 300 and res.solutions
    assert cs.activations > 0 and cs.assignments_checked > 0
    assert 0 < cs.adoptions < cs.assignments_checked
    assert cs.unpriced > 0 and cs.priced_at_activation > 0
    assert sum(cs.pop_clones) == res.report.branches_created - 1
    assert 1 in cs.pop_clones and any(n > 1 for n in cs.pop_clones)


def test_waiting_clones_are_priced_only_when_read():
    """On the 300-iteration anytime search of the n=50 seed-3 graph a clone
    is priced in its pop only when it queues or emits, and otherwise only
    if it is activated: 3,202 transitions through the model, against 5,586
    when the pop priced every clone, and 2,384 of the held clones were
    never priced.  The stream is the one the golden digests pin."""
    dag = generate_dag(GeneratorSpec(n=50, seed=3))
    layers = assign_layers(dag)
    model = _Counting(BnComputationCost(dag, layers))
    cs = ClusterSearch(dag, layers, model, SearchConfig(alpha=0.5, seed=0, max_iterations=300))
    assert cs.run().solutions
    assert model.transitions == 3202
    deltas = [b.delta for b in cs.branches.values() if b.delta is not None]
    unpriced = [entry for entry, cost in deltas if entry is not None and cost is None]
    assert len(unpriced) == 2384
    assert all(entry.dims is None for entry in unpriced)


def test_lone_clone_adopts_its_snapshot(fig1, fig1_layers, fig1_model):
    """Popped by hand on fig1 until a pop makes one clone that is held, the
    lone clone waits on its snapshot alone, and activating it takes the
    snapshot's ``u``, ``entries`` and ``g`` without copying them, holding
    what a per-clone copy holds."""
    cs = _PerCloneCopy(fig1, fig1_layers, fig1_model, SearchConfig())
    cs._init()
    while True:
        br, key = cs._take_ready()
        cs.iteration += 1
        first = cs.branches_created + 1
        cs._process_pop(br, key)
        if cs.branches_created == first and first in cs.branches:
            break
    clone = cs.branches[first]
    snap = clone.snap
    assert snap.waiting == 1 and clone.u is None
    cs._activate(clone)
    assert clone.u is snap.u and clone.entries is snap.entries and clone.g is snap.g
    assert cs.assignments_checked == 1


def test_snapshot_counts_the_clones_still_waiting(fig1, fig1_layers, fig1_model):
    """To termination on fig1, some clones leave when their pop ends, done
    or with nothing queued, and each snapshot counts only the held ones.
    Activation prices some clones and finds others priced by their pop,
    and both hold what eager pricing gives."""
    cs = _PerCloneCopy(fig1, fig1_layers, fig1_model, SearchConfig(alpha=0.5, seed=0))
    assert not cs.run().report.terminated_early
    assert cs.dropped > 0 and cs.adoptions > 0
    assert 0 < cs.priced_at_activation < cs.assignments_checked


def test_held_branches_share_their_assignments():
    """After the 300-iteration anytime search on the n=50 seed-3 graph,
    almost every held branch is a waiting clone; the objects holding the
    held branches' assignments (``u``, ``entries`` and ``g``, or a waiting
    clone's delta and its snapshot's three), each counted once, take under 400
    bytes per held branch.  A per-clone copy of the three took 1,624."""
    dag = generate_dag(GeneratorSpec(n=50, seed=3))
    layers = assign_layers(dag)
    cs = ClusterSearch(dag, layers, BnComputationCost(dag, layers),
                       SearchConfig(alpha=0.5, seed=0, max_iterations=300))
    cs.run()
    sizes = {}
    for br in cs.branches.values():
        if br.delta is None:
            held = (br.u, br.entries, br.g)
        else:
            _, g_l = br.delta
            held = (br.delta, br.snap.u, br.snap.entries, br.snap.g, g_l)
        sizes.update((id(o), sys.getsizeof(o)) for o in held if o is not None)
    assert len(cs.branches) > 5000
    assert sum(sizes.values()) / len(cs.branches) < 400
