"""Best-first cluster-mapping search with branch pruning.

Partial solutions live on branches.  A queue of cluster-layer proposals
drives the search: popping a proposal enumerates every node combination it
can still realize, stores each combination on its own branch, costs it, and
proposes the parents upward.  Completed layers advance a branch's frontier,
and whenever a branch completes the last layer it emits a solution.  The
best total seen so far prunes any partial already costing more, since
transition costs are strictly positive.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .dag import (
    Dag,
    LayerAssignment,
    founding_labels,
    keeps_contiguity,
    proposal_clusters,
)
from .costs import TOL, CostModel, JEntry, StepMemo


class ConfigError(ValueError):
    """Invalid search configuration."""


@dataclass
class SearchConfig:
    alpha: float = 0.5
    seed: int = 0
    max_iterations: int | None = None
    stall_window: int | None = None
    prune_enabled: bool = True

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError("alpha must lie in [0, 1]")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ConfigError("max_iterations must not be negative")
        if self.stall_window is not None and self.stall_window < 0:
            raise ConfigError("stall_window must not be negative")

    @classmethod
    def enumeration(cls, **kw) -> "SearchConfig":
        """Every feasible mapping, nothing pruned."""
        kw.setdefault("prune_enabled", False)
        return cls(**kw)


@dataclass
class SolutionRecord:
    mapping: dict[int, int]
    total_cost: float
    iteration: int
    branch: int
    optimal: bool = False


@dataclass
class RunReport:
    optimal_cost: float | None
    optimal_solution_count: int
    iterations_total: int
    iteration_of_first_optimal: int | None
    branches_created: int
    branches_complete: int
    solutions_emitted: int
    gmin: float
    terminated_early: bool


@dataclass
class SearchResult:
    solutions: list[SolutionRecord]
    report: RunReport


@dataclass
class _Branch:
    id: int
    u: dict[int, int]
    entries: list[JEntry]
    g: dict[int, float]  # per-layer cost increments
    progress: int  # lowest incomplete layer
    active: bool
    alive: bool = True
    # The records no transition has gathered yet, in ``entries`` order.
    live: tuple[JEntry, ...] = ()
    # Queued proposals: (cluster, layer) -> (ghat, seq), in push order.
    pending: dict[tuple[int, int], tuple[float, int]] = field(default_factory=dict)

    def cum_g(self) -> float:
        return sum(self.g.values())

    def clone(self, new_id: int, seqs: Iterator[int]) -> "_Branch":
        """An inactive copy that queues the same proposals under fresh seqs."""
        return _Branch(
            id=new_id,
            u=dict(self.u),
            entries=list(self.entries),
            g=dict(self.g),
            live=self.live,
            progress=self.progress,
            active=False,
            pending={key: (ghat, next(seqs)) for key, (ghat, _) in self.pending.items()},
        )


def enumerate_combos(
    assignable: set[int], pinned: set[int]
) -> list[frozenset[int]]:
    """Node combinations a popped cluster-layer can realize.

    ``pinned`` nodes have no other cluster to go to, so they ride along in
    every combination; the rest vary over all subsets, including the empty
    one that leaves existing mappings untouched.  Ordered largest first so
    the popped branch keeps the fullest combination.
    """
    free = sorted(assignable - pinned)
    return [
        frozenset(pinned).union(combo)
        for r in range(len(free), -1, -1)
        for combo in itertools.combinations(free, r)
    ]


class ClusterSearch:
    """One search run over a validated DAG.  Single-owner, single-threaded."""

    def __init__(
        self,
        dag: Dag,
        layers: LayerAssignment,
        model: CostModel,
        config: SearchConfig | None = None,
    ):
        self.dag = dag
        self.layers = layers
        self.model = model
        self.config = config or SearchConfig()
        self.labels = founding_labels(dag, layers)
        # Per progress p, the nodes at layers >= p in id order: every node
        # below a branch's progress is assigned.
        self._from_layer = [
            [x for x in dag.node_ids() if layers.layer[x] >= p] for p in range(layers.l_max + 2)
        ]

    # -- setup ----------------------------------------------------------------

    def _init(self) -> None:
        """Build every per-run field, so each run starts afresh."""
        self.rng = random.Random(self.config.seed)
        # The branches that can still pop or be activated: a killed or
        # finished one, or one with no proposal left, leaves at once.
        self.branches: dict[int, _Branch] = {}
        self._ready: list[tuple[float, int, int, tuple[int, int]]] = []
        self._waiting_ghat: list[tuple[float, int, int]] = []
        self._waiting_layer: list[tuple[int, int, int]] = []
        self.iteration = 0
        self._seq = itertools.count()
        self._last_improvement = 0
        # The model's memo for transitions and completion estimates; lives
        # for one run.
        self._memo: StepMemo | None = StepMemo()
        h_all = self.model.heuristic(self.dag.node_ids(), [], None, self._memo)
        self.gmin = h_all
        self.branches_created = 1
        b = _Branch(id=1, u={}, entries=[], g={}, progress=0, active=True)
        self.branches[b.id] = b
        for x in self.dag.leaves:
            self._push(b, (self.labels[x], 0), h_all)

    # -- queue index ------------------------------------------------------------
    #
    # ``_ready`` holds (ghat, seq, branch id, key) for the proposals of active
    # branches at or below their progress.  The two waiting heaps index each
    # inactive branch once, by its lowest (ghat, seq) and (layer, seq), when
    # the pop that cloned it ends: only that pop adds to its proposals.
    # Deletion is lazy: an item whose branch was dropped or (waiting heaps
    # only) activated is discarded when it reaches the top.

    def _push(self, br: _Branch, key: tuple[int, int], ghat: float) -> None:
        seq = next(self._seq)
        br.pending[key] = (ghat, seq)
        if br.active and key[1] <= br.progress:
            heapq.heappush(self._ready, (ghat, seq, br.id, key))

    def _activate(self, br: _Branch) -> None:
        br.active = True
        for key, (ghat, seq) in br.pending.items():
            if key[1] <= br.progress:
                heapq.heappush(self._ready, (ghat, seq, br.id, key))

    def _advance(self, br: _Branch) -> None:
        """Mark the branch's lowest incomplete layer complete."""
        br.progress += 1
        if br.active:
            for key, (ghat, seq) in br.pending.items():
                if key[1] == br.progress:
                    heapq.heappush(self._ready, (ghat, seq, br.id, key))

    def _index_waiting(self, br: _Branch) -> None:
        """Index an inactive branch, whose proposals are now final."""
        ghat, seq = min(br.pending.values())
        heapq.heappush(self._waiting_ghat, (ghat, seq, br.id))
        layer, seq = min((l, seq) for (_, l), (_, seq) in br.pending.items())
        heapq.heappush(self._waiting_layer, (layer, seq, br.id))

    def _take_ready(self) -> tuple[_Branch, tuple[int, int]] | None:
        """Remove and return the eligible proposal with the lowest (ghat, seq)."""
        while self._ready:
            _, _, bid, key = heapq.heappop(self._ready)
            br = self.branches.get(bid)
            if br is not None:
                del br.pending[key]
                return br, key
        return None

    def _next_waiting(self) -> _Branch | None:
        """The inactive branch to activate: the one holding the lowest
        (ghat, seq) with probability alpha, else the lowest (layer, seq).
        None, without an RNG draw, when no inactive branch has entries."""
        by_ghat = self._waiting_top(self._waiting_ghat)
        if by_ghat is None:
            return None
        if self.rng.random() < self.config.alpha:
            return by_ghat
        return self._waiting_top(self._waiting_layer)

    def _waiting_top(self, heap: list) -> _Branch | None:
        while heap:
            br = self.branches.get(heap[0][2])
            if br is not None and not br.active:
                return br
            heapq.heappop(heap)
        return None

    # -- pruning ------------------------------------------------------------------

    def _prune_at_pop(self, br: _Branch) -> None:
        """Kill the branch if it already exceeds the incumbent; its heap
        items lapse."""
        if br.cum_g() > self.gmin + TOL:
            self.branches.pop(br.id).alive = False

    # -- proposals -----------------------------------------------------------------

    def _propose_parents(self, br: _Branch, popped: frozenset[int]) -> None:
        parents = sorted({p for z in popped for p in self.dag.parents(z)})
        if not parents:
            return
        ghat_val = br.cum_g() + self.model.heuristic(
            self._unassigned(br), br.live, br.u, self._memo
        )
        for p in parents:
            l = self.layers.of(p)
            for k in proposal_clusters(self.dag, self.labels, br.u, p):
                if (k, l) not in br.pending:
                    self._push(br, (k, l), ghat_val)

    def _unassigned(self, br: _Branch) -> list[int]:
        return [x for x in self._from_layer[br.progress] if not br.u.get(x)]

    # -- main loop -------------------------------------------------------------------

    def run(self, on_solution: Callable[[SolutionRecord], None] | None = None) -> SearchResult:
        self._init()
        solutions: list[SolutionRecord] = []
        terminated_early = False
        cfg = self.config
        while True:
            if cfg.max_iterations is not None and self.iteration >= cfg.max_iterations:
                terminated_early = True
                break
            if (
                cfg.stall_window is not None
                and solutions
                and self.iteration - self._last_improvement >= cfg.stall_window
            ):
                terminated_early = True
                break
            taken = self._take_ready()
            if taken is None:
                pick = self._next_waiting()
                if pick is None:
                    break
                self.iteration += 1
                self._activate(pick)
                continue
            self.iteration += 1
            br, key = taken
            if cfg.prune_enabled:
                self._prune_at_pop(br)
                if not br.alive:
                    continue
            for rec in self._process_pop(br, key):
                solutions.append(rec)
                if on_solution is not None:
                    on_solution(rec)
        self._memo = None
        gmin_final = min((r.total_cost for r in solutions), default=float("inf"))
        first_optimal = None
        optimal_partitions = set()
        for rec in solutions:
            if abs(rec.total_cost - gmin_final) <= TOL:
                rec.optimal = True
                optimal_partitions.add(partition_signature(rec.mapping))
                if first_optimal is None:
                    first_optimal = rec.iteration
        report = RunReport(
            optimal_cost=gmin_final if solutions else None,
            optimal_solution_count=len(optimal_partitions),
            iterations_total=self.iteration,
            iteration_of_first_optimal=first_optimal,
            branches_created=self.branches_created,
            branches_complete=len(solutions),
            solutions_emitted=len(solutions),
            gmin=gmin_final,
            terminated_early=terminated_early,
        )
        return SearchResult(solutions=solutions, report=report)

    def _process_pop(self, br: _Branch, key: tuple[int, int]) -> list[SolutionRecord]:
        dag, layers = self.dag, self.layers
        k, l = key
        # A proposal with unassigned layer-l nodes pops only at l == progress,
        # so their children are all assigned and their proposals are final.
        proposals = {
            x: proposal_clusters(dag, self.labels, br.u, x)
            for x in layers.members.get(l, ())
            if not br.u.get(x)
        }
        z_all = {x for x, ks in proposals.items() if k in ks}
        z1 = {x for x in z_all if proposals[x] == [k]}
        combos = enumerate_combos(z_all, z1)
        # All descendants of a combo are assigned already, so the walk sees
        # every path that could leave cluster k and come back.
        combos = [c for c in combos if keeps_contiguity(dag, br.u, c, k)]
        if not combos:
            self._settle(br)
            return []

        holders: list[tuple[_Branch, frozenset[int]]] = [(br, combos[0])]
        for combo in combos[1:]:
            self.branches_created += 1
            nb = br.clone(self.branches_created, self._seq)
            self.branches[nb.id] = nb
            if l == 0:
                self._activate(nb)
            holders.append((nb, combo))

        emissions: list[SolutionRecord] = []
        for holder, combo in holders:
            if not combo:
                continue
            t = self.model.transition(holder.u, holder.entries, k, l, combo, self._memo)
            assert t.cost > TOL, "transition cost must be strictly positive"
            entry = JEntry(k, l, combo, t.dims)
            holder.entries.append(entry)
            # The transition gathered the records holding a child of the
            # combo; a record is live until its first gather, and the new
            # record's members have no costed parent yet.
            kids = frozenset().union(*(dag.children(z) for z in combo))
            holder.live = (*(e for e in holder.live if kids.isdisjoint(e.members)), entry)
            for x in combo:
                holder.u[x] = k
            holder.g[l] = holder.g.get(l, 0.0) + t.cost
            layer_done = all(holder.u.get(x) for x in layers.members.get(l, ()))
            if layer_done:
                self._advance(holder)
                if l == layers.l_max:
                    emissions.append(self._emit(holder))
            self._propose_parents(holder, combo)
        for holder, _ in holders:
            self._settle(holder)
        return emissions

    def _settle(self, br: _Branch) -> None:
        """End a pop for a branch it holds.  Only a branch's own pop adds to
        its proposals, so a finished branch, or one with none left, can never
        pop or be activated again and leaves the table; an inactive one with
        proposals is indexed."""
        if br.progress > self.layers.l_max or not br.pending:
            del self.branches[br.id]
        elif not br.active:
            self._index_waiting(br)

    def _emit(self, br: _Branch) -> SolutionRecord:
        mapping = dict(br.u)
        total = br.cum_g()
        if total < self.gmin - TOL:
            self.gmin = total
            self._last_improvement = self.iteration
        return SolutionRecord(
            mapping=mapping,
            total_cost=total,
            iteration=self.iteration,
            branch=br.id,
        )


def partition_signature(mapping: dict[int, int]) -> tuple[int, ...]:
    """Canonical first-occurrence relabeling; invariant to label switching."""
    relabel: dict[int, int] = {}
    out = []
    for x in sorted(mapping):
        k = mapping[x]
        if k not in relabel:
            relabel[k] = len(relabel) + 1
        out.append(relabel[k])
    return tuple(out)


def search(
    dag: Dag,
    layers: LayerAssignment,
    model: CostModel,
    config: SearchConfig | None = None,
    on_solution: Callable[[SolutionRecord], None] | None = None,
) -> SearchResult:
    return ClusterSearch(dag, layers, model, config).run(on_solution=on_solution)


class _StreamClosed(Exception):
    """Raised inside a stream's worker once its consumer has gone away."""


def stream_search(
    dag: Dag,
    layers: LayerAssignment,
    model: CostModel,
    config: SearchConfig | None = None,
) -> Iterator[SolutionRecord]:
    """Run the search on a worker thread, yielding solutions as they appear.

    The channel decouples producer and consumer, so a consumer may process
    records concurrently with the ongoing search.  An exception raised by
    the search is re-raised in the consumer once the records before it have
    been yielded.  Closing the generator early stops the search at its next
    solution.

    Records are yielded with ``optimal`` False.  The search sets the flag on
    the same record objects once the run ends, since it needs the final
    optimum, so read it only after the generator is exhausted.
    """
    import queue as _queue
    import threading

    chan: _queue.Queue = _queue.Queue()
    failure: list[BaseException] = []
    closed = threading.Event()

    def emit(rec: SolutionRecord) -> None:
        if closed.is_set():
            raise _StreamClosed
        chan.put(rec)

    def worker():
        try:
            search(dag, layers, model, config, on_solution=emit)
        except _StreamClosed:
            pass
        except BaseException as exc:
            failure.append(exc)
        finally:
            chan.put(None)

    t = threading.Thread(target=worker, daemon=True)
    t.start()
    try:
        while True:
            item = chan.get()
            if item is None:
                break
            yield item
    finally:
        closed.set()
    t.join()
    if failure:
        raise failure[0]
