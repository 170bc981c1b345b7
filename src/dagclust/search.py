"""Best-first cluster-mapping search with branch pruning.

Partial solutions live on branches.  A queue of cluster-layer proposals
drives the search: popping a proposal enumerates every node combination it
can still realize, stores each combination on its own branch, and proposes
the parents upward.  A combination is costed when something reads its
cost: at once on the popped branch and on a clone that queues or emits,
and on any other clone only if it is activated.  Completed layers advance
a branch's frontier, and whenever a branch completes the last layer it
emits a solution.  The best total seen so far prunes any partial already
costing more, since transition costs are strictly positive.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from functools import reduce
from operator import add
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .dag import (
    Dag,
    LayerAssignment,
    ValidationError,
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
    terminated_early: bool


@dataclass
class SearchResult:
    solutions: list[SolutionRecord]
    report: RunReport


class _Snapshot:
    """A popped branch's queued proposals and assignment, frozen for the
    clones that pop makes.  Every clone of the pop shares it: the clone
    whose block starts at ``seq0`` queues entry i under seq ``seq0 + i``,
    and takes its parent proposals, and any cost the pop reads, on ``u``,
    ``entries`` and ``g`` in place.  The last of the clones still waiting
    to activate adopts these three objects."""

    __slots__ = (
        "ghat", "lo_ghat", "lo_ghat_at", "lo_layer", "lo_layer_at", "u", "entries", "g", "waiting",
    )

    def __init__(
        self,
        ghat: dict[tuple[int, int], float],
        u: dict[int, int] | None = None,
        entries: list[JEntry] | None = None,
        g: dict[int, float] | None = None,
    ):
        # Each key's ghat, in seq order; never changed once built.
        self.ghat = ghat
        # The lowest ghat and layer, each with the index of its first entry
        # (unset when empty).
        if ghat:
            ghats = list(ghat.values())
            layers = [l for _, l in ghat]
            self.lo_ghat = min(ghats)
            self.lo_ghat_at = ghats.index(self.lo_ghat)
            self.lo_layer = min(layers)
            self.lo_layer_at = layers.index(self.lo_layer)
        self.u, self.entries, self.g = u, entries, g
        # How many of its clones are held and not yet active.
        self.waiting = 0


_NO_PROPOSALS = _Snapshot({})


# The ``own`` of a branch with no push of its own: read-only, so that no
# branch can write into another's.
_NO_OWN: Mapping[tuple[int, int], tuple[float, int]] = MappingProxyType({})


@dataclass(slots=True)
class _Branch:
    id: int
    # u, entries and g are None in a waiting clone (see ``delta``).
    u: dict[int, int]
    entries: list[JEntry]
    g: dict[int, float]  # per-layer cost increments
    progress: int  # lowest incomplete layer
    active: bool
    # The records no transition has gathered yet, in ``entries`` order.
    live: tuple[JEntry, ...]
    # ``own`` maps each queued key to its (ghat, seq), in seq order.  An
    # inactive clone also queues the entries of ``snap``, entry i under seq
    # ``seq0 + i``, before its own pushes; activation moves them into
    # ``own``, so an active branch's ``snap`` is empty.
    snap: _Snapshot
    seq0: int
    own: Mapping[tuple[int, int], tuple[float, int]]
    alive: bool = True
    # How many of its proposals the ready heap holds: while it is active,
    # those at or below its progress.
    n_ready: int = 0
    # A waiting clone: (its record, its popped layer's cost), both None for
    # the empty combo.  An unpriced combo's record has dims None and no
    # cost: activation prices it.  Activation rebuilds u, entries and g as
    # ``snap``'s plus these.
    delta: tuple[JEntry | None, float | None] | None = None

    def cum_g(self) -> float:
        # Left to right: ``sum`` compensates from Python 3.12 on, and the
        # streams must not depend on the version.
        return reduce(add, self.g.values(), 0.0)


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
        # finished one, or one with no proposal it can still pop, leaves at
        # once.
        self.branches: dict[int, _Branch] = {}
        self._ready: list[tuple[float, int, int, tuple[int, int]]] = []
        self._waiting_ghat: list[tuple[float, int, int]] = []
        self._waiting_layer: list[tuple[int, int, int]] = []
        self.iteration = 0
        self._seq = 0  # the next seq to hand out
        self._last_improvement = 0
        # The model's memo for transitions and estimates; lives for one run.
        self._memo: StepMemo | None = StepMemo()
        h_all = self.model.heuristic(self.dag.node_ids(), [])
        self.gmin = h_all
        self.branches_created = 1
        b = _Branch(
            id=1, u={}, entries=[], g={}, progress=0, active=True, live=(),
            snap=_NO_PROPOSALS, seq0=0, own={},
        )
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
        seq = self._seq
        self._seq += 1
        if br.own is _NO_OWN:
            br.own = {}
        br.own[key] = (ghat, seq)
        if br.active and key[1] <= br.progress:
            heapq.heappush(self._ready, (ghat, seq, br.id, key))
            br.n_ready += 1

    def _clone(self, br: _Branch, snap: _Snapshot) -> _Branch:
        """A new waiting clone of ``br`` on ``snap``, the snapshot of the
        pop that makes it: it queues the popped branch's proposals under the
        next block of seqs and holds no assignment of its own."""
        self.branches_created += 1
        snap.waiting += 1
        # Positional: binding keywords doubles the cost of this call.
        nb = _Branch(
            self.branches_created, None, None, None, br.progress,
            False, br.live, snap, self._seq, _NO_OWN, True, 0, (None, None),
        )
        self._seq += len(snap.ghat)
        self.branches[nb.id] = nb
        return nb

    def _activate(self, br: _Branch) -> None:
        snap = br.snap
        entry, g_l = br.delta
        snap.waiting -= 1
        if snap.waiting:
            br.u, br.entries, br.g = dict(snap.u), list(snap.entries), dict(snap.g)
        else:
            br.u, br.entries, br.g = snap.u, snap.entries, snap.g
        if entry is not None:
            for x in entry.members:
                br.u[x] = entry.cluster
            if g_l is None:
                self._price(br, entry.cluster, entry.layer, entry.members)
            else:
                br.entries.append(entry)
                br.g[entry.layer] = g_l
        br.delta = None
        # Entry 0 keeps ``seq0`` itself, the int the waiting heaps may hold.
        seq0 = br.seq0
        own = {
            key: (ghat, seq0 + i if i else seq0)
            for i, (key, ghat) in enumerate(snap.ghat.items())
        }
        own.update(br.own)
        br.own, br.snap, br.active = own, _NO_PROPOSALS, True
        self._make_ready(br, 0)

    def _advance(self, br: _Branch) -> None:
        """Mark the branch's lowest incomplete layer complete."""
        br.progress += 1
        if br.active:
            self._make_ready(br, br.progress)

    def _make_ready(self, br: _Branch, lo: int) -> None:
        """Push the branch's proposals at layers lo..progress to ``_ready``."""
        ready, bid, p = self._ready, br.id, br.progress
        before = len(ready)
        for key, (ghat, seq) in br.own.items():
            if lo <= key[1] <= p:
                heapq.heappush(ready, (ghat, seq, bid, key))
        br.n_ready += len(ready) - before

    def _index_waiting(self, br: _Branch) -> None:
        """Index an inactive branch, whose proposals are now final.  It has
        popped nothing, and its own seqs follow its snapshot's."""
        snap, seq0 = br.snap, br.seq0
        by_ghat = by_layer = None
        if snap.ghat:
            # Entry 0 is the usual minimum; its seq is ``seq0`` itself, so
            # the heaps hold no new int for it while the branch lives.
            i, j = snap.lo_ghat_at, snap.lo_layer_at
            by_ghat = (snap.lo_ghat, seq0 + i if i else seq0)
            by_layer = (snap.lo_layer, seq0 + j if j else seq0)
        for (_, l), top in br.own.items():
            if by_ghat is None or top < by_ghat:
                by_ghat = top
            if by_layer is None or l < by_layer[0]:
                by_layer = (l, top[1])
        heapq.heappush(self._waiting_ghat, (*by_ghat, br.id))
        heapq.heappush(self._waiting_layer, (*by_layer, br.id))

    def _take_ready(self) -> tuple[_Branch, tuple[int, int]] | None:
        """Remove and return the eligible proposal with the lowest (ghat, seq)."""
        while self._ready:
            _, _, bid, key = heapq.heappop(self._ready)
            br = self.branches.get(bid)
            if br is not None:
                br.n_ready -= 1
                del br.own[key]
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

    def _parent_keys(self, br: _Branch, popped: frozenset[int]) -> list[tuple[int, int]]:
        """The parent proposals of the popped nodes that the branch does not
        queue yet, in push order."""
        own, held = br.own, br.snap.ghat
        keys = []
        for p in sorted(frozenset().union(*map(self.dag.parents, popped))):
            l = self.layers.of(p)
            for k in proposal_clusters(self.dag, self.labels, br.u, p):
                key = (k, l)
                if key not in own and key not in held and key not in keys:
                    keys.append(key)
        return keys

    def _propose_parents(self, br: _Branch, keys: list[tuple[int, int]]) -> None:
        """Queue ``keys`` on the branch, all under one ghat, estimated only
        if there is a key: the queue reads no other."""
        if keys:
            ghat = br.cum_g() + self.model.heuristic(
                self._unassigned(br), br.live, br.u, self._memo
            )
            for key in keys:
                self._push(br, key, ghat)

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
                self._settle(pick)
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
        if not solutions and cfg.prune_enabled and not terminated_early:
            raise ValidationError(
                f"search emptied its queue with no solution: the root estimate {self.gmin!r} "
                "lies below every feasible mapping's cost, and the incumbent it seeds pruned "
                "every branch"
            )
        best = min((r.total_cost for r in solutions), default=None)
        first_optimal = None
        optimal_partitions = set()
        for rec in solutions:
            if abs(rec.total_cost - best) <= TOL:
                rec.optimal = True
                optimal_partitions.add(partition_signature(rec.mapping))
                if first_optimal is None:
                    first_optimal = rec.iteration
        report = RunReport(
            optimal_cost=best,
            optimal_solution_count=len(optimal_partitions),
            iterations_total=self.iteration,
            iteration_of_first_optimal=first_optimal,
            branches_created=self.branches_created,
            branches_complete=len(solutions),
            solutions_emitted=len(solutions),
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
        if not z_all:
            # Only the empty combo, which places nothing.
            self._settle(br)
            return []
        z1 = {x for x in z_all if proposals[x] == [k]}
        combos = enumerate_combos(z_all, z1)
        # All descendants of a combo are assigned already, so the walk sees
        # every path that could leave cluster k and come back.  The smallest
        # combo always passes: it is empty, or at layer 0 a pinned leaf.
        combos = [c for c in combos if keeps_contiguity(dag, br.u, c, k)]

        holders: list[tuple[_Branch, frozenset[int]]] = [(br, combos[0])]
        if len(combos) > 1:
            # Every clone waits on one snapshot of the popped branch and
            # works on its assignment in place, one at a time.
            snap = _Snapshot(
                {key: g for key, (g, _) in br.own.items()}, dict(br.u), list(br.entries), dict(br.g)
            )
            g_old = snap.g.get(l)
            holders += [(self._clone(br, snap), combo) for combo in combos[1:]]

        members = layers.members.get(l, ())
        emissions: list[SolutionRecord] = []
        for holder, combo in holders:
            if not combo:
                continue
            clone = holder is not br
            if clone:
                holder.u, holder.entries, holder.g = snap.u, snap.entries, snap.g
            for x in combo:
                holder.u[x] = k
            layer_done = all(map(holder.u.get, members))
            emits = layer_done and l == layers.l_max
            keys = self._parent_keys(holder, combo)
            # A waiting clone that neither queues nor emits has no cost read
            # before it activates, most never do: activation prices it.
            priced = not clone or keys or emits
            if priced:
                self._price(holder, k, l, combo)
            if layer_done:
                self._advance(holder)
                if emits:
                    emissions.append(self._emit(holder))
            self._propose_parents(holder, keys)
            if clone:
                # Keep the clone's delta and undo it on the snapshot: its
                # nodes were unassigned, and the layer's old cost comes back
                # as it was, never by subtraction.
                if priced:
                    holder.delta = (snap.entries.pop(), snap.g[l])
                    if g_old is None:
                        del snap.g[l]
                    else:
                        snap.g[l] = g_old
                else:
                    holder.delta = (JEntry(k, l, combo, None), None)
                for x in combo:
                    del snap.u[x]
                holder.u = holder.entries = holder.g = None
        for holder, _ in holders:
            self._settle(holder)
        return emissions

    def _price(self, br: _Branch, k: int, l: int, combo: frozenset[int]) -> None:
        """Cost the branch's combo, which ``br.u`` assigns to cluster k at
        layer l, and store its record, live records and layer cost."""
        t = self.model.transition(br.u, br.entries, k, l, combo, self._memo)
        assert t.cost > TOL, "transition cost must be strictly positive"
        entry = JEntry(k, l, combo, t.dims)
        br.entries.append(entry)
        # The transition gathered the records holding a child of the combo;
        # a record is live until its first gather, and the new record's
        # members have no costed parent yet.
        kids = frozenset().union(*map(self.dag.children, combo))
        br.live = (*[e for e in br.live if kids.isdisjoint(e.members)], entry)
        br.g[l] = br.g.get(l, 0.0) + t.cost

    def _settle(self, br: _Branch) -> None:
        """End a pop or an activation for a branch it holds.  Only a
        branch's own pop adds to its proposals or moves its progress, so a
        finished branch, an active one with no proposal at or below its
        progress, or an inactive one with none at all can never pop or be
        activated again and leaves the table; an inactive one with
        proposals is indexed."""
        if br.active:
            can_pop = br.n_ready > 0
        else:
            can_pop = bool(br.snap.ghat or br.own)
        if br.progress > self.layers.l_max or not can_pop:
            del self.branches[br.id]
            if not br.active:
                br.snap.waiting -= 1
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
