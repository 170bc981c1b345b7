"""Best-first cluster-mapping search with branch pruning.

Partial solutions live on branches.  A queue of cluster-layer proposals
drives the search: popping a proposal enumerates every node combination it
can still realize, stores each combination on its own branch, costs it, and
proposes the parents upward.  Completed layers advance a branch's frontier,
link branches whose forward-relevant state coincides so dominated ones can
be pruned, and whenever a branch completes the last layer it emits a
solution.  The best total seen so far also prunes any partial already
costing more, since transition costs are strictly positive.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .dag import (
    Dag,
    LayerAssignment,
    check_contiguity,
    founding_labels,
    keeps_contiguity,
)
from .costs import TOL, CostModel, JEntry


class ConfigError(ValueError):
    """Invalid search configuration."""


@dataclass
class SearchConfig:
    alpha: float = 0.5
    seed: int = 0
    max_iterations: int | None = None
    stall_window: int | None = None
    prune_enabled: bool = True
    gmin_infinite: bool = False
    leaf_init: dict[int, int] | None = None

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError("alpha must lie in [0, 1]")
        if self.gmin_infinite and self.prune_enabled:
            raise ConfigError("enumeration mode requires pruning to be disabled")

    @classmethod
    def enumeration(cls, **kw) -> "SearchConfig":
        kw.setdefault("prune_enabled", False)
        kw.setdefault("gmin_infinite", True)
        return cls(**kw)


@dataclass
class SolutionRecord:
    mapping: dict[int, int]
    total_cost: float
    iteration: int
    branch: int
    optimal: bool = False
    similarity: float | None = None


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


@dataclass(eq=False)
class _QueueEntry:
    branch: int
    cluster: int
    layer: int
    ghat: float
    seq: int


@dataclass
class _Branch:
    id: int
    u: dict[int, int]
    entries: list[JEntry]
    absorbed: set[int]
    g: dict[int, float]  # per-layer cost increments
    progress: int  # lowest incomplete layer
    active: bool
    alive: bool = True
    emitted: bool = False

    def cum_g(self, through: int | None = None) -> float:
        if through is None:
            return sum(self.g.values())
        return sum(v for l, v in self.g.items() if l <= through)

    def clone(self, new_id: int, creation_layer: int) -> "_Branch":
        return _Branch(
            id=new_id,
            u=dict(self.u),
            entries=list(self.entries),
            absorbed=set(self.absorbed),
            g=dict(self.g),
            progress=self.progress,
            active=creation_layer == 0,
        )


def _subsets_desc(items: list[int]) -> list[frozenset[int]]:
    out = []
    for r in range(len(items), -1, -1):
        for combo in itertools.combinations(sorted(items), r):
            out.append(frozenset(combo))
    return out


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
    return [frozenset(pinned) | s for s in _subsets_desc(free)]


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
        self.rng = random.Random(self.config.seed)
        self.pending: dict[int, list[_QueueEntry]] = {}
        self.branches: dict[int, _Branch] = {}
        self.links: dict[tuple[int, tuple], set[int]] = {}
        self.branch_links: dict[int, list[tuple[int, tuple]]] = {}
        self.gmin = float("inf")
        self.iteration = 0
        self.branches_complete = 0
        self.emitted_mappings: dict[tuple, int] = {}
        self._seq = itertools.count()
        self._next_branch = itertools.count(1)
        self._last_improvement = 0

    # -- setup ----------------------------------------------------------------

    def _leaf_labels(self) -> dict[int, int]:
        leaves = sorted(self.dag.leaves)
        if self.config.leaf_init is None:
            return {x: self.labels[x] for x in leaves}
        init = dict(self.config.leaf_init)
        if sorted(init) != leaves:
            raise ConfigError("leaf_init must assign exactly the leaf nodes")
        reserved = {self.labels[x] for x in self.dag.node_ids() if x not in leaves}
        for k in init.values():
            if k <= 0:
                raise ConfigError("leaf clusters must be positive integers")
            if k in reserved:
                raise ConfigError(f"leaf cluster {k} collides with a reserved label")
        return init

    def _init(self) -> None:
        h_all = self.model.heuristic(self.dag.node_ids(), [])
        self.gmin = float("inf") if self.config.gmin_infinite else h_all
        b = _Branch(
            id=next(self._next_branch),
            u={},
            entries=[],
            absorbed=set(),
            g={},
            progress=0,
            active=True,
        )
        self.branches[b.id] = b
        leaf_labels = self._leaf_labels()
        self.own_label = {**self.labels, **leaf_labels}
        pushed = set()
        for x, k in sorted(leaf_labels.items()):
            if k not in pushed:
                pushed.add(k)
                self._push(_QueueEntry(b.id, k, 0, h_all, next(self._seq)))

    # -- queue helpers ----------------------------------------------------------

    def _push(self, entry: _QueueEntry) -> None:
        self.pending.setdefault(entry.branch, []).append(entry)

    def _eligible(self) -> list[_QueueEntry]:
        out = []
        for bid, entries in self.pending.items():
            br = self.branches[bid]
            if br.alive and br.active:
                p = br.progress
                out.extend(e for e in entries if e.layer <= p)
        return out

    def _inactive_entries(self) -> list[_QueueEntry]:
        out = []
        for bid, entries in self.pending.items():
            br = self.branches[bid]
            if br.alive and not br.active:
                out.extend(entries)
        return out

    def _kill(self, branch_id: int) -> None:
        br = self.branches.get(branch_id)
        if br is None or not br.alive:
            return
        br.alive = False
        self.pending.pop(branch_id, None)

    # -- linking / pruning --------------------------------------------------------

    def _frontier_sig(self, br: _Branch) -> tuple:
        """Everything that determines a branch's future costs and options:
        live dependency records, assignments of nodes that still have
        unassigned parents, and the full member sets of clusters those nodes
        belong to (future contiguity checks probe cluster membership)."""
        live = tuple(
            sorted(
                (e.layer, e.cluster, tuple(sorted(e.members)), tuple(sorted(e.dims)))
                for i, e in enumerate(br.entries)
                if i not in br.absorbed
            )
        )
        open_nodes = {
            x
            for x in br.u
            if any(not br.u.get(p) for p in self.dag.parents(x))
        }
        open_u = tuple(sorted((x, br.u[x]) for x in open_nodes))
        members: dict[int, list[int]] = {}
        for x, k in br.u.items():
            members.setdefault(k, []).append(x)
        growable = tuple(
            sorted(
                (k, tuple(sorted(ms)))
                for k, ms in members.items()
                if any(m in open_nodes for m in ms)
            )
        )
        return (live, open_u, growable)

    def _link_on_completion(self, br: _Branch, layer: int) -> None:
        key = (layer + 1, self._frontier_sig(br))
        self.links.setdefault(key, set()).add(br.id)
        self.branch_links.setdefault(br.id, []).append(key)

    def _prune_at_pop(self, br: _Branch, layer: int) -> None:
        """Kill dominated rivals sharing this branch's completed frontier,
        and this branch itself if it already exceeds the incumbent."""
        rivals: set[int] = set()
        for key in self.branch_links.get(br.id, []):
            if key[0] == layer:
                rivals |= self.links.get(key, set())
        rivals = {j for j in rivals if j in self.branches and self.branches[j].alive}
        rivals.add(br.id)
        if len(rivals) > 1:
            best = min(self.branches[j].cum_g(layer - 1) for j in rivals)
            for j in sorted(rivals):
                if self.branches[j].cum_g(layer - 1) > best + TOL:
                    self._kill(j)
        if br.alive and br.cum_g() > self.gmin + TOL:
            self._kill(br.id)

    # -- proposals -----------------------------------------------------------------

    def _propose_parents(self, br: _Branch, popped: frozenset[int]) -> None:
        parents = sorted({p for z in popped for p in self.dag.parents(z)})
        if not parents:
            return
        ghat_val = br.cum_g() + self.model.heuristic(
            self._unassigned(br), self._live_entries(br), br.u
        )
        present = {
            (e.cluster, e.layer) for e in self.pending.get(br.id, ())
        }
        for p in parents:
            existing = sorted({br.u[c] for c in self.dag.children(p) if br.u.get(c)})
            l = self.layers.of(p)
            for k in existing + [self.labels[p]]:
                if (k, l) not in present:
                    present.add((k, l))
                    self._push(_QueueEntry(br.id, k, l, ghat_val, next(self._seq)))

    def _unassigned(self, br: _Branch) -> list[int]:
        return [x for x in self.dag.node_ids() if not br.u.get(x)]

    def _live_entries(self, br: _Branch) -> list[JEntry]:
        return [e for i, e in enumerate(br.entries) if i not in br.absorbed]

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
            if not any(self.pending.values()):
                break
            eligible = self._eligible()
            if not eligible:
                waiting = self._inactive_entries()
                if not waiting:
                    break
                self.iteration += 1
                if self.rng.random() < cfg.alpha:
                    pick = min(waiting, key=lambda e: (e.ghat, e.seq))
                else:
                    pick = min(waiting, key=lambda e: (e.layer, e.seq))
                self.branches[pick.branch].active = True
                continue
            self.iteration += 1
            entry = min(eligible, key=lambda e: (e.ghat, e.seq))
            self.pending[entry.branch].remove(entry)
            br = self.branches[entry.branch]
            if cfg.prune_enabled:
                self._prune_at_pop(br, entry.layer)
                if not br.alive:
                    continue
            for rec in self._process_pop(br, entry):
                solutions.append(rec)
                if on_solution is not None:
                    on_solution(rec)
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
            branches_created=len(self.branches),
            branches_complete=self.branches_complete,
            solutions_emitted=len(solutions),
            gmin=gmin_final,
            terminated_early=terminated_early,
        )
        return SearchResult(solutions=solutions, report=report)

    def _process_pop(self, br: _Branch, entry: _QueueEntry) -> list[SolutionRecord]:
        dag, layers, cfg = self.dag, self.layers, self.config
        k, l = entry.cluster, entry.layer
        # A proposal with unassigned layer-l nodes pops only at l == progress,
        # so their children are all assigned and each node's proposals are
        # its own label and its children's clusters.
        proposals = {
            x: {self.own_label[x]} | {br.u[c] for c in dag.children(x)}
            for x in layers.members.get(l, ())
            if not br.u.get(x)
        }
        z_all = {x for x, ks in proposals.items() if k in ks}
        z1 = {x for x in z_all if proposals[x] == {k}}
        combos = enumerate_combos(z_all, z1)
        # All descendants of a combo are assigned already, so the walk sees
        # every path that could leave cluster k and come back.
        combos = [c for c in combos if keeps_contiguity(dag, br.u, c, k)]
        if not combos:
            return []

        holders: list[tuple[_Branch, frozenset[int]]] = [(br, combos[0])]
        duplicable = list(self.pending.get(br.id, ()))
        for combo in combos[1:]:
            nb = br.clone(next(self._next_branch), l)
            self.branches[nb.id] = nb
            for e in duplicable:
                self._push(
                    _QueueEntry(nb.id, e.cluster, e.layer, e.ghat, next(self._seq))
                )
            holders.append((nb, combo))

        emissions: list[SolutionRecord] = []
        for holder, combo in holders:
            if not combo:
                continue
            t = self.model.transition(holder.u, holder.entries, k, l, combo)
            assert t.cost > TOL, "transition cost must be strictly positive"
            holder.absorbed.update(t.gathered)
            holder.entries.append(JEntry(k, l, combo, t.dims))
            for x in combo:
                holder.u[x] = k
            holder.g[l] = holder.g.get(l, 0.0) + t.cost
            layer_done = all(holder.u.get(x) for x in layers.members.get(l, ()))
            if layer_done:
                holder.progress = l + 1
                if l == layers.l_max:
                    rec = self._emit(holder)
                    if rec is not None:
                        emissions.append(rec)
                elif cfg.prune_enabled:
                    self._link_on_completion(holder, l)
            self._propose_parents(holder, combo)
        return emissions

    def _emit(self, br: _Branch) -> SolutionRecord | None:
        if br.emitted:
            return None
        br.emitted = True
        self.branches_complete += 1
        mapping = dict(br.u)
        total = br.cum_g()
        key = tuple(sorted(mapping.items()))
        assert key not in self.emitted_mappings, "duplicate mapping across branches"
        self.emitted_mappings[key] = br.id
        assert check_contiguity(self.dag, mapping)
        if not self.config.gmin_infinite and total < self.gmin - TOL:
            self.gmin = total
            self._last_improvement = self.iteration
        # A finished branch has nothing left to pop.
        self.pending.pop(br.id, None)
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
    been yielded.
    """
    import queue as _queue
    import threading

    chan: _queue.Queue = _queue.Queue()
    failure: list[BaseException] = []

    def worker():
        try:
            search(dag, layers, model, config, on_solution=chan.put)
        except BaseException as exc:
            failure.append(exc)
        finally:
            chan.put(None)

    t = threading.Thread(target=worker, daemon=True)
    t.start()
    while True:
        item = chan.get()
        if item is None:
            break
        yield item
    t.join()
    if failure:
        raise failure[0]
