"""The three benchmark workloads: graph families, one round each, and the
correctness gates that check a round's outputs.

Every workload has a fixed family of base graphs from ``generate_dag``.  On
verify_small and price_mappings the benchmark seed relabels each graph's
nodes (a random permutation of node ids, which changes every id-based
tie-break the engine makes) and seeds the searches.  The structure, and with
it the amount of work, stays the same across seeds, so the figures of
different seeds are comparable.

anytime_large takes its graphs and search seed as generated, whatever the
benchmark seed.  A capped search on a 100-node graph is chaotic in its cost:
the same graph under different node orders took 2 s in one order and 57 s
in another (12,765 branches and a million queued proposals against 451
branches), and some orders run past any time limit.  Relabelling there
would measure which orders a seed happens to draw, not the program.

A round is the workload's whole fixed input run once, by one caller, one
call at a time.  A run repeats rounds while time remains; counts come from
one round and repeat exactly for a seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import random
import sys
import time
from dataclasses import dataclass, field

import dagclust
from dagclust import (
    BnComputationCost,
    Dag,
    GeneratorSpec,
    SearchConfig,
    partition_signature,
    seven_node_example,
)
from dagclust.oracle import iter_feasible

from speed import SpeedProbe
from tracing import SpanRecorder, TracedModel, patched

now = time.perf_counter
search_module = sys.modules["dagclust.search"]
oracle_module = sys.modules["dagclust.oracle"]

REL_TOL = 1e-9

# Workload sizes, full and smoke.  A full round takes 20-30 s on a 2-core
# machine.
VERIFY_GRAPHS = {"full": 50, "smoke": 4}
VERIFY_ALPHAS = (0.0, 0.5, 1.0)
ANYTIME_GRAPHS = {"full": ((50, 4), (100, 4)), "smoke": ((20, 1), (30, 1))}
ANYTIME_CAP = {"full": 300, "smoke": 60}
PRICE_GRAPHS = {"full": (16, 12, 13, 14), "smoke": (8,)}
PRICE_SPACE = {"full": (10**3, 10**4), "smoke": (10, 10**3)}
# A search of at most SHORT_ITERATIONS iterations (a few milliseconds) is
# timed as the fastest of SHORT_REPEATS back-to-back calls: one such call is
# dominated by scheduling noise (the median call varied 5.8-10.4 ms between
# repeats).  The rule uses the iteration count, not the time, so every run of
# a seed makes the same calls.  Traced rounds make no repeats.
SHORT_ITERATIONS = 200
SHORT_REPEATS = 5
CLI_GRAPH = {"full": 5, "smoke": 3}  # verify_small graph ``dagclust compare`` runs on


class Api:
    """The dagclust entry points the workloads call.

    Untraced, these are the package's own functions.  Traced, each is
    wrapped in a span, and so are the calls the package makes to its own
    public functions: ``optimal_set`` pricing each mapping with
    ``evaluate_mapping``, and ``stream_search`` running ``search``.
    """

    def __init__(self, rec: SpanRecorder | None = None):
        self.rec = rec
        self.stream_reports: list = []
        fns = {
            "search": search_module.search,
            "stream_search": search_module.stream_search,
            "optimal_set": dagclust.optimal_set,
            "iter_feasible": iter_feasible,
            "evaluate_mapping": dagclust.evaluate_mapping,
            "cluster_inference_cost": dagclust.cluster_inference_cost,
            "generate_dag": dagclust.generate_dag,
            "assign_layers": dagclust.assign_layers,
        }
        if rec is not None:
            spans = {
                "search": ("search", rec.wrap),
                "stream_search": ("stream_search", rec.wrap_stream),
                "optimal_set": ("oracle.optimal_set", rec.wrap),
                "iter_feasible": ("oracle.iter_feasible", rec.wrap_each),
                "evaluate_mapping": ("costs.evaluate_mapping", rec.wrap),
                "cluster_inference_cost": ("inference.cluster_inference_cost", rec.wrap),
                "generate_dag": ("generator.generate_dag", rec.wrap),
                "assign_layers": ("dag.assign_layers", rec.wrap),
            }
            fns = {k: wrap(name, fns[k]) for k, (name, wrap) in spans.items()}
        for k, fn in fns.items():
            setattr(self, k, fn)

    def model(self, plain: BnComputationCost):
        return plain if self.rec is None else TracedModel(plain, self.rec)

    @contextlib.contextmanager
    def session(self):
        """Route the package's internal calls through this Api.  The stream
        workers' ``search`` results are kept so their reports can be read."""
        inner = self.search

        def search_and_keep(*args, **kwargs):
            res = inner(*args, **kwargs)
            self.stream_reports.append(res.report)
            return res

        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(search_module, "search", search_and_keep))
            if self.rec is not None:
                stack.enter_context(
                    patched(oracle_module, "evaluate_mapping", self.evaluate_mapping)
                )
            yield


# ---------------------------------------------------------------------------
# Inputs


@dataclass
class Instance:
    label: str
    dag: Dag
    layers: object
    model: object  # what the round drives: the plain model, or its traced proxy
    plain: BnComputationCost


def relabel(dag: Dag, rng: random.Random) -> Dag:
    """The same graph with its node ids permuted; names follow their nodes."""
    ids = list(dag.node_ids())
    new = ids[:]
    rng.shuffle(new)
    to = dict(zip(ids, new))
    names = [""] * dag.n
    for i in ids:
        names[to[i] - 1] = dag.name(i)
    arcs = sorted((to[p], to[c]) for p, c in dag.arcs)
    return Dag(names, arcs, {to[i]: dag.states[i] for i in ids})


def base_specs(api: Api, workload: str, size: str) -> list[tuple[str, GeneratorSpec]]:
    if workload == "verify_small":
        # The criterion-4 acceptance family: n = 3..10 in turn.
        return [
            (f"g{gi:03d}", GeneratorSpec(n=3 + gi % 8, seed=1000 + gi, rewire=0.2, extra_arc_rate=0.4))
            for gi in range(VERIFY_GRAPHS[size])
        ]
    if workload == "anytime_large":
        return [
            (f"n{n}-s{s}", GeneratorSpec(n=n, seed=s))
            for n, count in ANYTIME_GRAPHS[size]
            for s in range(1, count + 1)
        ]
    if workload == "price_mappings":
        return price_specs(api, size)
    raise ValueError(workload)


def price_specs(api: Api, size: str) -> list[tuple[str, GeneratorSpec]]:
    """For each listed n, the first generator seed whose proposal-rule space
    (an upper bound on the feasible set) lies in the workload's range."""
    lo, hi = PRICE_SPACE[size]
    out = []
    seed = 2000
    for n in PRICE_GRAPHS[size]:
        while True:
            seed += 1
            spec = GeneratorSpec(n=n, states=(2, 3), seed=seed)
            dag = api.generate_dag(spec)
            if lo <= dagclust.search_space_size(dag, api.assign_layers(dag)) <= hi:
                out.append((f"n{n}-s{seed}", spec))
                break
    return out


def build(api: Api, workload: str, seed: int, size: str) -> list[Instance]:
    """Set-up: generate the family, relabel it for ``seed``, layer it and
    construct the cost models."""
    out = []
    for label, spec in base_specs(api, workload, size):
        dag = api.generate_dag(spec)
        if workload != "anytime_large":
            dag = relabel(dag, random.Random(f"dagclust-bench:{workload}:{seed}:{label}"))
        layers = api.assign_layers(dag)
        plain = BnComputationCost(dag, layers)
        out.append(Instance(label, dag, layers, api.model(plain), plain))
    return out


# ---------------------------------------------------------------------------
# Rounds


@dataclass
class Round:
    """One round's measurements, in reference-speed seconds (``speed.py``)."""

    wall_s: float = 0.0
    measured_wall_s: float = 0.0
    repeats_s: float = 0.0  # extra calls of short searches, not in wall_s
    op_s: list[float] = field(default_factory=list)
    first_s: list[float] = field(default_factory=list)
    iterations: int = 0
    engine_s: float = 0.0
    mappings: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    reports: list = field(default_factory=list)
    best_ratios: list[float] = field(default_factory=list)
    # outputs kept for the gates, checked after the round's timing ends
    outputs: list = field(default_factory=list)
    # (measured seconds, seconds to first result or None, engine seconds,
    # probe index) per timed call; ``op`` False for calls that are not the
    # workload's operation (verify_small's oracle calls)
    _timed: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def timed(self, probe_idx, seconds, first=None, engine=None, op=True) -> None:
        self._timed.append((seconds, first, seconds if engine is None else engine, probe_idx, op))

    def finish(self, probe: SpeedProbe) -> None:
        measured = scaled = 0.0
        for seconds, first, engine, idx, op in self._timed:
            k = probe.scale_at(idx)
            measured += seconds
            scaled += seconds * k
            if op:
                self.op_s.append(seconds * k)
                self.engine_s += engine * k
                if first is not None:
                    self.first_s.append(first * k)
        self.wall_s = self.measured_wall_s * (scaled / measured if measured else probe.scale())


def run_round(workload: str, api: Api, insts: list[Instance], seed: int, size: str) -> Round:
    fn = {"verify_small": verify_round, "anytime_large": anytime_round, "price_mappings": price_round}
    rnd = Round()
    probe = SpeedProbe()
    probe.sample()
    before = probe.spent
    t0 = now()
    with api.session():
        fn[workload](api, insts, seed, size, rnd, probe)
    rnd.measured_wall_s = now() - t0 - (probe.spent - before) - rnd.repeats_s
    probe.sample()
    rnd.finish(probe)
    return rnd


def verify_round(api: Api, insts, seed: int, size: str, rnd: Round, probe: SpeedProbe) -> None:
    for inst in insts:
        dag, layers, model = inst.dag, inst.layers, inst.model
        i = probe.before_op()
        t = now()
        best, winners = api.optimal_set(dag, layers, model)
        dt = now() - t
        probe.after_op(dt)
        rnd.timed(i, dt, op=False)
        want = sorted(w.signature for w in winners)
        rnd.attempted += 1
        for alpha in VERIFY_ALPHAS:
            cfg = SearchConfig(alpha=alpha, seed=seed)
            i = probe.before_op()
            res, dt, first_s = timed_search(api, inst, cfg)
            if res.report.iterations_total <= SHORT_ITERATIONS and api.rec is None:
                t = now()
                for _ in range(SHORT_REPEATS - 1):
                    _res, dt2, first2 = timed_search(api, inst, cfg)
                    if dt2 < dt:
                        dt, first_s = dt2, first2
                rnd.repeats_s += now() - t
            probe.after_op(dt)
            rnd.timed(i, dt, first_s)
            rnd.iterations += res.report.iterations_total
            rnd.mappings += res.report.solutions_emitted
            rnd.reports.append(res.report)
            rnd.attempted += 1
            rnd.outputs.append((inst, alpha, best, want, res))


def timed_search(api: Api, inst: Instance, cfg: SearchConfig):
    """One search call: (result, seconds, seconds to its first solution)."""
    first: list[float] = []
    t = now()
    res = api.search(
        inst.dag, inst.layers, inst.model, cfg,
        on_solution=lambda _rec: first or first.append(now()),
    )
    dt = now() - t
    return res, dt, (first[0] - t if first else None)


def anytime_config(size: str) -> SearchConfig:
    return SearchConfig(alpha=0.5, seed=0, max_iterations=ANYTIME_CAP[size])


def anytime_round(api: Api, insts, seed: int, size: str, rnd: Round, probe: SpeedProbe) -> None:
    for inst in insts:
        cfg = anytime_config(size)
        records = []
        first = None
        i = probe.before_op()
        t = now()
        for rec in api.stream_search(inst.dag, inst.layers, inst.model, cfg):
            if first is None:
                first = now() - t
            records.append(rec)
        dt = now() - t
        probe.after_op(dt)
        rnd.timed(i, dt, first)
        rnd.mappings += len(records)
        rnd.attempted += 1
        rnd.outputs.append((inst, records))
    rnd.reports = list(api.stream_reports)
    api.stream_reports.clear()
    rnd.iterations = sum(r.iterations_total for r in rnd.reports)


def price_round(api: Api, insts, seed: int, size: str, rnd: Round, probe: SpeedProbe) -> None:
    for inst in insts:
        dag, layers = inst.dag, inst.layers
        i = probe.before_op()
        t = now()
        best, winners = api.optimal_set(dag, layers, inst.model)
        t_opt = now()
        total = 0.0
        count = 0
        for u in api.iter_feasible(dag, layers):
            total += api.cluster_inference_cost(dag, layers, u)
            count += 1
        t_end = now()
        probe.after_op(t_end - t)
        rnd.timed(i, t_end - t, t_opt - t, engine=t_end - t_opt)
        rnd.iterations += count
        rnd.mappings += count
        rnd.attempted += 1
        rnd.outputs.append((inst, best, len(winners), total))


# ---------------------------------------------------------------------------
# Gates (outside the timed round)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_round(workload: str, rnd: Round, reference: dict | None) -> None:
    """Record a failure in ``rnd`` for every output that is wrong.  A
    reference (recorded for the default seed) adds exact-output checks."""
    if workload == "verify_small":
        for inst, alpha, best, want, res in rnd.outputs:
            label = inst.label
            got = sorted({partition_signature(s.mapping) for s in res.solutions if s.optimal})
            if res.report.terminated_early:
                rnd.fail(f"{label} alpha={alpha}: search did not terminate")
            elif got != want or res.report.optimal_cost is None or not close(res.report.optimal_cost, best):
                rnd.fail(f"{label} alpha={alpha}: optimum {res.report.optimal_cost} != oracle {best}")
        optima = {inst.label: (inst, best) for inst, _a, best, *_ in rnd.outputs}
        rnd.best_ratios = [best / naive_cost(inst) for inst, best in optima.values()]
    elif workload == "anytime_large":
        for inst, records in rnd.outputs:
            if not records:
                rnd.fail(f"{inst.label}: empty solution stream")
                continue
            for r in records:
                priced = dagclust.evaluate_mapping(inst.dag, inst.layers, inst.plain, r.mapping).total
                if not close(priced, r.total_cost):
                    rnd.fail(f"{inst.label}: streamed cost {r.total_cost} != re-priced {priced}")
                    break
            rnd.best_ratios.append(min(r.total_cost for r in records) / naive_cost(inst))
        digest = stream_digest(rnd.outputs)
        rnd.attempted += 1
        if reference is not None and digest != reference["digest"]:
            rnd.fail(f"stream digest {digest} != reference {reference['digest']}")
    elif workload == "price_mappings":
        rnd.attempted += 1
        fig1_fixtures(rnd)
        rnd.best_ratios = [best / naive_cost(inst) for inst, best, *_ in rnd.outputs]
        got = [[best, n, total] for _inst, best, n, total in rnd.outputs]
        for (inst, *_), g in zip(rnd.outputs, got):
            if g[1] < 1 or not math.isfinite(g[2]):
                rnd.fail(f"{inst.label}: no winner or non-finite inference cost")
        if reference is not None:
            want = reference["graphs"]
            same = len(want) == len(got) and all(
                close(a[0], b[0]) and a[1] == b[1] and close(a[2], b[2]) for a, b in zip(got, want)
            )
            rnd.attempted += 1
            if not same:
                rnd.fail(f"per-graph (optimum, winners, inference sum) {got} != reference {want}")


def naive_cost(inst: Instance) -> float:
    """The engine's completion estimate for the whole graph, its first bound."""
    return inst.plain.heuristic(inst.dag.node_ids(), [])


def stream_digest(outputs) -> str:
    """sha256 over (graph, iteration, branch, cost to 0.1, sorted mapping)."""
    lines = [
        f"{inst.label}\t{r.iteration}\t{r.branch}\t{r.total_cost:.1f}\t{sorted(r.mapping.items())}"
        for inst, records in outputs
        for r in records
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def fig1_fixtures(rnd: Round) -> None:
    dag = seven_node_example()
    layers = dagclust.assign_layers(dag)
    best, _ = dagclust.optimal_set(dag, layers, BnComputationCost(dag, layers))
    worked = {dag.id_of(k): v for k, v in {"A": 1, "F": 1, "D": 2, "G": 2, "E": 3, "B": 6, "C": 7}.items()}
    cost = dagclust.cluster_inference_cost(dag, layers, worked)
    if not (close(best, 54.0) and close(cost, 117.2)):
        rnd.fail(f"fig1 fixtures: optimum {best} (want 54.0), worked mapping {cost} (want 117.2)")


def reference_values(workload: str, rnd: Round) -> dict | None:
    """What ``check_round`` compares against, computed from this round."""
    if workload == "anytime_large":
        return {"digest": stream_digest(rnd.outputs)}
    if workload == "price_mappings":
        return {"graphs": [[best, n, total] for _inst, best, n, total in rnd.outputs]}
    return None
