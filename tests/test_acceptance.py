"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import random
import time

import pytest

from dagclust import (
    BnComputationCost,
    CapExceededError,
    JEntry,
    SearchConfig,
    assign_layers,
    check_contiguity,
    cluster_inference_cost,
    enumerate_feasible,
    optimal_set,
    search,
    search_space_size,
    seven_node_example,
)
from dagclust.factors import bucket_elimination_cost, jointree_fixture_cost
from dagclust.generator import GeneratorSpec, generate_dag
from dagclust.inference import cluster_inference_schedule
from dagclust.oracle import co_membership, similarity
from dagclust.search import ClusterSearch, partition_signature

from conftest import name_mapping

TOL = 1e-9


def _criterion(num: int, desc: str, checks: list[tuple[str, bool]]):
    ok = all(passed for _, passed in checks)
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {desc}")
    for label, passed in checks:
        if not passed:
            print(f"    failed check: {label}")
    assert ok, f"criterion {num}: " + "; ".join(l for l, p in checks if not p)


def _random_suite():
    graphs = []
    for gi in range(100):
        n = 3 + gi % 8
        graphs.append(
            generate_dag(GeneratorSpec(n=n, seed=1000 + gi, rewire=0.2, extra_arc_rate=0.4))
        )
    return graphs


def test_criterion_1_factor_calculus_fixtures():
    t0 = time.time()
    dag = seven_node_example()
    layers = assign_layers(dag)
    be_total, _ = bucket_elimination_cost(dag, layers, dag.id_of("F"))
    jt_total, _ = jointree_fixture_cost(dag)
    worked = name_mapping(dag, {"A": 1, "F": 1, "D": 2, "G": 2, "E": 3, "B": 6, "C": 7})
    cl_total = cluster_inference_cost(dag, layers, worked)
    variant = name_mapping(dag, {"A": 2, "F": 1, "D": 2, "G": 2, "E": 3, "B": 6, "C": 7})
    steps = cluster_inference_schedule(dag, layers, variant).steps
    fwd = {(s.cluster, s.layer): s.cost for s in steps if s.phase == "forward"}
    elapsed = time.time() - t0
    _criterion(
        1,
        "factor-calculus fixtures",
        [
            ("bucket elimination total == 64.4", abs(be_total - 64.4) <= TOL),
            ("jointree propagation total == 132.8", abs(jt_total - 132.8) <= TOL),
            ("cluster-based inference total == 117.2", abs(cl_total - 117.2) <= TOL),
            # No accounting that also gives the passing 17.6 worked step and
            # 33.2 leaf step reaches the quoted 15.6.
            (
                "link-variant mid-layer step == 16.4 (paper quotes 15.6; see "
                "test_inference.py::test_quoted_link_variant_step_unreachable)",
                abs(fwd[(2, 1)] - 16.4) <= TOL,
            ),
            ("link-variant leaf-layer step == 33.2", abs(fwd[(2, 0)] - 33.2) <= TOL),
            ("runtime < 1 s", elapsed < 1.0),
        ],
    )


def test_criterion_2_heuristic_fixtures():
    dag = seven_node_example()
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers)
    h_all = model.heuristic(dag.node_ids(), [])
    idF = dag.id_of("F")
    t = model.transition({}, [], 1, 0, frozenset({idF}))
    rest = [x for x in dag.node_ids() if x != idF]
    h_after = model.heuristic(rest, [JEntry(1, 0, frozenset({idF}), t.dims)], {idF: 1})
    priority = 0.0 + t.cost + h_after
    _criterion(
        2,
        "heuristic fixtures",
        [
            ("h over all seven nodes == 85.8", abs(h_all - 85.8) <= TOL),
            ("h after the first pop == 82.6", abs(h_after - 82.6) <= TOL),
            ("first pop transition == 5.2", abs(t.cost - 5.2) <= TOL),
            ("priority estimate == 87.8", abs(priority - 87.8) <= TOL),
        ],
    )


def test_criterion_3_oracle_fixture():
    t0 = time.time()
    dag = seven_node_example()
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers)
    fms = enumerate_feasible(dag, layers)
    best, winners = optimal_set(dag, layers, model)
    published = [
        {"A": 2, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2},
        {"A": 1, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2},
        {"A": 5, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2},
    ]
    want = sorted(partition_signature(name_mapping(dag, row)) for row in published)
    elapsed = time.time() - t0
    _criterion(
        3,
        "oracle fixture",
        [
            ("enumeration == 48 mappings", len(fms) == 48),
            ("enumeration matches formula", len(fms) == search_space_size(dag, layers)),
            ("optimal cost == 54.0", abs(best - 54.0) <= TOL),
            ("exactly 3 optimal partitions", len(winners) == 3),
            (
                "partitions match the published rows up to relabeling",
                sorted(w.signature for w in winners) == want,
            ),
            ("runtime < 1 s", elapsed < 1.0),
        ],
    )


def test_criterion_4_engine_oracle_equivalence():
    t0 = time.time()
    alphas = (0.0, 0.5, 1.0)
    seeds = range(5)
    graphs = [seven_node_example()] + _random_suite()
    mismatches = 0
    nonterminating = 0
    for dag in graphs:
        layers = assign_layers(dag)
        model = BnComputationCost(dag, layers)
        best, winners = optimal_set(dag, layers, model)
        want = sorted(w.signature for w in winners)
        for alpha in alphas:
            for seed in seeds:
                res = search(dag, layers, model, SearchConfig(alpha=alpha, seed=seed))
                if res.report.terminated_early:
                    nonterminating += 1
                got = sorted(
                    {partition_signature(s.mapping) for s in res.solutions if s.optimal}
                )
                if got != want or abs(res.report.optimal_cost - best) > TOL:
                    mismatches += 1
    elapsed = time.time() - t0
    _criterion(
        4,
        f"engine == oracle on {len(graphs)} DAGs x 3 alphas x 5 seeds ({elapsed:.0f}s)",
        [
            ("terminal optimal partition sets all equal", mismatches == 0),
            ("every run terminates", nonterminating == 0),
            ("runtime < 5 min", elapsed < 300.0),
        ],
    )


def test_criterion_5_enumeration_completeness():
    dag = seven_node_example()
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers)
    res = search(dag, layers, model, SearchConfig(prune_enabled=False, seed=0))
    mappings = [tuple(sorted(s.mapping.items())) for s in res.solutions]
    _criterion(
        5,
        "enumeration-mode completeness",
        [
            ("complete-branch count == 48", res.report.branches_complete == 48),
            ("mappings pairwise distinct", len(set(mappings)) == len(mappings) == 48),
        ],
    )


class _Audit(ClusterSearch):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.gmin_trace = []
        self.dead_pops = 0

    def _process_pop(self, br, entry):
        if not br.alive:
            self.dead_pops += 1
        out = super()._process_pop(br, entry)
        self.gmin_trace.append(self.gmin)
        return out


def test_criterion_6_monotonicity_and_hygiene():
    checks = []
    fig1 = seven_node_example()
    graphs = [fig1] + [
        generate_dag(GeneratorSpec(n=3 + i % 8, seed=1000 + i, rewire=0.2, extra_arc_rate=0.4))
        for i in range(0, 30, 2)
    ]
    monotone = True
    dead_pops = 0
    contiguous = True
    upper_bound = True
    for dag in graphs:
        layers = assign_layers(dag)
        model = BnComputationCost(dag, layers)
        best, _ = optimal_set(dag, layers, model)
        if model.heuristic(dag.node_ids(), []) < best - TOL:
            upper_bound = False
        eng = _Audit(dag, layers, model, SearchConfig(alpha=0.5, seed=0))
        res = eng.run()
        dead_pops += eng.dead_pops
        for prev, cur in zip(eng.gmin_trace, eng.gmin_trace[1:]):
            if cur > prev + TOL:
                monotone = False
        for s in res.solutions:
            if not check_contiguity(dag, s.mapping):
                contiguous = False
    _criterion(
        6,
        f"monotonicity and hygiene over {len(graphs)} graphs",
        [
            ("incumbent bound never increases", monotone),
            ("no iteration pops a pruned branch", dead_pops == 0),
            ("every emitted mapping is contiguous", contiguous),
            ("heuristic upper-bounds the optimal remaining cost", upper_bound),
        ],
    )


def test_criterion_7_anytime_behavior():
    dag = seven_node_example()
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers)
    hits = 0
    for seed in range(20):
        res = search(dag, layers, model, SearchConfig(alpha=0.5, seed=seed))
        first_opt = next(
            i for i, s in enumerate(res.solutions) if abs(s.total_cost - 54.0) <= TOL
        )
        if any(s.total_cost <= 57.6 + TOL for s in res.solutions[:first_opt]):
            hits += 1
    _criterion(
        7,
        f"anytime behavior: near-optimal before optimal in {hits}/20 runs",
        [("a <=57.6 solution precedes the first optimal in >= 90% of runs", hits >= 18)],
    )


def test_criterion_8_generated_scale_study():
    t0 = time.time()
    oracle_agreements = []
    ratios = []
    for seed in (7, 11, 42):
        dag = generate_dag(
            GeneratorSpec(n=25, layers=5, rewire=0.15, extra_arc_rate=0.8, seed=seed)
        )
        layers = assign_layers(dag)
        model = BnComputationCost(dag, layers)
        naive = model.heuristic(dag.node_ids(), [])
        res = search(
            dag,
            layers,
            model,
            SearchConfig(alpha=0.5, seed=0, stall_window=1500, max_iterations=15000),
        )
        assert res.solutions, "no solution found on the generated graph"
        ratios.append(res.solutions[0].total_cost / naive)
        try:
            best, _ = optimal_set(dag, layers, model, cap=200_000)
        except CapExceededError:
            pass  # search space above the cap: clause is vacuous here
        else:
            oracle_agreements.append(res.report.optimal_cost >= best - TOL)
    # the oracle clause must be demonstrated somewhere: a 10-node graph
    dag = generate_dag(GeneratorSpec(n=10, seed=6, rewire=0.2, extra_arc_rate=0.4))
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers)
    best, winners = optimal_set(dag, layers, model)
    res = search(dag, layers, model, SearchConfig(alpha=0.5, seed=0))
    oracle_agreements.append(abs(res.report.optimal_cost - best) <= TOL)
    elapsed = time.time() - t0
    _criterion(
        8,
        f"generated-scale study (first-found within {max(ratios):.1%} of naive; {elapsed:.0f}s)",
        [
            ("engine equals oracle wherever the cap permits", all(oracle_agreements)),
            ("first-found cost below 10% of the naive estimate", max(ratios) < 0.10),
        ],
    )


def test_criterion_9_similarity_metric():
    dag = seven_node_example()
    u = name_mapping(dag, {"A": 2, "B": 6, "C": 7, "D": 2, "E": 3, "F": 1, "G": 2})
    y = co_membership(u)
    ident = similarity(y, [y]) == pytest.approx(1.0)
    rng = random.Random(123)
    invariant = True
    for _ in range(1000):
        n = rng.randint(2, 10)
        part = {i: rng.randint(1, n) for i in range(1, n + 1)}
        perm = {k: 1000 + 13 * k for k in set(part.values())}
        relabeled = {i: perm[k] for i, k in part.items()}
        refs = [co_membership({i: rng.randint(1, n) for i in range(1, n + 1)})]
        if abs(
            similarity(co_membership(part), refs) - similarity(co_membership(relabeled), refs)
        ) > TOL:
            invariant = False
            break
    _criterion(
        9,
        "similarity metric",
        [
            ("identical partitions score 1.0", ident),
            ("label-permutation invariant on 1000 random partitions", invariant),
        ],
    )
