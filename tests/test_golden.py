"""Golden digests of inference schedules and search streams.

The digests pin every float the cost calculus produces, bit for bit: a
refactor of the product step or of the search must leave them unchanged.
A change that alters a cost or a stream on purpose records new digests and
says why.
"""

import hashlib

from dagclust import BnComputationCost, SearchConfig, assign_layers, search, seven_node_example
from dagclust.costs import layer_transitions
from dagclust.dag import format_dag_text
from dagclust.generator import GeneratorSpec, generate_dag
from dagclust.inference import cluster_inference_schedule
from dagclust.oracle import enumerate_feasible, iter_feasible

INFERENCE_DIGEST = "16a2319ddc6063cee9fc4b355f5d2269ea566be94c2f60cc74323d38781154d0"
STREAM_DIGEST = "c305b411e3962960b530540559de2d504558ee30f588eac0ff22ba0dabea8de6"
ORACLE_DIGEST = "a17e47f5081bd49764b753dc22d6f2dae6fd0cd05decc842f498ba3f62bb36e2"
GENERATOR_DIGEST = "ceb58afa9ff144282db10d90f3176ff4739c904a7b4f471d67aadd4851db5e85"


def _inference_graphs():
    """fig1 and 16 generated graphs, n=5-10; every third has 2-3 states."""
    graphs = [seven_node_example()]
    for seed in range(16):
        states = (2, 3) if seed % 3 == 0 else (2, 2)
        spec = GeneratorSpec(
            n=5 + seed % 6, seed=seed, rewire=0.2, extra_arc_rate=0.4, states=states
        )
        graphs.append(generate_dag(spec))
    return graphs


def _feasible(graphs):
    for dag in graphs:
        layers = assign_layers(dag)
        for mapping in iter_feasible(dag, layers):
            yield dag, layers, mapping


def test_inference_schedule_digest():
    h = hashlib.sha256()
    count = 0
    for dag, layers, mapping in _feasible(_inference_graphs()):
        h.update(repr(sorted(mapping.items())).encode())
        for s in cluster_inference_schedule(dag, layers, mapping).steps:
            h.update(repr((s.phase, s.cluster, s.layer, s.label, repr(s.cost))).encode())
        count += 1
    assert count == 2481
    assert h.hexdigest() == INFERENCE_DIGEST


def test_upward_steps_are_engine_transitions():
    """Each upward partial costs exactly what the engine's transition charges
    for the same cluster-layer of the mapping."""
    checked = 0
    for dag, layers, mapping in _feasible(_inference_graphs()):
        model, entries = BnComputationCost(dag, layers), []
        engine = {
            (e.cluster, l): cost
            for l in range(layers.l_max + 1)
            for e, cost in layer_transitions(model, mapping, entries, l, layers.members.get(l, ()))
        }
        for s in cluster_inference_schedule(dag, layers, mapping).steps:
            if s.phase == "backward":
                assert s.cost == engine[(s.cluster, s.layer)], (mapping, s)
                checked += 1
    assert checked > 2481


def _stream_runs():
    """fig1 and the first 40 criterion-4 graphs at three alphas, then one
    capped run on a 25-node graph."""
    graphs = [seven_node_example()] + [
        generate_dag(GeneratorSpec(n=3 + gi % 8, seed=1000 + gi, rewire=0.2, extra_arc_rate=0.4))
        for gi in range(40)
    ]
    for dag in graphs:
        for alpha in (0.0, 0.5, 1.0):
            yield dag, SearchConfig(alpha=alpha, seed=0)
    big = generate_dag(GeneratorSpec(n=25, layers=5, rewire=0.15, extra_arc_rate=0.8, seed=7))
    yield big, SearchConfig(alpha=0.5, seed=0, max_iterations=500)


def test_search_stream_digest():
    """The digest, and next to it the report counters summed over the runs."""
    h = hashlib.sha256()
    count = iterations = branches = solutions = 0
    for dag, config in _stream_runs():
        layers = assign_layers(dag)
        res = search(dag, layers, BnComputationCost(dag, layers), config)
        h.update(b"run")
        for r in res.solutions:
            h.update(repr((r.iteration, r.branch, repr(r.total_cost), sorted(r.mapping.items()))).encode())
            count += 1
        iterations += res.report.iterations_total
        branches += res.report.branches_created
        solutions += res.report.solutions_emitted
    assert count == solutions == 6016
    assert iterations == 51548
    assert branches == 22981
    assert h.hexdigest() == STREAM_DIGEST


def test_oracle_pricing_digest():
    """Every feasible mapping's total, in enumeration order, on fig1 and the
    four graphs the price_mappings benchmark prices."""
    graphs = [seven_node_example()] + [
        generate_dag(GeneratorSpec(n=n, states=(2, 3), seed=seed))
        for n, seed in ((16, 2001), (12, 2002), (13, 2004), (14, 2006))
    ]
    h = hashlib.sha256()
    count = 0
    for dag in graphs:
        layers = assign_layers(dag)
        for fm in enumerate_feasible(dag, layers, BnComputationCost(dag, layers)):
            h.update(repr((sorted(fm.u.items()), repr(fm.total_cost))).encode())
            count += 1
    assert count == 13616
    assert h.hexdigest() == ORACLE_DIGEST


def test_generator_digest():
    """The text of every generated graph the tests and the benchmark use:
    one-level specs (all nodes share a level, so stitching must flatten),
    the criterion-4 family, the four price_mappings graphs and the eight
    anytime_large graphs."""
    specs = (
        [GeneratorSpec(n=n, layers=1, seed=n) for n in range(2, 9)]
        + [
            GeneratorSpec(n=3 + gi % 8, seed=1000 + gi, rewire=0.2, extra_arc_rate=0.4)
            for gi in range(100)
        ]
        + [
            GeneratorSpec(n=n, states=(2, 3), seed=seed)
            for n, seed in ((16, 2001), (12, 2002), (13, 2004), (14, 2006))
        ]
        + [GeneratorSpec(n=n, seed=seed) for n in (50, 100) for seed in range(1, 5)]
    )
    h = hashlib.sha256()
    for spec in specs:
        h.update(format_dag_text(generate_dag(spec)).encode())
    assert h.hexdigest() == GENERATOR_DIGEST
