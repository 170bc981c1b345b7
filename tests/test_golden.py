"""Golden digests of inference schedules and search streams.

The digests pin every float the cost calculus produces, bit for bit: a
refactor of the product step or of the search must leave them unchanged.
A change that alters a cost or a stream on purpose records new digests and
says why.
"""

import hashlib

from dagclust import BnComputationCost, SearchConfig, assign_layers, search, seven_node_example
from dagclust.costs import evaluate_mapping
from dagclust.generator import GeneratorSpec, generate_dag
from dagclust.inference import cluster_inference_schedule
from dagclust.oracle import iter_feasible

INFERENCE_DIGEST = "16a2319ddc6063cee9fc4b355f5d2269ea566be94c2f60cc74323d38781154d0"
STREAM_DIGEST = "d006942c61c065252fa90dc5ef6d957a444a305b210de86a147635a2b34eac1f"


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
        model = BnComputationCost(dag, layers)
        engine = {(k, l): cost for k, l, _, cost in evaluate_mapping(dag, layers, model, mapping).transitions}
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
    h = hashlib.sha256()
    count = 0
    for dag, config in _stream_runs():
        layers = assign_layers(dag)
        res = search(dag, layers, BnComputationCost(dag, layers), config)
        h.update(b"run")
        for r in res.solutions:
            h.update(repr((r.iteration, r.branch, repr(r.total_cost), sorted(r.mapping.items()))).encode())
            count += 1
    assert count == 6018
    assert h.hexdigest() == STREAM_DIGEST
