"""Golden digests of inference schedules, search streams and CLI output.

The digests pin every float the cost calculus produces, bit for bit: a
refactor of the product step or of the search must leave them unchanged.
A change that alters a cost or a stream on purpose records new digests and
says why.
"""

import hashlib
import io
import json
import os

from dagclust import BnComputationCost, SearchConfig, assign_layers, search, seven_node_example
from dagclust.cli import main
from dagclust.costs import layer_transitions
from dagclust.dag import format_dag_text
from dagclust.generator import GeneratorSpec, generate_dag
from dagclust.inference import cluster_inference_schedule
from dagclust.oracle import enumerate_feasible, iter_feasible

INFERENCE_DIGEST = "16a2319ddc6063cee9fc4b355f5d2269ea566be94c2f60cc74323d38781154d0"
STREAM_DIGEST = "c305b411e3962960b530540559de2d504558ee30f588eac0ff22ba0dabea8de6"
ORACLE_DIGEST = "a17e47f5081bd49764b753dc22d6f2dae6fd0cd05decc842f498ba3f62bb36e2"
GENERATOR_DIGEST = "ceb58afa9ff144282db10d90f3176ff4739c904a7b4f471d67aadd4851db5e85"
CLI_DIGEST = "fde4ce7e516fc2a1bc492d9e485a9743a98f773fc4921b7d0a28475492fb14b6"


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


FIG1_MAPPING = "A=1,F=1,D=2,G=2,E=3,B=6,C=7"


def _cli_corpus(tmp):
    """Commands over every subcommand, both formats, ``--precise``,
    non-default weights and the exit-2/3/4 paths.  Files they read are made
    in ``tmp`` first; a replayed manifest here records neither ``--precise``
    nor ``--reference``."""
    fig1 = os.path.join(os.path.dirname(__file__), "..", "data", "fig1.dag")
    with open(fig1, encoding="utf-8") as fh:
        text = fh.read()
    g, edited = os.path.join(tmp, "g.dag"), os.path.join(tmp, "edited.dag")
    for path, body in (
        (g, text),
        (edited, text),
        (os.path.join(tmp, "empty.dag"), ""),
        (os.path.join(tmp, "ref.txt"), "A=2,B=6,C=7,D=2,E=3,F=1,G=2  # the paper's optimum\n"),
        (os.path.join(tmp, "partial.txt"), "A=2,B=6,C=7,D=2,E=3,F=1,G=2\nA=1,B=2\n"),
    ):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
    with open(os.path.join(tmp, "bad.txt"), "wb") as fh:
        fh.write(b"node A\n\xff\xfe\n")
    with open(g, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    for name, config in (
        ("alpha2.json", {"alpha": 2, "seed": 0}),
        ("leaf.json", {"alpha": 0.5, "seed": 0, "leaf_init": {"6": 1}}),
        ("noseed.json", {"alpha": 0.5}),
        ("old.json", {"alpha": 0.25, "seed": 3, "weights": {"add": 0.5}}),
    ):
        manifest = {"command": "search", "input": "g.dag", "input_sha256": digest, "config": config}
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)

    def t(name):
        return os.path.join(tmp, name)

    clusters = ("--strategy", "clusters", "--mapping", FIG1_MAPPING)
    yield ("layers", g)
    yield ("layers", g, "--format", "json")
    yield ("search", g, "--seed", "1")
    yield ("search", g, "--seed", "2", "--format", "json")
    yield ("search", g, "--seed", "2", "--precise")
    yield ("search", g, "--seed", "2", "--precise", "--format", "json")
    yield ("search", g, "--alpha", "0.3", "--w-add", "0.5", "--w-mul", "1.25", "--w-div", "2")
    yield ("search", g, "--no-prune", "--max-iters", "60")
    yield ("search", g, "--stall", "5", "--format", "json")
    yield ("search", g, "--reference", t("ref.txt"))
    yield ("search", g, "--reference", t("ref.txt"), "--precise", "--format", "json")
    yield ("search", g, "--max-iters", "0", "--format", "json")
    yield ("search", g, "--max-iters", "0")
    yield ("search", g, "--seed", "7", "--alpha", "0.3", "--manifest", t("run.json"))
    yield ("replay", t("run.json"))
    yield ("replay", t("run.json"), "--format", "json")
    yield ("replay", t("old.json"))
    yield ("search", edited, "--manifest", t("edited.json"), "--format", "json")
    yield ("oracle", g)
    yield ("oracle", g, "--format", "json")
    yield ("oracle", g, "--precise")
    yield ("oracle", g, "--all")
    yield ("oracle", g, "--all", "--format", "json", "--w-mul", "2")
    yield ("oracle", g, "--w-div", "1.5")
    yield ("infer-cost", g)
    yield ("infer-cost", g, "--format", "json", "--target", "F", "--order", "G,E,D,C,B,A")
    yield ("infer-cost", g, "--strategy", "jointree-fixture", "--w-add", "0.125")
    yield ("infer-cost", g, "--strategy", "jointree-fixture", "--format", "json", "--precise")
    yield ("infer-cost", g, *clusters)
    yield ("infer-cost", g, *clusters, "--format", "json")
    yield ("infer-cost", g, *clusters, "--w-div", "2", "--precise")
    yield ("gen", "--n", "12", "--seed", "3", "--out", t("g12.dag"))
    yield ("gen", "--n", "8", "--seed", "2", "--states", "2-3", "--layers", "3")
    yield ("gen", "--n", "6")
    yield ("infer-cost", t("g12.dag"))
    yield ("infer-cost", t("g12.dag"), "--format", "json")
    yield ("compare", g, "--seeds", "2", "--alphas", "0,1")
    yield ("compare", g, "--seeds", "2", "--alphas", "0.5", "--jobs", "2", "--format", "json")
    yield ("compare", g, "--seeds", "1", "--alphas", "1", "--cap", "10", "--stall", "50")
    # exit 2
    yield ("layers", t("missing.dag"))
    yield ("layers", t("empty.dag"))
    yield ("layers", t("bad.txt"))
    yield ("search", g, "--reference", t("missing.txt"))
    yield ("search", g, "--reference", t("bad.txt"))
    yield ("search", g, "--reference", t("partial.txt"), "--manifest", t("partial.json"))
    yield ("search", g, "--manifest", t("missing/run.json"))
    yield ("gen", "--n", "5", "--out", t("missing/g.dag"))
    yield ("replay", t("bad.txt"))
    yield ("replay", t("missing.json"))
    with open(edited, "a", encoding="utf-8") as fh:
        fh.write("edge B F\n")
    yield ("replay", t("edited.json"))
    yield ("infer-cost", g, "--strategy", "clusters", "--mapping", "Z=1")
    # exit 3
    yield ("oracle", g, "--cap", "10")
    yield ("oracle", g, "--all", "--cap", "10")
    # exit 4
    yield ("replay", t("alpha2.json"))
    yield ("replay", t("leaf.json"))
    yield ("replay", t("noseed.json"))
    yield ("search", g, "--alpha", "2")
    yield ("search", g, "--max-iters", "-3")
    yield ("search", g, "--alpha", "nope")
    yield ("search", g, "--w-add", "nan")
    yield ("search", g, "--gmin-inf")
    yield ("compare", g, "--alphas", ",")
    yield ("compare", g, "--seeds", "0")
    yield ("infer-cost", g, "--strategy", "clusters")
    yield ("infer-cost", g, "--strategy", "jointree-fixture", "--target", "F")
    yield ("infer-cost", g, "--strategy", "clusters", "--mapping", "A=0")
    yield ("infer-cost", g, "--w-add", "0")
    yield ("gen", "--n", "5", "--max-in", "0")
    yield ("gen",)
    yield ()


def test_cli_output_digest(tmp_path, capsys):
    """Exit code, stdout and stderr of every corpus command.  Temporary
    paths are masked, and so is the manifest a JSON search embeds (it holds
    ``created_utc``)."""
    tmp = str(tmp_path)
    h = hashlib.sha256()
    count = 0
    capsys.readouterr()
    for argv in _cli_corpus(tmp):
        buf = io.StringIO()
        code = main(list(argv), out=buf)
        out, err = buf.getvalue(), capsys.readouterr().err
        if out.startswith('{"manifest": '):
            payload = json.loads(out)
            payload["manifest"] = "<masked>"
            out = json.dumps(payload, sort_keys=True) + "\n"
        h.update(repr((code, out.replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>"))).encode())
        count += 1
    assert count == 70
    assert h.hexdigest() == CLI_DIGEST
