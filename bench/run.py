"""dagclust benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload verify_small --seed 0 --seconds 45 --trace 0

Runs the package from ``src/`` of the checkout this file sits in.  With
``--trace 0`` it prints every end-to-end metric of BENCHMARK.json; with
``--trace 1`` every per-layer metric, timed by wrapping calls into the
package's public functions (see ``tracing.py``).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--smoke`` shrinks every workload to a few tiny graphs; ``--reference``
points at the recorded outputs the default seed is checked against.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify_small", "anytime_large", "price_mappings")
DEFAULT_SEED = 0
SETUP_REPS = 5
CLI_REPS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    ap.add_argument("--out-dir", default=os.path.join(HERE, "out"), help="where span files go")
    return ap.parse_args(argv)


def import_package() -> float:
    """Import dagclust from this checkout's source tree; return the seconds."""
    if not os.path.isfile(os.path.join(SRC, "dagclust", "__init__.py")):
        raise SystemExit(f"benchmark: no dagclust sources under {SRC}")
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import dagclust

    elapsed = time.perf_counter() - t
    if os.path.dirname(os.path.dirname(os.path.abspath(dagclust.__file__))) != SRC:
        raise SystemExit(f"benchmark: imported dagclust from {dagclust.__file__}, not {SRC}")
    return elapsed


def pct(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: a beta-weighted mean
    of all order statistics.  The calls of a round come in clusters (the
    same graph at three alphas), so the one or two order statistics a plain
    percentile reads often straddle a gap; this estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule inside each 1/n slice of [0, 1]
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        mids = ((i * steps + k + 0.5) * h for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) for x in mids))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def geomean(values: list[float]) -> float:
    """Geometric mean; 0 when there is nothing to average (no solutions)."""
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def load_reference(path: str, workload: str, size: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(size)


def timed_setup(wl, workload, seed, size, reps):
    """Build the inputs ``reps`` times; return the last build, the median
    seconds one build took and the speed probe taken between builds."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    times = []
    for _ in range(reps):
        probe.sample()
        t = time.perf_counter()
        insts = wl.build(wl.Api(), workload, seed, size)
        times.append(time.perf_counter() - t)
    probe.sample()
    return insts, statistics.median(times), probe


def run_rounds(wl, workload, insts, seed, size, seconds, reference):
    api = wl.Api()
    rounds = []
    t0 = time.perf_counter()
    while True:
        # Every round starts without the last one's garbage, so the peak
        # memory of a run does not depend on how many rounds it made.
        gc.collect()
        start = time.perf_counter()
        rnd = wl.run_round(workload, api, insts, seed, size)
        wl.check_round(workload, rnd, reference)
        rnd.outputs.clear()
        rounds.append(rnd)
        end = time.perf_counter()
        if end - t0 + (end - start) > seconds:
            return rounds


def end_to_end(rounds, setup_s, setup_scale):
    """Every end-to-end metric, times in reference-speed seconds."""
    op = [x for r in rounds for x in r.op_s]
    first = [x for r in rounds for x in r.first_s]
    metrics = {
        "setup_s": (setup_s * setup_scale, "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "solve_s.p50": (pct(op, 50), "s"),
        "solve_s.p90": (pct(op, 90), "s"),
        "first_solution_s.p50": (pct(first, 50), "s"),
        "iters_per_s": (sum(r.iterations for r in rounds) / sum(r.engine_s for r in rounds), "1/s"),
        "mappings_per_s": (sum(r.mappings for r in rounds) / sum(r.wall_s for r in rounds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "rounds": len(rounds),
        "measured wall_s": statistics.median(r.measured_wall_s for r in rounds),
        "solve_s.samples": len(op),
        "first_solution_s.samples": len(first),
        "best_cost_ratio": geomean(rounds[0].best_ratios),
    }
    return metrics, info


def search_peak_mb(wl, workload, traced, seed, size) -> float:
    """tracemalloc peak of the round's largest search (most branches
    created), run once more; 0 on a workload with no searches.  Only one
    search is re-run because tracemalloc slows the engine about sixfold."""
    import tracemalloc

    if not traced.reports:
        return 0.0
    big = max(range(len(traced.reports)), key=lambda i: traced.reports[i].branches_created)
    api = wl.Api()
    tracemalloc.start()
    try:
        if workload == "anytime_large":
            inst, _records = traced.outputs[big]
            list(api.stream_search(inst.dag, inst.layers, inst.plain, wl.anytime_config(size)))
        else:
            inst, alpha, *_ = traced.outputs[big]
            api.search(inst.dag, inst.layers, inst.plain, wl.SearchConfig(alpha=alpha, seed=seed))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def cli_compare_s(wl, seed, size, out_dir) -> dict[str, float]:
    """Time ``dagclust compare`` in process on one verify_small graph."""
    from dagclust.cli import main
    from dagclust.dag import format_dag_text
    from speed import SpeedProbe

    inst = wl.build(wl.Api(), "verify_small", seed, size)[wl.CLI_GRAPH[size]]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"compare-seed{seed}.dag")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_dag_text(inst.dag))
    probe = SpeedProbe()
    times = {"1": [], "2": []}
    for _ in range(CLI_REPS):
        for jobs in times:
            probe.sample()
            t = time.perf_counter()
            code = main(["compare", path, "--jobs", jobs], out=io.StringIO())
            times[jobs].append(time.perf_counter() - t)
            if code != 0:
                raise RuntimeError(f"dagclust compare --jobs {jobs} exited {code}")
    probe.sample()
    return {f"cli.compare_s.jobs{j}": statistics.median(v) * probe.scale() for j, v in times.items()}


def per_layer(wl, args, size, reference):
    """One plain round, then the same round traced; per-layer metrics from
    the traced one, times in reference-speed seconds."""
    from speed import SpeedProbe
    from tracing import SpanRecorder

    workload, seed = args.workload, args.seed
    insts, _, _ = timed_setup(wl, workload, seed, size, 1)
    rec = SpanRecorder()
    probe = SpeedProbe()
    probe.sample()
    traced_insts = wl.build(wl.Api(rec), workload, seed, size)
    probe.sample()
    setup = {k: v * probe.scale() for k, v in rec.self_s.items()}
    rec.reset_totals()

    plain = wl.run_round(workload, wl.Api(), insts, seed, size)
    traced = wl.run_round(workload, wl.Api(rec), traced_insts, seed, size)
    rounds = [plain, traced]
    for rnd in rounds:
        wl.check_round(workload, rnd, reference)

    n = rec.calls
    scale = traced.wall_s / traced.measured_wall_s
    s = {k: v * scale for k, v in rec.self_s.items()}
    wall = traced.wall_s
    reports = traced.reports
    created = sum(r.branches_created for r in reports)
    m = {
        "search.self_s": (s.get("search", 0.0) + s.get("stream_search", 0.0), "s"),
        "search.calls": (len(reports), "count"),
        "search.iterations": (sum(r.iterations_total for r in reports), "count"),
        "search.branches_created": (created, "count"),
        "search.solutions": (sum(r.solutions_emitted for r in reports), "count"),
        "search.complete_ratio": (sum(r.branches_complete for r in reports) / created if created else 0.0, "ratio"),
        "search.best_cost_ratio": (geomean(traced.best_ratios), "ratio"),
        "search.peak_mb": (search_peak_mb(wl, workload, traced, seed, size), "MB"),
        "costs.transition.calls": (n.get("costs.transition", 0), "count"),
        "costs.transition_s": (s.get("costs.transition", 0.0), "s"),
        "costs.heuristic.calls": (n.get("costs.heuristic", 0), "count"),
        "costs.heuristic_s": (s.get("costs.heuristic", 0.0), "s"),
        "costs.evaluate_mapping_s": (s.get("costs.evaluate_mapping", 0.0), "s"),
        "oracle.optimal_set_s": (s.get("oracle.optimal_set", 0.0), "s"),
        "oracle.iter_feasible_s": (s.get("oracle.iter_feasible", 0.0), "s"),
        "oracle.feasible_mappings": (n.get("costs.evaluate_mapping", 0), "count"),
        "inference.calls": (n.get("inference.cluster_inference_cost", 0), "count"),
        "inference.cluster_cost_s": (s.get("inference.cluster_inference_cost", 0.0), "s"),
        "generator.generate_s": (setup.get("generator.generate_dag", 0.0), "s"),
        "dag.assign_layers_s": (setup.get("dag.assign_layers", 0.0), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - plain.wall_s, "s"),
        "trace.accounted_share": (sum(s.values()) / wall, "ratio"),
        "trace.spans": (len(rec.start), "count"),
    }
    m.update({k: (v, "s") for k, v in cli_compare_s(wl, seed, size, args.out_dir).items()})
    rec.write(os.path.join(args.out_dir, f"spans-{workload}-seed{seed}"))
    return m, rounds, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_package()
    sys.path.insert(0, HERE)
    import workloads as wl

    size = "smoke" if args.smoke else "full"
    reference = load_reference(args.reference, args.workload, size, args.seed)
    if args.trace:
        metrics, rounds, info = per_layer(wl, args, size, reference)
    else:
        insts, build_s, probe = timed_setup(wl, args.workload, args.seed, size, SETUP_REPS)
        rounds = run_rounds(wl, args.workload, insts, args.seed, size, args.seconds, reference)
        metrics, info = end_to_end(rounds, import_s + build_s, probe.scale())

    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    info["failed_share"] = len(failures) / attempted
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}\t{name}\t{value:.6g}\t{unit}")
    for name, value in info.items():
        print(f"{args.workload}\t# {name}\t{value}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
