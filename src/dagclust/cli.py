"""Command-line surface.

Subcommands cover layer assignment, the cluster-mapping search, the exact
brute-force oracle, inference-cost evaluation, benchmark generation, and a
multi-run convergence comparison.  Every run is deterministic given the
input file, the flags, and the seed; a JSON manifest echoing that triple is
emitted alongside the results so any run can be replayed bit-for-bit.

Exit codes: 0 success, 2 input validation (also a file that cannot be read
or written or is not UTF-8, a manifest that is not a JSON object, a replayed input whose
digest differs from its manifest's, or a --reference mapping that leaves a
node unassigned), 3 enumeration cap, 4 config (also an empty --alphas, a
count or cap below 1, an operation weight that is not finite and positive, a
mapping that names a node twice or uses a cluster label below 1, an
infer-cost flag that the chosen strategy does not use, a manifest whose config
or weights is not a JSON object, or a replayed manifest that turns on an
option this version lacks).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .dag import (
    CapExceededError,
    Dag,
    ValidationError,
    _require_total,
    assign_layers,
    format_dag_text,
    load_dag,
    search_space_size,
)
from .costs import TOL, BnComputationCost
from .factors import (
    OpCostWeights,
    bucket_elimination_cost,
    eval_schedule,
    jointree_fixture_schedule,
)
from .generator import GeneratorSpec, degree_histogram, generate_dag
from .inference import cluster_inference_schedule
from .oracle import DEFAULT_CAP, co_membership, enumerate_feasible, optimal_set, similarity
from .search import ConfigError, SearchConfig, search

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _positive_int(text: str) -> int:
    """argparse type of a count or a cap: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"want a positive integer, got {text!r}")
    return value


def _fmt(value: float, weights: OpCostWeights, precise: bool) -> str:
    # Default weights make every cost a multiple of 0.2; one decimal suffices.
    if precise or not weights.is_default:
        return repr(value)
    return f"{value:.1f}"


def _load(path: str) -> Dag:
    try:
        return load_dag(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_VALIDATION) from None


def _weights(args) -> OpCostWeights:
    try:
        return OpCostWeights(add=args.w_add, mul=args.w_mul, div=args.w_div)
    except ValidationError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from None


def _parse_mapping(dag: Dag, text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"bad mapping item {part!r}; want name=cluster", EXIT_CONFIG)
        name, _, k = part.partition("=")
        x = dag.id_of(name.strip())
        try:
            label = int(k)
        except ValueError:
            raise CliError(f"bad cluster label in {part!r}", EXIT_CONFIG) from None
        if label < 1:
            raise CliError(f"cluster label below 1 in {part!r}", EXIT_CONFIG)
        if x in out:
            raise CliError(f"node {name.strip()} named twice in the mapping", EXIT_CONFIG)
        out[x] = label
    return out


def _mapping_str(dag: Dag, mapping: dict[int, int]) -> str:
    return ",".join(f"{dag.name(x)}={mapping[x]}" for x in sorted(mapping))


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_VALIDATION) from None


def _manifest(command: str, input_path: str, config: dict, manifest_path: str | None) -> dict:
    """The run manifest.  A relative input path is recorded relative to the
    manifest's own directory, so a replay finds the input from anywhere."""
    recorded = input_path
    if manifest_path and not os.path.isabs(input_path):
        recorded = os.path.relpath(input_path, os.path.dirname(os.path.abspath(manifest_path)))
    return {
        "artifact": "dagclust",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "input": recorded,
        "input_sha256": _sha256(input_path),
        "config": config,
    }


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_VALIDATION) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_layers(args, out) -> int:
    dag = _load(args.file)
    layers = assign_layers(dag)
    if args.format == "json":
        json.dump(
            {"layers": {dag.name(i): layers.of(i) for i in dag.node_ids()}},
            out,
            sort_keys=True,
        )
        out.write("\n")
    else:
        out.write("node\tlayer\n")
        for i in dag.node_ids():
            out.write(f"{dag.name(i)}\t{layers.of(i)}\n")
    return EXIT_OK


def _read_references(dag: Dag, path: str) -> list[dict[int, int]]:
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_VALIDATION) from None
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        mapping = _parse_mapping(dag, line)
        _require_total(dag, mapping)
        rows.append(mapping)
    if not rows:
        raise CliError("reference file holds no mappings", EXIT_VALIDATION)
    return rows


def cmd_search(args, out, manifest: dict | None = None) -> int:
    """Run one search.  A replay passes the manifest it ran from, which the
    JSON output then embeds unchanged."""
    dag = _load(args.file)
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers, _weights(args))
    config = SearchConfig(
        alpha=args.alpha,
        seed=args.seed,
        max_iterations=args.max_iters,
        stall_window=args.stall,
        prune_enabled=not args.no_prune,
    )
    references = _read_references(dag, args.reference) if args.reference else None
    # Co-membership matrices, built once for every row's similarity.
    references = references and [co_membership(r) for r in references]

    if manifest is None:
        manifest = _manifest(
            "search",
            args.file,
            {**dataclasses.asdict(config), "weights": dataclasses.asdict(_weights(args))},
            args.manifest,
        )
        if args.manifest:
            _write(args.manifest, json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    result = search(dag, layers, model, config)
    # The incumbent at each row: the best total emitted so far.
    incumbents = list(itertools.accumulate((r.total_cost for r in result.solutions), min))

    w = model.weights
    report = dataclasses.asdict(result.report)
    if args.format == "json":
        payload = {
            "manifest": manifest,
            "solutions": [
                {
                    "iteration": r.iteration,
                    "branch": r.branch,
                    "total_cost": r.total_cost,
                    "gmin": gmin,
                    "mapping": {dag.name(x): k for x, k in sorted(r.mapping.items())},
                    "optimal": r.optimal,
                    **({"similarity": similarity(co_membership(r.mapping), references)} if references else {}),
                }
                for r, gmin in zip(result.solutions, incumbents)
            ],
            "report": report,
        }
        json.dump(payload, out, sort_keys=True)
        out.write("\n")
    else:
        cols = ["iteration", "branch", "total_cost", "gmin", "mapping", "optimal"]
        if references is not None:
            cols.append("similarity")
        out.write("\t".join(cols) + "\n")
        for r, gmin in zip(result.solutions, incumbents):
            row = [
                str(r.iteration),
                str(r.branch),
                _fmt(r.total_cost, w, args.precise),
                _fmt(gmin, w, args.precise),
                _mapping_str(dag, r.mapping),
                "1" if r.optimal else "0",
            ]
            if references is not None:
                row.append(f"{similarity(co_membership(r.mapping), references):.4f}")
            out.write("\t".join(row) + "\n")
        for key, val in report.items():
            if isinstance(val, float):
                val = _fmt(val, w, args.precise)
            out.write(f"# report\t{key}={val}\n")
    return EXIT_OK


def cmd_oracle(args, out) -> int:
    dag = _load(args.file)
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers, _weights(args))
    if args.all:
        fms = enumerate_feasible(dag, layers, model, cap=args.cap)
        winners = sorted(fms, key=lambda f: (f.total_cost, f.signature))
        best = winners[0].total_cost if winners else float("inf")
        # Distinct partitions within TOL of the best, as optimal_set counts.
        count = len({f.signature for f in winners if f.total_cost - best <= TOL})
    else:
        best, winners = optimal_set(dag, layers, model, cap=args.cap)
        count = len(winners)
    w = model.weights
    if args.format == "json":
        json.dump(
            {
                "optimal_cost": best,
                "mappings": [
                    {
                        "mapping": {dag.name(x): k for x, k in sorted(fm.u.items())},
                        "cost": fm.total_cost,
                        "partition": list(fm.signature),
                    }
                    for fm in winners
                ],
            },
            out,
            sort_keys=True,
        )
        out.write("\n")
    else:
        out.write("mapping\tcost\tpartition\n")
        for fm in winners:
            part = ",".join(map(str, fm.signature))
            out.write(f"{_mapping_str(dag, fm.u)}\t{_fmt(fm.total_cost, w, args.precise)}\t{part}\n")
        out.write(f"# report\toptimal_cost={_fmt(best, w, args.precise)}\n")
        out.write(f"# report\toptimal_solution_count={count}\n")
    return EXIT_OK


def cmd_infer_cost(args, out) -> int:
    ignored = [
        flag
        for flag, strategy in (("--target", "be"), ("--order", "be"), ("--mapping", "clusters"))
        if getattr(args, flag[2:]) is not None and args.strategy != strategy
    ]
    if ignored:
        raise CliError(f"--strategy {args.strategy} does not use {', '.join(ignored)}", EXIT_CONFIG)
    dag = _load(args.file)
    layers = assign_layers(dag)
    weights = _weights(args)
    if args.strategy == "clusters":
        if not args.mapping:
            raise CliError("--strategy clusters requires --mapping", EXIT_CONFIG)
        mapping = _parse_mapping(dag, args.mapping)
        res = cluster_inference_schedule(dag, layers, mapping, weights)
        if args.format == "json":
            json.dump(
                {
                    "total": res.total,
                    "steps": [dataclasses.asdict(s) for s in res.steps],
                },
                out,
                sort_keys=True,
            )
            out.write("\n")
        else:
            out.write("phase\tcluster\tlayer\tcost\tlabel\n")
            for s in res.steps:
                out.write(
                    f"{s.phase}\t{s.cluster}\t{s.layer}\t{_fmt(s.cost, weights, args.precise)}\t{s.label}\n"
                )
            out.write(f"# report\ttotal={_fmt(res.total, weights, args.precise)}\n")
        return EXIT_OK
    if args.strategy == "be":
        target = dag.id_of(args.target) if args.target else dag.leaves[0]
        order = None
        if args.order:
            order = [dag.id_of(n.strip()) for n in args.order.split(",")]
        total, rows = bucket_elimination_cost(dag, layers, target, order, weights)
    else:
        total, rows = eval_schedule(jointree_fixture_schedule(dag), dag.states, weights)
    if args.format == "json":
        json.dump(
            {
                "total": total,
                "steps": [
                    {
                        "step_index": r.index,
                        "op": r.op,
                        "accumulator_id": r.acc,
                        "dims": sorted(dag.name(d) for d in r.dims),
                        "cost": r.cost,
                    }
                    for r in rows
                ],
            },
            out,
            sort_keys=True,
        )
        out.write("\n")
    else:
        out.write("step_index\top\taccumulator_id\tdims\tcost\n")
        for r in rows:
            dims = ",".join(dag.name(d) for d in sorted(r.dims))
            out.write(f"{r.index}\t{r.op}\t{r.acc}\t{dims}\t{_fmt(r.cost, weights, args.precise)}\n")
        out.write(f"# report\ttotal={_fmt(total, weights, args.precise)}\n")
    return EXIT_OK


def cmd_gen(args, out) -> int:
    try:
        lo, _, hi = args.states.partition("-")
        spec = GeneratorSpec(
            n=args.n,
            layers=args.layers,
            rewire=args.rewire,
            max_in=args.max_in,
            max_out=args.max_out,
            extra_arc_rate=args.extra_arcs,
            states=(int(lo), int(hi or lo)),
            seed=args.seed,
        )
        dag = generate_dag(spec)
    except (ValueError, ValidationError) as exc:
        raise CliError(str(exc), EXIT_CONFIG) from None
    text = format_dag_text(dag)
    if args.out:
        _write(args.out, text)
    else:
        out.write(text)
    ins, outs = degree_histogram(dag)
    layers = assign_layers(dag)
    out.write(f"# nodes={dag.n} arcs={len(dag.arcs)} layers={layers.l_max + 1}\n")
    out.write(f"# search_space={search_space_size(dag, layers)}\n")
    out.write("# in-degree histogram: " + " ".join(f"{d}:{c}" for d, c in ins.items()) + "\n")
    out.write("# out-degree histogram: " + " ".join(f"{d}:{c}" for d, c in outs.items()) + "\n")
    return EXIT_OK


def cmd_compare(args, out) -> int:
    dag = _load(args.file)
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers, _weights(args))
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
        if not alphas:
            raise CliError("--alphas: no alpha given", EXIT_CONFIG)
        configs = [
            SearchConfig(alpha=alpha, seed=seed, stall_window=args.stall)
            for seed in range(args.seeds)
            for alpha in alphas
        ]
    except ValueError as exc:  # ConfigError is a ValueError
        raise CliError(f"--alphas/--stall: {exc}", EXIT_CONFIG) from None
    oracle_best = None
    oracle_refs = None
    try:
        oracle_best, winners = optimal_set(dag, layers, model, cap=args.cap)
        oracle_refs = [co_membership(fm.u) for fm in winners]
    except CapExceededError:
        pass

    h_all = model.heuristic(dag.node_ids(), [])

    def one(cfg: SearchConfig):
        res = search(dag, layers, model, cfg)
        first_cost = res.solutions[0].total_cost if res.solutions else None
        first_iter = res.solutions[0].iteration if res.solutions else None
        sim = None
        if oracle_refs and res.solutions:
            sim = similarity(co_membership(res.solutions[-1].mapping), oracle_refs)
        return {
            "seed": cfg.seed,
            "alpha": cfg.alpha,
            "optimal_cost": res.report.optimal_cost,
            "iterations_total": res.report.iterations_total,
            "iteration_of_first_optimal": res.report.iteration_of_first_optimal,
            "first_found_cost": first_cost,
            "first_found_iteration": first_iter,
            "first_vs_naive": (first_cost / h_all) if first_cost else None,
            "matches_oracle": (
                None
                if oracle_best is None
                else abs(res.report.optimal_cost - oracle_best) <= TOL
            ),
            "final_similarity": sim,
        }

    if args.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(one, configs))
    else:
        rows = [one(cfg) for cfg in configs]
    rows.sort(key=lambda r: (r["seed"], r["alpha"]))

    if args.format == "json":
        json.dump({"naive_cost": h_all, "oracle_cost": oracle_best, "runs": rows}, out, sort_keys=True)
        out.write("\n")
    else:
        cols = list(rows[0].keys()) if rows else []
        out.write("\t".join(cols) + "\n")
        for r in rows:
            out.write("\t".join("" if r[c] is None else str(r[c]) for c in cols) + "\n")
        out.write(f"# report\tnaive_cost={h_all}\n")
        out.write(f"# report\toracle_cost={oracle_best}\n")
    return EXIT_OK


def cmd_replay(args, out) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read manifest: {exc}", EXIT_VALIDATION) from None
    if not isinstance(manifest, dict):
        raise CliError("cannot read manifest: not a JSON object", EXIT_VALIDATION)
    if manifest.get("command") != "search":
        raise CliError("only search manifests can be replayed", EXIT_CONFIG)
    cfg = manifest.get("config", {})
    weights = cfg.get("weights", {}) if isinstance(cfg, dict) else None
    if not isinstance(weights, dict):
        raise CliError("manifest config and its weights must be JSON objects", EXIT_CONFIG)
    missing = [
        key for key, held in (("input", manifest), ("alpha", cfg), ("seed", cfg)) if key not in held
    ]
    if missing:
        raise CliError(f"manifest lacks {', '.join(missing)}", EXIT_CONFIG)
    if not isinstance(manifest["input"], str):
        raise CliError("manifest input must be a path string", EXIT_CONFIG)
    # A key set that the flags below cannot carry (such as the removed
    # root-split filter or leaf_init) would make the replay a different search.
    known = {"alpha", "seed", "max_iterations", "stall_window", "prune_enabled", "weights"}
    unknown = sorted(key for key, val in cfg.items() if key not in known and val)
    if unknown:
        raise CliError(
            f"manifest enables options this version does not have: {', '.join(unknown)}",
            EXIT_CONFIG,
        )
    input_path = os.path.join(os.path.dirname(os.path.abspath(args.manifest)), manifest["input"])
    if _sha256(input_path) != manifest.get("input_sha256"):
        raise CliError(
            f"{input_path} does not match the manifest's input_sha256",
            EXIT_VALIDATION,
        )
    argv = [
        "search",
        input_path,
        "--alpha",
        str(cfg["alpha"]),
        "--seed",
        str(cfg["seed"]),
        "--w-add",
        str(weights.get("add", 0.6)),
        "--w-mul",
        str(weights.get("mul", 1.0)),
        "--w-div",
        str(weights.get("div", 3.0)),
        "--format",
        args.format,
    ]
    if cfg.get("max_iterations") is not None:
        argv += ["--max-iters", str(cfg["max_iterations"])]
    if cfg.get("stall_window") is not None:
        argv += ["--stall", str(cfg["stall_window"])]
    if not cfg.get("prune_enabled", True):
        argv.append("--no-prune")
    try:
        search_args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return cmd_search(search_args, out, manifest)


# ---------------------------------------------------------------------------


def _add_common(p: _Parser) -> None:
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--w-add", type=float, default=0.6)
    p.add_argument("--w-mul", type=float, default=1.0)
    p.add_argument("--w-div", type=float, default=3.0)


def build_parser() -> _Parser:
    top = _Parser(prog="dagclust", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("layers", parents=[], help="print the layer of every node")
    p.add_argument("file")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_layers)

    p = sub.add_parser("search", help="run the cluster-mapping search")
    p.add_argument("file")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--stall", type=int, default=None, help="stop after this many iterations without improvement")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--reference", default=None, help="file of mappings to score similarity against")
    p.add_argument("--manifest", default=None, help="write the run manifest to this path")
    p.add_argument("--precise", action="store_true", help="full float precision")
    _add_common(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("oracle", help="exact optimal mappings by brute force")
    p.add_argument("file")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument("--all", action="store_true", help="dump every feasible mapping, not just the optima")
    p.add_argument("--precise", action="store_true", help="full float precision")
    _add_common(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("infer-cost", help="inference-cost schedules and totals")
    p.add_argument("file")
    p.add_argument("--strategy", choices=("be", "jointree-fixture", "clusters"), default="be")
    p.add_argument("--target", default=None, help="target node for bucket elimination")
    p.add_argument("--order", default=None, help="comma-joined elimination order")
    p.add_argument("--mapping", default=None, help="name=cluster pairs for --strategy clusters")
    p.add_argument("--precise", action="store_true", help="full float precision")
    _add_common(p)
    p.set_defaults(fn=cmd_infer_cost)

    p = sub.add_parser("gen", help="generate a benchmark DAG")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layers", type=int, default=0)
    p.add_argument("--rewire", type=float, default=0.1)
    p.add_argument("--max-in", type=int, default=7)
    p.add_argument("--max-out", type=int, default=9)
    p.add_argument("--extra-arcs", type=float, default=0.5)
    p.add_argument("--states", default="2", help="state-count range, e.g. 2 or 2-4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the DAG file here instead of stdout")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("compare", help="convergence across seeds and alphas")
    p.add_argument("file")
    p.add_argument("--seeds", type=_positive_int, default=5)
    p.add_argument("--alphas", default="0,0.5,1")
    p.add_argument("--stall", type=int, default=None)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("replay", help="re-run a search from its manifest")
    p.add_argument("manifest")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=cmd_replay)

    return top


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Library exceptions become exit codes here; only _weights, cmd_gen and
    # cmd_compare map their own.
    try:
        return args.fn(args, out)
    except CliError as exc:
        code, error = exc.code, exc
    except ValidationError as exc:
        code, error = EXIT_VALIDATION, exc
    except CapExceededError as exc:
        code, error = EXIT_CAP, exc
    except ConfigError as exc:
        code, error = EXIT_CONFIG, exc
    print(f"dagclust: error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
