"""Command-line surface.

Subcommands cover layer assignment, the cluster-mapping search, the exact
brute-force oracle, inference-cost evaluation, benchmark generation, and a
multi-run convergence comparison.  Every run is deterministic given the
input file, the flags, and the seed; a JSON manifest echoing that triple,
and any --reference file, is emitted alongside the results so any run can
be replayed bit-for-bit.

Exit codes: 0 success, 1 stdout closed early (as by a pipe into head), 2
input validation (also a file that cannot be read or written or is not
UTF-8, a manifest that is not a JSON object, a replayed input or reference
file whose digest differs from its manifest's, or a --reference mapping
that leaves a node unassigned), 3 enumeration cap, 4 config (also an empty --alphas, a
count or cap below 1, an operation weight that is not finite and positive, a
mapping that names a node twice or uses a cluster label below 1, an
infer-cost flag that the chosen strategy does not use, a manifest whose config
or weights is not a JSON object, a recorded path that is not a string, or
a replayed manifest that turns on an option this version lacks).
"""

from __future__ import annotations

import argparse
import contextlib
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
    parse_dag_text,
    search_space_size,
)
from .costs import TOL, BnComputationCost
from .factors import DEFAULT_WEIGHTS, OpCostWeights, bucket_elimination_cost, jointree_fixture_cost
from .generator import GeneratorSpec, degree_histogram, generate_dag
from .inference import cluster_inference_schedule
from .oracle import DEFAULT_CAP, co_membership, enumerate_feasible, optimal_set, similarity
from .search import ConfigError, SearchConfig, search

EXIT_OK = 0
EXIT_PIPE = 1
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


def _formatter(args, weights: OpCostWeights):
    """The cost formatter of one command.  Default weights make every cost a
    multiple of 0.2, so one decimal suffices unless ``--precise`` is given."""
    if args.precise or weights != DEFAULT_WEIGHTS:
        return repr
    return "{:.1f}".format


@contextlib.contextmanager
def _open(path: str, mode: str = "r", name: str | None = None):
    """Open ``path`` as UTF-8 text, or as bytes in a "b" mode.  A failure to
    open, read, write or decode it (JSON included) exits 2, naming ``name``
    or else the path."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        verb = "write" if "w" in mode else "read"
        raise CliError(f"cannot {verb} {name or path}: {exc}", EXIT_VALIDATION) from None


def _load(path: str) -> Dag:
    with _open(path) as fh:
        return parse_dag_text(fh.read())


def _sha256(path: str) -> str:
    with _open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _print(args, out, payload: dict, header: list[str], rows, report) -> None:
    """Print a command's result: ``payload`` as one JSON line, or a TSV
    ``header``, its ``rows`` and a ``# report`` line per ``(key, value)``."""
    if args.format == "json":
        json.dump(payload, out, sort_keys=True)
        out.write("\n")
        return
    for row in (header, *rows):
        out.write("\t".join(map(str, row)) + "\n")
    for key, val in report:
        out.write(f"# report\t{key}={val}\n")


def _given(args, cls) -> dict:
    """The fields of the dataclass ``cls`` that the command line set.  A
    flag left unset is absent, so ``cls`` fills in its own default."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if hasattr(args, f.name)}


def _weights(args) -> OpCostWeights:
    try:
        return OpCostWeights(**_given(args, OpCostWeights))
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


# Each file a search reads: its manifest key and the attribute holding its path.
_SEARCH_FILES = (("input", "file"), ("reference", "reference"))


def _manifest(args, config: dict) -> dict:
    """The run manifest, also written to ``--manifest`` if given.  Each file
    the search reads is recorded with its sha256; a relative path is recorded
    relative to the manifest's own directory, so a replay finds it from
    anywhere.  ``precise`` is recorded only when set."""
    manifest = {
        "artifact": "dagclust",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "command": "search",
        "config": config,
        **({"precise": True} if args.precise else {}),
    }
    for key, attr in _SEARCH_FILES:
        path = getattr(args, attr)
        if not path:
            continue
        manifest[key] = path
        if args.manifest and not os.path.isabs(path):
            manifest[key] = os.path.relpath(path, os.path.dirname(os.path.abspath(args.manifest)))
        manifest[f"{key}_sha256"] = _sha256(path)
    if args.manifest:
        with _open(args.manifest, "w") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# subcommands


def cmd_layers(args, out) -> None:
    dag = _load(args.file)
    layers = assign_layers(dag)
    rows = [(dag.name(i), layers.of(i)) for i in dag.node_ids()]
    _print(args, out, {"layers": dict(rows)}, ["node", "layer"], rows, ())


def _read_references(dag: Dag, path: str) -> list[dict[int, int]]:
    rows = []
    with _open(path) as fh:
        lines = fh.readlines()
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


def cmd_search(args, out, manifest: dict | None = None) -> None:
    """Run one search.  A replay passes the manifest it ran from, which the
    JSON output then embeds unchanged."""
    dag = _load(args.file)
    layers = assign_layers(dag)
    weights = _weights(args)
    config = SearchConfig(**_given(args, SearchConfig))
    references = _read_references(dag, args.reference) if args.reference else None
    # Co-membership matrices, built once for every row's similarity.
    references = references and [co_membership(r) for r in references]
    if manifest is None:
        manifest = _manifest(args, {**dataclasses.asdict(config), "weights": dataclasses.asdict(weights)})

    result = search(dag, layers, BnComputationCost(dag, layers, weights), config)
    fmt = _formatter(args, weights)
    # The incumbent at each row: the best total emitted so far.
    incumbents = itertools.accumulate((r.total_cost for r in result.solutions), min)
    solutions = [
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
    ]
    rows = (
        [r.iteration, r.branch, fmt(r.total_cost), fmt(s["gmin"]), _mapping_str(dag, r.mapping), int(r.optimal)]
        + ([f"{s['similarity']:.4f}"] if references else [])
        for r, s in zip(result.solutions, solutions)
    )
    header = ["iteration", "branch", "total_cost", "gmin", "mapping", "optimal"] + ["similarity"] * bool(references)
    report = dataclasses.asdict(result.report)
    _print(
        args,
        out,
        {"manifest": manifest, "solutions": solutions, "report": report},
        header,
        rows,
        ((key, fmt(val) if isinstance(val, float) else val) for key, val in report.items()),
    )


def cmd_oracle(args, out) -> None:
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
    fmt = _formatter(args, model.weights)
    mappings = [
        {
            "mapping": {dag.name(x): k for x, k in sorted(fm.u.items())},
            "cost": fm.total_cost,
            "partition": list(fm.signature),
        }
        for fm in winners
    ]
    _print(
        args,
        out,
        {"optimal_cost": best, "mappings": mappings},
        ["mapping", "cost", "partition"],
        ([_mapping_str(dag, fm.u), fmt(fm.total_cost), ",".join(map(str, fm.signature))] for fm in winners),
        [("optimal_cost", fmt(best)), ("optimal_solution_count", count)],
    )


def cmd_infer_cost(args, out) -> None:
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
    fmt = _formatter(args, weights)
    if args.strategy == "clusters":
        if not args.mapping:
            raise CliError("--strategy clusters requires --mapping", EXIT_CONFIG)
        res = cluster_inference_schedule(dag, layers, _parse_mapping(dag, args.mapping), weights)
        total, steps = res.total, [dataclasses.asdict(s) for s in res.steps]
        header = ["phase", "cluster", "layer", "cost", "label"]
        rows = ([s.phase, s.cluster, s.layer, fmt(s.cost), s.label] for s in res.steps)
    else:
        if args.strategy == "be":
            target = dag.id_of(args.target) if args.target else dag.leaves[0]
            order = [dag.id_of(n.strip()) for n in args.order.split(",")] if args.order else None
            total, ops = bucket_elimination_cost(dag, layers, target, order, weights)
        else:
            total, ops = jointree_fixture_cost(dag, weights)
        steps = [
            {
                "step_index": r.index,
                "op": r.op,
                "accumulator_id": r.acc,
                "dims": sorted(dag.name(d) for d in r.dims),
                "cost": r.cost,
            }
            for r in ops
        ]
        header = ["step_index", "op", "accumulator_id", "dims", "cost"]
        rows = ([r.index, r.op, r.acc, ",".join(dag.name(d) for d in sorted(r.dims)), fmt(r.cost)] for r in ops)
    _print(args, out, {"total": total, "steps": steps}, header, rows, [("total", fmt(total))])


def cmd_gen(args, out) -> None:
    given = _given(args, GeneratorSpec)
    try:
        if "states" in given:
            lo, _, hi = given["states"].partition("-")
            given["states"] = (int(lo), int(hi or lo))
        dag = generate_dag(GeneratorSpec(**given))
    except (ValueError, ValidationError) as exc:
        raise CliError(str(exc), EXIT_CONFIG) from None
    text = format_dag_text(dag)
    if args.out:
        with _open(args.out, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    ins, outs = degree_histogram(dag)
    layers = assign_layers(dag)
    out.write(f"# nodes={dag.n} arcs={len(dag.arcs)} layers={layers.l_max + 1}\n")
    out.write(f"# search_space={search_space_size(dag, layers)}\n")
    out.write("# in-degree histogram: " + " ".join(f"{d}:{c}" for d, c in ins.items()) + "\n")
    out.write("# out-degree histogram: " + " ".join(f"{d}:{c}" for d, c in outs.items()) + "\n")


def cmd_compare(args, out) -> None:
    dag = _load(args.file)
    layers = assign_layers(dag)
    model = BnComputationCost(dag, layers, _weights(args))
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
        if not alphas:
            raise CliError("--alphas: no alpha given", EXIT_CONFIG)
        configs = [
            SearchConfig(alpha=alpha, seed=seed, **_given(args, SearchConfig))
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
    cols = list(rows[0]) if rows else []
    _print(
        args,
        out,
        {"naive_cost": h_all, "oracle_cost": oracle_best, "runs": rows},
        cols,
        (["" if r[c] is None else r[c] for c in cols] for r in rows),
        [("naive_cost", h_all), ("oracle_cost", oracle_best)],
    )


def cmd_replay(args, out) -> None:
    with _open(args.manifest, name="manifest") as fh:
        manifest = json.load(fh)
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
    for key, _ in _SEARCH_FILES:
        if not isinstance(manifest.get(key, ""), str):
            raise CliError(f"manifest {key} must be a path string", EXIT_CONFIG)
    # A key set that the flags cannot carry (such as the removed root-split
    # filter or leaf_init) would make the replay a different search.
    known = {field for field, _ in _SEARCH_FLAGS.values()} | {"weights"}
    unknown = sorted(key for key, val in cfg.items() if key not in known and val)
    if unknown:
        raise CliError(
            f"manifest enables options this version does not have: {', '.join(unknown)}",
            EXIT_CONFIG,
        )
    argv = ["search", "--format", args.format] + ["--precise"] * bool(manifest.get("precise"))
    # Each recorded file, found relative to the manifest, must still hold
    # the bytes it was recorded with.
    for key, attr in _SEARCH_FILES:
        if key in manifest:
            path = os.path.join(os.path.dirname(os.path.abspath(args.manifest)), manifest[key])
            if _sha256(path) != manifest.get(f"{key}_sha256"):
                raise CliError(f"{path} does not match the manifest's {key}_sha256", EXIT_VALIDATION)
            argv += [path] if key == "input" else [f"--{attr}", path]
    # A setting the manifest lacks, or a None where the library's default is
    # None, takes that default; any other value goes through its flag's
    # type, which refuses a null alpha or seed.
    defaults = {**dataclasses.asdict(SearchConfig()), **dataclasses.asdict(DEFAULT_WEIGHTS)}
    for held, flags in ((cfg, _SEARCH_FLAGS), (weights, _WEIGHT_FLAGS)):
        for flag, (field, kind) in flags.items():
            value = held.get(field, defaults[field])
            if kind is None:
                argv += [] if value else [flag]
            elif value is not None or defaults[field] is not None:
                argv += [flag, str(value)]
    cmd_search(build_parser().parse_args(argv), out, manifest)


# ---------------------------------------------------------------------------


# Each flag that sets a SearchConfig or OpCostWeights field, with the field
# and its type (None: a switch that turns the field off).  ``replay`` turns
# a manifest's config, weights under "weights", back into these flags.
_SEARCH_FLAGS = {
    "--alpha": ("alpha", float),
    "--seed": ("seed", int),
    "--max-iters": ("max_iterations", int),
    "--stall": ("stall_window", int),
    "--no-prune": ("prune_enabled", None),
}
_WEIGHT_FLAGS = {"--w-add": ("add", float), "--w-mul": ("mul", float), "--w-div": ("div", float)}


def _add_fields(p: _Parser, flags: dict, **help: str) -> None:
    """Add ``flags``, each stored under its field's name and with no
    default, so one left unset is absent.  ``help`` is keyed by field; the
    metavar stays the one argparse derives from the flag."""
    for flag, (field, kind) in flags.items():
        if kind is None:
            kw = {"action": "store_false"}
        else:
            kw = {"type": kind, "metavar": flag[2:].upper().replace("-", "_")}
        p.add_argument(flag, dest=field, default=argparse.SUPPRESS, help=help.get(field), **kw)


def _add_output(p: _Parser, precise: bool = True, weights: bool = True) -> None:
    """``--precise`` where costs are printed by the cost formatter,
    ``--format`` everywhere, and the operation weights where costs are
    computed."""
    if precise:
        p.add_argument("--precise", action="store_true", help="full float precision")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    if weights:
        _add_fields(p, _WEIGHT_FLAGS)


def build_parser() -> _Parser:
    top = _Parser(prog="dagclust", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("layers", help="print the layer of every node")
    p.add_argument("file")
    _add_output(p, precise=False, weights=False)
    p.set_defaults(fn=cmd_layers)

    p = sub.add_parser("search", help="run the cluster-mapping search")
    p.add_argument("file")
    _add_fields(p, _SEARCH_FLAGS, stall_window="stop after this many iterations without improvement")
    p.add_argument("--reference", default=None, help="file of mappings to score similarity against")
    p.add_argument("--manifest", default=None, help="write the run manifest to this path")
    _add_output(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("oracle", help="exact optimal mappings by brute force")
    p.add_argument("file")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument("--all", action="store_true", help="dump every feasible mapping, not just the optima")
    _add_output(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("infer-cost", help="inference-cost schedules and totals")
    p.add_argument("file")
    p.add_argument("--strategy", choices=("be", "jointree-fixture", "clusters"), default="be")
    p.add_argument("--target", default=None, help="target node for bucket elimination")
    p.add_argument("--order", default=None, help="comma-joined elimination order")
    p.add_argument("--mapping", default=None, help="name=cluster pairs for --strategy clusters")
    _add_output(p)
    p.set_defaults(fn=cmd_infer_cost)

    p = sub.add_parser("gen", help="generate a benchmark DAG")
    p.add_argument("--n", type=int, required=True)
    gen_flags = {
        "--layers": ("layers", int),
        "--rewire": ("rewire", float),
        "--max-in": ("max_in", int),
        "--max-out": ("max_out", int),
        "--extra-arcs": ("extra_arc_rate", float),
        "--states": ("states", str),
        "--seed": ("seed", int),
    }
    _add_fields(p, gen_flags, states="state-count range, e.g. 2 or 2-4")
    p.add_argument("--out", default=None, help="write the DAG file here instead of stdout")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("compare", help="convergence across seeds and alphas")
    p.add_argument("file")
    p.add_argument("--seeds", type=_positive_int, default=5)
    p.add_argument("--alphas", default="0,0.5,1")
    _add_fields(p, {"--stall": _SEARCH_FLAGS["--stall"]})
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_output(p, precise=False)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("replay", help="re-run a search from its manifest")
    p.add_argument("manifest")
    _add_output(p, precise=False, weights=False)
    p.set_defaults(fn=cmd_replay)

    return top


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    # Library exceptions become exit codes here; only _weights, cmd_gen and
    # cmd_compare map their own.  argparse has printed its own message by
    # the time it exits, here or in a replay.
    try:
        args = build_parser().parse_args(argv)
        args.fn(args, out)
        return EXIT_OK
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:
        if out is not sys.stdout:
            raise
        # The reader closed stdout (``dagclust search g.dag | head -1``).
        # Point it at devnull, so the interpreter's last flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
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
