import argparse
import ast
import dataclasses
import glob
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import dagclust
from dagclust import SearchConfig, assign_layers, load_dag, parse_dag_text
from dagclust.cli import build_parser, main
from dagclust.dag import format_dag_text
from dagclust.factors import DEFAULT_WEIGHTS, bucket_elimination_cost
from dagclust.generator import GeneratorSpec, degree_histogram, generate_dag

FIG1 = os.path.join(os.path.dirname(__file__), "..", "data", "fig1.dag")
# Written by ``search data/fig1.dag --seed 7 --alpha 0.3 --manifest``.
OLD_MANIFEST = os.path.join(os.path.dirname(__file__), "fixtures", "fig1-seed7-alpha0.3.json")


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def report_lines(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("# report\t"):
            key, _, val = line.split("\t", 1)[1].partition("=")
            out[key] = val
    return out


# -- layers ---------------------------------------------------------------------


def test_layers_table():
    code, out = run_cli("layers", FIG1)
    assert code == 0
    rows = dict(
        line.split("\t") for line in out.strip().splitlines()[1:]
    )
    assert rows == {"A": "2", "B": "2", "C": "2", "D": "1", "E": "1", "F": "0", "G": "0"}


def test_layers_empty_file(tmp_path):
    p = tmp_path / "empty.dag"
    p.write_text("")
    code, _ = run_cli("layers", str(p))
    assert code == 2


def test_layers_matches_library(tmp_path):
    spec = GeneratorSpec(n=12, seed=3)
    dag = generate_dag(spec)
    from dagclust.dag import format_dag_text

    p = tmp_path / "g.dag"
    p.write_text(format_dag_text(dag))
    code, out = run_cli("layers", str(p))
    assert code == 0
    layers = assign_layers(dag)
    expect = "node\tlayer\n" + "".join(
        f"{dag.name(i)}\t{layers.of(i)}\n" for i in dag.node_ids()
    )
    assert out == expect


# -- search ----------------------------------------------------------------------


def test_search_report():
    code, out = run_cli("search", FIG1, "--seed", "1")
    assert code == 0
    rep = report_lines(out)
    assert rep["optimal_cost"] == "54.0"
    assert rep["optimal_solution_count"] == "3"
    assert rep["terminated_early"] == "False"


def test_search_enumeration_mode():
    code, out = run_cli("search", FIG1, "--no-prune")
    assert code == 0
    assert report_lines(out)["branches_complete"] == "48"


def test_search_stall_keeps_optimum():
    code, out = run_cli("search", FIG1, "--stall", "1000")
    assert code == 0
    rep = report_lines(out)
    assert rep["optimal_cost"] == "54.0"
    assert rep["optimal_solution_count"] == "3"


@pytest.mark.parametrize("flag,value", [("--max-iters", "-3"), ("--stall", "-1")])
def test_search_negative_limit_rejected(flag, value, capsys):
    code, out = run_cli("search", FIG1, flag, value)
    assert code == 4
    assert out == ""
    assert "negative" in capsys.readouterr().err


def test_search_tsv_json_parity():
    code, tsv = run_cli("search", FIG1, "--seed", "2", "--precise")
    code2, js = run_cli("search", FIG1, "--seed", "2", "--precise", "--format", "json")
    assert code == code2 == 0
    payload = json.loads(js)
    lines = tsv.splitlines()
    tsv_cols = lines[0].split("\t")
    sol = payload["solutions"][0]
    for col in tsv_cols:
        assert col in sol
    assert set(report_lines(tsv)) == set(payload["report"])
    # Both formats carry the incumbent at each row, not the final optimum.
    rows = [dict(zip(tsv_cols, l.split("\t"))) for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == len(payload["solutions"]) > 1
    for row, sol in zip(rows, payload["solutions"]):
        assert float(row["total_cost"]) == sol["total_cost"]
        assert float(row["gmin"]) == sol["gmin"]
    gmins = [sol["gmin"] for sol in payload["solutions"]]
    assert gmins[0] == payload["solutions"][0]["total_cost"]
    assert gmins[-1] == payload["report"]["optimal_cost"]
    assert gmins[0] > gmins[-1]


def test_search_json_without_solutions_is_strict_json():
    """A search capped before its first solution still prints valid JSON:
    no Infinity or NaN, which strict parsers reject."""

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    code, js = run_cli("search", FIG1, "--max-iters", "0", "--format", "json")
    assert code == 0
    payload = json.loads(js, parse_constant=refuse)
    assert payload["solutions"] == []
    assert payload["report"]["optimal_cost"] is None


def test_search_reference_unreadable(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out = run_cli("search", FIG1, "--reference", str(missing))
    assert code == 2
    assert out == ""
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_search_reference_partial_rejected(tmp_path, capsys):
    """A reference that does not assign every node is refused when read:
    before the manifest is written and before the search runs."""
    ref = tmp_path / "ref.txt"
    ref.write_text("A=2,B=6,C=7,D=2,E=3,F=1,G=2\nA=1,B=2\n")
    man = tmp_path / "run.json"
    code, out = run_cli("search", FIG1, "--reference", str(ref), "--manifest", str(man))
    assert code == 2
    assert out == ""
    assert not man.exists()
    assert "leaves nodes unassigned: C, D, E, F, G" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("gen", "--n", "5", "--out"), ("search", FIG1, "--manifest")],
    ids=["gen-out", "search-manifest"],
)
def test_unwritable_output_rejected(tmp_path, capsys, argv):
    """Nothing is printed: the DAG summary follows the write, and the
    manifest is written before the search runs."""
    target = tmp_path / "missing" / "out"
    code, out = run_cli(*argv, str(target))
    assert code == 2
    assert out == ""
    assert f"cannot write {target}" in capsys.readouterr().err


def test_search_reference_similarity(tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text("A=2,B=6,C=7,D=2,E=3,F=1,G=2\n")
    code, out = run_cli("search", FIG1, "--reference", str(ref))
    assert code == 0
    header = out.splitlines()[0].split("\t")
    assert "similarity" in header
    sims = [float(line.split("\t")[header.index("similarity")]) for line in out.splitlines()[1:] if not line.startswith("#")]
    assert all(0.0 <= s <= 1.0 for s in sims)
    assert any(s == 1.0 for s in sims)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_manifest_replay_byte_identical(tmp_path, fmt):
    man = tmp_path / "run.json"
    code, first = run_cli(
        "search", FIG1, "--seed", "7", "--alpha", "0.3", "--format", fmt, "--manifest", str(man)
    )
    assert code == 0
    code, again = run_cli("replay", str(man), "--format", fmt)
    assert code == 0
    assert first == again


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_older_manifest_still_replays(fmt):
    """A manifest written before replay carried ``--precise`` and
    ``--reference`` replays as ``search`` runs with its flags."""
    code, first = run_cli("search", FIG1, "--seed", "7", "--alpha", "0.3", "--format", fmt)
    assert code == 0
    code, again = run_cli("replay", OLD_MANIFEST, "--format", fmt)
    assert code == 0
    if fmt == "json":
        first, again = json.loads(first), json.loads(again)
        with open(OLD_MANIFEST, encoding="utf-8") as fh:
            assert again.pop("manifest") == json.load(fh)
        first.pop("manifest")
    assert first == again


def test_replay_resolves_relative_input_against_manifest(tmp_path, monkeypatch):
    (tmp_path / "data").mkdir()
    (tmp_path / "runs").mkdir()
    (tmp_path / "elsewhere").mkdir()
    with open(FIG1, encoding="utf-8") as fh:
        (tmp_path / "data" / "g.dag").write_text(fh.read())
    monkeypatch.chdir(tmp_path)
    code, first = run_cli("search", "data/g.dag", "--seed", "3", "--manifest", "runs/run.json")
    assert code == 0
    assert json.loads((tmp_path / "runs" / "run.json").read_text())["input"] == os.path.join(
        "..", "data", "g.dag"
    )
    monkeypatch.chdir(tmp_path / "elsewhere")
    code, again = run_cli("replay", "../runs/run.json")
    assert code == 0
    assert first == again


def test_replay_rejects_edited_input(tmp_path):
    dag_path = tmp_path / "g.dag"
    with open(FIG1, encoding="utf-8") as fh:
        dag_path.write_text(fh.read())
    man = tmp_path / "run.json"
    code, _ = run_cli("search", str(dag_path), "--manifest", str(man))
    assert code == 0
    dag_path.write_text(dag_path.read_text() + "edge B F\n")
    code, out = run_cli("replay", str(man))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("flag", ["--precise", "--reference"])
def test_replay_carries_precise_and_reference(tmp_path, monkeypatch, fmt, flag):
    """The manifest records ``precise`` when set and the reference file, by
    its path relative to the manifest and its sha256; replay passes both
    back, so the run comes out byte for byte."""
    (tmp_path / "runs").mkdir()
    (tmp_path / "ref.txt").write_text("A=2,B=6,C=7,D=2,E=3,F=1,G=2\n")
    monkeypatch.chdir(tmp_path)
    flags = ("--precise",) if flag == "--precise" else ("--reference", "ref.txt")
    argv = ("search", FIG1, "--seed", "2", "--format", fmt)
    code, first = run_cli(*argv, *flags, "--manifest", "runs/run.json")
    assert code == 0
    assert first != run_cli(*argv)[1]
    manifest = json.loads((tmp_path / "runs" / "run.json").read_text())
    if flag == "--precise":
        assert manifest["precise"] is True
        assert "reference" not in manifest
    else:
        assert manifest["reference"] == os.path.join("..", "ref.txt")
        assert manifest["reference_sha256"] == hashlib.sha256(b"A=2,B=6,C=7,D=2,E=3,F=1,G=2\n").hexdigest()
        assert "precise" not in manifest
    monkeypatch.chdir(tmp_path / "runs")
    code, again = run_cli("replay", "run.json", "--format", fmt)
    assert code == 0
    assert first == again


def test_manifest_without_precise_or_reference_omits_them(tmp_path):
    man = tmp_path / "run.json"
    assert run_cli("search", FIG1, "--manifest", str(man))[0] == 0
    manifest = json.loads(man.read_text())
    assert not {"precise", "reference", "reference_sha256"} & set(manifest)


@pytest.mark.parametrize("change", ["edit", "delete"])
def test_replay_rejects_changed_reference(tmp_path, capsys, change):
    """A reference file that no longer has its recorded digest, or is gone,
    stops the replay before anything is printed."""
    ref = tmp_path / "ref.txt"
    ref.write_text("A=2,B=6,C=7,D=2,E=3,F=1,G=2\n")
    man = tmp_path / "run.json"
    assert run_cli("search", FIG1, "--reference", str(ref), "--manifest", str(man))[0] == 0
    if change == "edit":
        ref.write_text("A=1,B=6,C=7,D=2,E=3,F=1,G=2\n")
    else:
        ref.unlink()
    capsys.readouterr()
    assert run_cli("replay", str(man)) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("dagclust: error: ")
    assert ("reference_sha256" if change == "edit" else f"cannot read {ref}") in err


def test_replay_rejects_reference_not_a_string(tmp_path, capsys):
    man = tmp_path / "run.json"
    assert run_cli("search", FIG1, "--manifest", str(man))[0] == 0
    man.write_text(json.dumps({**json.loads(man.read_text()), "reference": 3}))
    capsys.readouterr()
    assert run_cli("replay", str(man)) == (4, "")
    assert "manifest reference must be a path string" in capsys.readouterr().err


def test_replay_rejects_root_split_manifest(tmp_path, capsys):
    """A manifest key the replay cannot carry into the search is refused when
    set: the removed root-split filter and enumeration flag, and leaf_init,
    which no flag expresses.  Unset, each replays as before."""
    man = tmp_path / "run.json"
    code, _ = run_cli("search", FIG1, "--manifest", str(man))
    assert code == 0
    recorded = json.loads(man.read_text())
    for key, off, on in [
        ("root_split_filter", False, True),
        ("gmin_infinite", False, True),
        ("leaf_init", None, {"6": 1, "7": 2}),
    ]:
        manifest = json.loads(json.dumps(recorded))
        manifest["config"][key] = off
        man.write_text(json.dumps(manifest))
        assert run_cli("replay", str(man))[0] == 0
        manifest["config"][key] = on
        man.write_text(json.dumps(manifest))
        capsys.readouterr()
        code, out = run_cli("replay", str(man))
        assert code == 4
        assert out == ""
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("key", ["alpha", "seed", "input"])
def test_replay_rejects_manifest_without_key(tmp_path, capsys, key):
    man = tmp_path / "run.json"
    assert run_cli("search", FIG1, "--manifest", str(man))[0] == 0
    manifest = json.loads(man.read_text())
    del (manifest if key == "input" else manifest["config"])[key]
    man.write_text(json.dumps(manifest))
    capsys.readouterr()
    code, out = run_cli("replay", str(man))
    assert code == 4
    assert out == ""
    assert f"lacks {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit,code,message",
    [
        (lambda m: [1, 2], 2, "cannot read manifest"),
        (lambda m: {**m, "config": {**m["config"], "weights": [0.6, 1.0, 3.0]}}, 4, "must be JSON objects"),
        (lambda m: {**m, "config": "alpha seed"}, 4, "must be JSON objects"),
        (lambda m: {**m, "input": 5}, 4, "input must be a path string"),
    ],
    ids=["not-an-object", "weights-list", "config-string", "input-number"],
)
def test_replay_rejects_malformed_manifest(tmp_path, capsys, edit, code, message):
    man = tmp_path / "run.json"
    assert run_cli("search", FIG1, "--manifest", str(man))[0] == 0
    man.write_text(json.dumps(edit(json.loads(man.read_text()))))
    capsys.readouterr()
    got, out = run_cli("replay", str(man))
    assert got == code
    assert out == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize(
    "flags",
    [
        ("--max-iters", "40", "--stall", "10", "--w-add", "0.5", "--w-mul", "1.25", "--w-div", "2"),
        ("--no-prune",),
    ],
    ids=["limits-and-weights", "no-prune"],
)
def test_replay_carries_every_setting(tmp_path, fmt, flags):
    """Each search setting goes into the manifest and back through its flag:
    the flags change the output, and the replay reproduces it."""
    man = tmp_path / "run.json"
    code, first = run_cli("search", FIG1, *flags, "--format", fmt, "--manifest", str(man))
    assert code == 0
    assert first != run_cli("search", FIG1, "--format", fmt)[1]
    code, again = run_cli("replay", str(man), "--format", fmt)
    assert code == 0
    assert first == again


def test_unset_flags_take_the_library_defaults(tmp_path):
    man = tmp_path / "run.json"
    assert run_cli("search", FIG1, "--manifest", str(man))[0] == 0
    assert json.loads(man.read_text())["config"] == {
        **dataclasses.asdict(SearchConfig()),
        "weights": dataclasses.asdict(DEFAULT_WEIGHTS),
    }


@pytest.mark.parametrize("key,kind", [("alpha", "float"), ("seed", "int")])
def test_replay_rejects_null_setting(tmp_path, capsys, key, kind):
    """A null alpha or seed is not read as unset: its flag refuses it."""
    man = tmp_path / "run.json"
    assert run_cli("search", FIG1, "--manifest", str(man))[0] == 0
    manifest = json.loads(man.read_text())
    manifest["config"][key] = None
    man.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("replay", str(man)) == (4, "")
    assert f"argument --{key}: invalid {kind} value: 'None'" in capsys.readouterr().err


# -- oracle ---------------------------------------------------------------------


def test_oracle_output():
    code, out = run_cli("oracle", FIG1)
    assert code == 0
    rep = report_lines(out)
    assert rep["optimal_cost"] == "54.0"
    assert rep["optimal_solution_count"] == "3"
    body = [l for l in out.splitlines()[1:] if not l.startswith("#")]
    assert len(body) == 3


def test_oracle_cap_refusal():
    code, _ = run_cli("oracle", FIG1, "--cap", "10")
    assert code == 3


@pytest.mark.parametrize("cap", ["-5", "0", "ten"])
def test_oracle_bad_cap_rejected(cap, capsys):
    code, out = run_cli("oracle", FIG1, "--cap", cap)
    assert code == 4
    assert out == ""
    assert "--cap" in capsys.readouterr().err


def test_oracle_all_chain(tmp_path):
    p = tmp_path / "chain.dag"
    p.write_text("node A\nnode B\nnode C\nedge A B\nedge B C\n")
    code, out = run_cli("oracle", str(p), "--all")
    assert code == 0
    body = [l for l in out.splitlines()[1:] if not l.startswith("#")]
    assert len(body) == 4
    assert all("\t" in l for l in body)


def test_oracle_all_counts_optimal_partitions():
    """--all lists every feasible mapping but counts only the optima."""
    code, out = run_cli("oracle", FIG1, "--all")
    assert code == 0
    body = [l for l in out.splitlines()[1:] if not l.startswith("#")]
    assert len(body) == 48
    assert report_lines(out) == {"optimal_cost": "54.0", "optimal_solution_count": "3"}


# -- infer-cost --------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,total",
    [
        (("--strategy", "be"), "64.4"),
        (("--strategy", "jointree-fixture"), "132.8"),
        (
            ("--strategy", "clusters", "--mapping", "A=1,F=1,D=2,G=2,E=3,B=6,C=7"),
            "117.2",
        ),
    ],
)
def test_infer_cost_totals(argv, total):
    code, out = run_cli("infer-cost", FIG1, *argv)
    assert code == 0
    assert report_lines(out)["total"] == total


@pytest.mark.parametrize(
    "mapping,message",
    [
        ("A=1,F=1,D=2,G=2,E=3,B=6,C=7,A=5", "node A named twice"),
        ("A=-1,F=1,D=2,G=2,E=3,B=6,C=7", "label below 1 in 'A=-1'"),
        ("A=0,F=1,D=2,G=2,E=3,B=6,C=7", "label below 1 in 'A=0'"),
    ],
    ids=["repeated-node", "negative-label", "zero-label"],
)
def test_infer_cost_bad_mapping_rejected(mapping, message, capsys):
    code, out = run_cli("infer-cost", FIG1, "--strategy", "clusters", "--mapping", mapping)
    assert code == 4
    assert out == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("search", FIG1, "--w-add", "nan"),
        ("search", FIG1, "--w-mul", "inf"),
        ("infer-cost", FIG1, "--strategy", "be", "--w-add", "inf"),
    ],
    ids=["search-nan", "search-inf", "infer-cost-inf"],
)
def test_non_finite_weight_rejected(argv, capsys):
    code, out = run_cli(*argv)
    assert code == 4
    assert out == ""
    assert "finite and strictly positive" in capsys.readouterr().err


def test_infer_cost_schedule_tsv():
    """A header line, one row per schedule step, then the total."""
    dag = load_dag(FIG1)
    _, rows = bucket_elimination_cost(dag, assign_layers(dag), dag.id_of("F"))
    code, out = run_cli("infer-cost", FIG1, "--strategy", "be", "--target", "F")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step_index\top\taccumulator_id\tdims\tcost"
    assert len(lines) == len(rows) + 2
    assert lines[-1] == "# report\ttotal=64.4"


@pytest.mark.parametrize(
    "strategy,row",
    [
        ("be", "17\tmarginalize\tbucket:A\tF\t0.25"),
        ("jointree-fixture", "7\tmarginalize\tsep:AF->ABD\tA\t0.25"),
    ],
    ids=["be", "jointree-fixture"],
)
def test_infer_cost_schedule_rows_follow_weights(strategy, row):
    """Schedule rows print costs by the total's rule: in full at non-default
    weights, where one decimal would print 0.25 as 0.2."""
    code, out = run_cli("infer-cost", FIG1, "--strategy", strategy, "--w-add", "0.125")
    assert code == 0
    assert row in out.splitlines()


def test_infer_cost_jointree_wrong_graph(tmp_path):
    p = tmp_path / "chain.dag"
    p.write_text("node A\nnode B\nedge A B\n")
    code, _ = run_cli("infer-cost", str(p), "--strategy", "jointree-fixture")
    assert code == 2


def test_infer_cost_clusters_needs_mapping():
    code, _ = run_cli("infer-cost", FIG1, "--strategy", "clusters")
    assert code == 4


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--strategy", "jointree-fixture", "--target", "F"), "--target"),
        (("--strategy", "jointree-fixture", "--order", "G,E,D,C,B,A"), "--order"),
        (("--strategy", "jointree-fixture", "--mapping", "A=1"), "--mapping"),
        (("--strategy", "be", "--mapping", "A=1"), "--mapping"),
        (("--mapping", "A=1"), "--mapping"),
        (("--strategy", "clusters", "--mapping", "A=1,F=1,D=2,G=2,E=3,B=6,C=7", "--target", "F"), "--target"),
    ],
)
def test_infer_cost_unused_flag_rejected(argv, flag, capsys):
    code, out = run_cli("infer-cost", FIG1, *argv)
    assert code == 4
    assert out == ""
    assert flag in capsys.readouterr().err


def test_infer_cost_be_custom_order():
    code, out = run_cli("infer-cost", FIG1, "--strategy", "be", "--target", "F", "--order", "G,E,D,C,B,A")
    assert code == 0
    assert report_lines(out)["total"] == "64.4"


# -- gen ------------------------------------------------------------------------------


def test_gen_deterministic(tmp_path):
    code, a = run_cli("gen", "--n", "10", "--seed", "1")
    code2, b = run_cli("gen", "--n", "10", "--seed", "1")
    assert code == code2 == 0
    assert a == b


def test_gen_output_validates(tmp_path):
    p = tmp_path / "g.dag"
    code, out = run_cli("gen", "--n", "25", "--seed", "4", "--out", str(p))
    assert code == 0
    dag = load_dag(str(p))
    assert dag.n == 25
    assert "in-degree histogram" in out and "out-degree histogram" in out


def test_gen_minimal():
    code, out = run_cli("gen", "--n", "3", "--seed", "0")
    assert code == 0
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    parse_dag_text(body)


def test_gen_defaults_are_the_spec_defaults():
    code, out = run_cli("gen", "--n", "9")
    assert code == 0
    text = format_dag_text(generate_dag(GeneratorSpec(n=9)))
    assert out.startswith(text)
    summary = out[len(text):].splitlines()
    assert [line.split("=")[0].split(":")[0] for line in summary] == [
        "# nodes",
        "# search_space",
        "# in-degree histogram",
        "# out-degree histogram",
    ]


def test_gen_heavy_tail_profile():
    dag = generate_dag(GeneratorSpec(n=25, layers=5, rewire=0.15, extra_arc_rate=0.8, seed=11))
    ins, outs = degree_histogram(dag)
    assert max(outs) >= 4  # some node fans out noticeably
    assert outs.get(1, 0) + outs.get(0, 0) > len(outs)  # most nodes stay small


def test_gen_bad_args():
    code, _ = run_cli("gen", "--n", "0")
    assert code == 4


@pytest.mark.parametrize("flag,value", [("--max-in", "0"), ("--max-out", "0"), ("--max-in", "-2")])
def test_gen_degree_cap_below_one_rejected(flag, value, capsys):
    code, out = run_cli("gen", "--n", "5", flag, value)
    assert code == 4
    assert out == ""
    assert "max_in and max_out" in capsys.readouterr().err
    with pytest.raises(ValueError, match="at least 1"):
        GeneratorSpec(n=5, **{flag[2:].replace("-", "_"): int(value)})


@pytest.mark.parametrize(
    "flag,field,value",
    [("--layers", "layers", -1), ("--extra-arcs", "extra_arc_rate", -1.0), ("--extra-arcs", "extra_arc_rate", -0.5)],
)
def test_gen_negative_shape_rejected(flag, field, value, capsys):
    code, out = run_cli("gen", "--n", "5", flag, str(value))
    assert code == 4
    assert out == ""
    assert f"{field} must not be negative" in capsys.readouterr().err
    with pytest.raises(ValueError, match="must not be negative"):
        GeneratorSpec(n=5, **{field: value})


# -- compare ---------------------------------------------------------------------------


def test_compare_single_row():
    code, out = run_cli("compare", FIG1, "--seeds", "1", "--alphas", "1")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert len(lines) == 2  # header + one row


def test_compare_matches_oracle_on_generated(tmp_path):
    from dagclust.dag import format_dag_text

    dag = generate_dag(GeneratorSpec(n=10, seed=6, rewire=0.2, extra_arc_rate=0.4))
    p = tmp_path / "g.dag"
    p.write_text(format_dag_text(dag))
    code, out = run_cli("compare", str(p), "--seeds", "2", "--alphas", "0,1")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split("\t")
    idx = header.index("matches_oracle")
    rows = [l.split("\t") for l in lines[1:] if not l.startswith("#")]
    assert rows and all(r[idx] == "True" for r in rows)


@pytest.mark.parametrize("alphas", ["1.5", "0,x", "", ","])
def test_compare_bad_alpha_rejected(alphas, capsys):
    code, out = run_cli("compare", FIG1, "--seeds", "1", "--alphas", alphas)
    assert code == 4
    assert out == ""
    assert "--alphas" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--seeds", "0"),
        ("--seeds", "-1"),
        ("--jobs", "0"),
        ("--jobs", "-2"),
        ("--seeds", "two"),
        ("--cap", "0"),
        ("--cap", "-1"),
    ],
)
def test_compare_bad_count_rejected(flag, value, capsys):
    code, out = run_cli("compare", FIG1, flag, value)
    assert code == 4
    assert out == ""
    assert flag in capsys.readouterr().err


def test_compare_rows_ordered():
    code, out = run_cli("compare", FIG1, "--seeds", "2", "--alphas", "0.5,0", "--jobs", "2")
    assert code == 0
    lines = [l for l in out.strip().splitlines()[1:] if not l.startswith("#")]
    pairs = [(float(l.split("\t")[0]), float(l.split("\t")[1])) for l in lines]
    assert pairs == sorted(pairs)


# -- plumbing ----------------------------------------------------------------------------


def test_closed_pipe_exits_quietly(tmp_path):
    """A reader that closes stdout early (``| head -1``) gets exit 1 and no
    traceback, even though the output outgrows the pipe's buffer."""
    g = tmp_path / "g16.dag"
    assert run_cli("gen", "--n", "16", "--seed", "1", "--out", str(g))[0] == 0
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "dagclust.cli", "search", str(g)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"iteration\t")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


def test_unknown_cost_model():
    code, _ = run_cli("search", FIG1, "--cost", "nope")
    assert code == 4


def test_bad_flag_exit_code():
    code, _ = run_cli("search", FIG1, "--alpha", "nope")
    assert code == 4


def test_missing_file():
    code, _ = run_cli("layers", "/nonexistent/file.dag")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [("layers", "{bad}"), ("search", FIG1, "--reference", "{bad}"), ("replay", "{bad}")],
    ids=["graph", "reference", "manifest"],
)
def test_non_utf8_input_rejected(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"node A\n\xff\xfe\n")
    code, out = run_cli(*(a.format(bad=bad) for a in argv))
    assert code == 2
    assert out == ""
    assert "cannot read" in capsys.readouterr().err


def test_removed_options_rejected():
    assert run_cli("search", FIG1, "--gmin-inf")[0] == 4
    assert run_cli("search", FIG1, "--gmin-inf", "--no-prune")[0] == 4
    assert run_cli("compare", FIG1, "--precise", "--seeds", "1", "--alphas", "1")[0] == 4


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (("infer-cost", FIG1, "--strategy", "clusters", "--mapping", "Z=1"), 2, "unknown node name 'Z'"),
        (("infer-cost", FIG1, "--strategy", "clusters", "--mapping", "A=x"), 4, "bad cluster label"),
        (("oracle", FIG1, "--cap", "10"), 3, "exceeds cap 10"),
        (("oracle", FIG1, "--all", "--cap", "10"), 3, "exceeds cap 10"),
        (("search", FIG1, "--alpha", "2"), 4, "alpha must lie in [0, 1]"),
        (("replay", "{alpha2}"), 4, "alpha must lie in [0, 1]"),
        (("infer-cost", FIG1, "--w-add", "0"), 4, "finite and strictly positive"),
    ],
    ids=["unknown-node", "bad-label", "cap", "cap-all", "alpha", "replayed-alpha", "zero-weight"],
)
def test_exit_code_table(tmp_path, capsys, argv, code, message):
    """Each library exception reaches ``main`` as its exit code and one
    ``dagclust: error:`` line."""
    man = tmp_path / "run.json"
    assert run_cli("search", FIG1, "--manifest", str(man))[0] == 0
    manifest = json.loads(man.read_text())
    manifest["config"]["alpha"] = 2
    man.write_text(json.dumps(manifest))
    capsys.readouterr()
    got, out = run_cli(*(a.format(alpha2=man) for a in argv))
    assert (got, out) == (code, "")
    err = capsys.readouterr().err
    assert err.startswith("dagclust: error: ")
    assert message in err


def test_option_census():
    """Every option of every subcommand, and every search setting.  A new
    knob shows up as a diff here."""
    top = build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }
    weights = ["--format", "--w-add", "--w-mul", "--w-div"]
    assert options == {
        "layers": ["--format"],
        "search": [
            "--alpha",
            "--seed",
            "--max-iters",
            "--stall",
            "--no-prune",
            "--reference",
            "--manifest",
            "--precise",
            *weights,
        ],
        "oracle": ["--cap", "--all", "--precise", *weights],
        "infer-cost": ["--strategy", "--target", "--order", "--mapping", "--precise", *weights],
        "gen": [
            "--n",
            "--layers",
            "--rewire",
            "--max-in",
            "--max-out",
            "--extra-arcs",
            "--states",
            "--seed",
            "--out",
        ],
        "compare": ["--seeds", "--alphas", "--stall", "--cap", "--jobs", *weights],
        "replay": ["--format"],
    }
    assert [f.name for f in dataclasses.fields(SearchConfig)] == [
        "alpha",
        "seed",
        "max_iterations",
        "stall_window",
        "prune_enabled",
    ]


def test_public_api_census():
    """The package's public names.  A change to the API shows up as a diff
    here."""
    assert sorted(dagclust.__all__) == [
        "BnComputationCost",
        "CapExceededError",
        "Dag",
        "GeneratorSpec",
        "JEntry",
        "LayerAssignment",
        "OpCostWeights",
        "SearchConfig",
        "SolutionRecord",
        "ValidationError",
        "assign_layers",
        "check_contiguity",
        "cluster_inference_cost",
        "enumerate_feasible",
        "eval_schedule",
        "evaluate_mapping",
        "founding_labels",
        "generate_dag",
        "load_dag",
        "optimal_set",
        "parse_dag_text",
        "partition_signature",
        "search",
        "search_space_size",
        "seven_node_example",
        "similarity",
        "stream_search",
    ]


def test_every_private_module_name_is_read():
    """A private name defined at the top of a module under src/dagclust that
    no module there reads is dead code."""
    src = os.path.join(os.path.dirname(__file__), "..", "src", "dagclust")
    trees = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees.append(ast.parse(fh.read(), path))
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    defined = []
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
    private = [name for name in defined if name.startswith("_") and not name.endswith("__")]
    assert private
    assert [name for name in private if name not in read] == []


def test_precise_output():
    code, out = run_cli("oracle", FIG1, "--precise")
    assert code == 0
    assert "54.00000000000001" in out
