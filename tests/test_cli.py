import io
import json
import os

import pytest

from dagclust import assign_layers, load_dag, parse_dag_text
from dagclust.cli import main
from dagclust.generator import GeneratorSpec, degree_histogram, generate_dag

FIG1 = os.path.join(os.path.dirname(__file__), "..", "data", "fig1.dag")


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
    code, out = run_cli("search", FIG1, "--gmin-inf", "--no-prune")
    assert code == 0
    assert report_lines(out)["branches_complete"] == "48"


def test_search_stall_keeps_optimum():
    code, out = run_cli("search", FIG1, "--stall", "1000")
    assert code == 0
    rep = report_lines(out)
    assert rep["optimal_cost"] == "54.0"
    assert rep["optimal_solution_count"] == "3"


def test_search_gmin_inf_with_prune_rejected():
    code, _ = run_cli("search", FIG1, "--gmin-inf")
    assert code == 4


def test_search_tsv_json_parity():
    code, tsv = run_cli("search", FIG1, "--seed", "2")
    code2, js = run_cli("search", FIG1, "--seed", "2", "--format", "json")
    assert code == code2 == 0
    payload = json.loads(js)
    tsv_cols = tsv.splitlines()[0].split("\t")
    sol = payload["solutions"][0]
    for col in tsv_cols:
        assert col in sol
    assert set(report_lines(tsv)) == set(payload["report"])


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


def test_manifest_replay_byte_identical(tmp_path):
    man = tmp_path / "run.json"
    code, first = run_cli("search", FIG1, "--seed", "7", "--alpha", "0.3", "--manifest", str(man))
    assert code == 0
    code, again = run_cli("replay", str(man))
    assert code == 0
    assert first == again


def test_replay_resolves_relative_input_against_manifest(tmp_path, monkeypatch):
    (tmp_path / "data").mkdir()
    (tmp_path / "runs").mkdir()
    (tmp_path / "elsewhere").mkdir()
    (tmp_path / "data" / "g.dag").write_text(open(FIG1, encoding="utf-8").read())
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
    dag_path.write_text(open(FIG1, encoding="utf-8").read())
    man = tmp_path / "run.json"
    code, _ = run_cli("search", str(dag_path), "--manifest", str(man))
    assert code == 0
    dag_path.write_text(dag_path.read_text() + "edge B F\n")
    code, out = run_cli("replay", str(man))
    assert code == 2
    assert out == ""


def test_replay_rejects_root_split_manifest(tmp_path, capsys):
    man = tmp_path / "run.json"
    code, _ = run_cli("search", FIG1, "--manifest", str(man))
    assert code == 0
    manifest = json.loads(man.read_text())
    manifest["config"]["root_split_filter"] = False
    man.write_text(json.dumps(manifest))
    assert run_cli("replay", str(man))[0] == 0
    manifest["config"]["root_split_filter"] = True
    man.write_text(json.dumps(manifest))
    capsys.readouterr()
    code, out = run_cli("replay", str(man))
    assert code == 4
    assert out == ""
    assert "root_split_filter" in capsys.readouterr().err


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


def test_oracle_all_chain(tmp_path):
    p = tmp_path / "chain.dag"
    p.write_text("node A\nnode B\nnode C\nedge A B\nedge B C\n")
    code, out = run_cli("oracle", str(p), "--all")
    assert code == 0
    body = [l for l in out.splitlines()[1:] if not l.startswith("#")]
    assert len(body) == 4
    assert all("\t" in l for l in body)


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


def test_infer_cost_jointree_wrong_graph(tmp_path):
    p = tmp_path / "chain.dag"
    p.write_text("node A\nnode B\nedge A B\n")
    code, _ = run_cli("infer-cost", str(p), "--strategy", "jointree-fixture")
    assert code == 2


def test_infer_cost_clusters_needs_mapping():
    code, _ = run_cli("infer-cost", FIG1, "--strategy", "clusters")
    assert code == 4


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


def test_gen_heavy_tail_profile():
    dag = generate_dag(GeneratorSpec(n=25, layers=5, rewire=0.15, extra_arc_rate=0.8, seed=11))
    ins, outs = degree_histogram(dag)
    assert max(outs) >= 4  # some node fans out noticeably
    assert outs.get(1, 0) + outs.get(0, 0) > len(outs)  # most nodes stay small


def test_gen_bad_args():
    code, _ = run_cli("gen", "--n", "0")
    assert code == 4


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


def test_compare_rows_ordered():
    code, out = run_cli("compare", FIG1, "--seeds", "2", "--alphas", "0.5,0", "--jobs", "2")
    assert code == 0
    lines = [l for l in out.strip().splitlines()[1:] if not l.startswith("#")]
    pairs = [(float(l.split("\t")[0]), float(l.split("\t")[1])) for l in lines]
    assert pairs == sorted(pairs)


# -- plumbing ----------------------------------------------------------------------------


def test_unknown_cost_model():
    code, _ = run_cli("search", FIG1, "--cost", "nope")
    assert code == 4


def test_bad_flag_exit_code():
    code, _ = run_cli("search", FIG1, "--alpha", "nope")
    assert code == 4


def test_missing_file():
    code, _ = run_cli("layers", "/nonexistent/file.dag")
    assert code == 2


def test_precise_output():
    code, out = run_cli("oracle", FIG1, "--precise")
    assert code == 0
    assert "54.00000000000001" in out
