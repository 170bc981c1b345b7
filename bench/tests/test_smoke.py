"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest bench/tests -q

Each run is the benchmark's own command with ``--smoke``: every metric
BENCHMARK.json names must be printed, with its unit, in the human lines and
in the final JSON line, and a wrong reference value must count as a failed
operation.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("verify_small", "anytime_large", "price_mappings")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(workload, trace, tmp_path, reference=None):
    cmd = [
        sys.executable, os.path.join(BENCH, "run.py"),
        "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace), "--smoke", "--out-dir", str(tmp_path),
    ]
    if reference is not None:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_workloads_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, tmp_path):
    human, result = run(workload, trace, tmp_path)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {tuple(line.split("\t")[1:4:2]) for line in human}
    for name, unit in want.items():
        assert (name, unit) in printed, name
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("price_mappings", lambda ref: ref["price_mappings"]["smoke"]["graphs"][0].__setitem__(0, 1.0)),
        ("anytime_large", lambda ref: ref["anytime_large"]["smoke"].__setitem__("digest", "0" * 64)),
    ],
)
def test_wrong_reference_counts_as_failure(workload, corrupt, tmp_path):
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    corrupt(ref)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    human, result = run(workload, 0, tmp_path, str(path))
    assert result["failed"] > 0 and not result["correct"]
    share = [line for line in human if "# failed_share" in line]
    assert share and float(share[0].split("\t")[2]) > 0
