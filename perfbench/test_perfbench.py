"""Smoke tests of the benchmark itself:  python3 -m pytest perfbench -q

Each traced run is the smallest the driver allows (--seconds 0: a warm-up,
one untraced and one traced pass).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = [k for k, unit in tracing.METRICS.items() if unit in ("count", "bytes")]


def _traced(name, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    return {k: v["value"] for k, v in res["metrics"].items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_moves_the_listed_layers(name):
    first, second = _traced(name, 7), _traced(name, 7)
    assert list(first) == list(tracing.METRICS)
    assert [k for k in workloads.MOVES[name] if not first[k] > 0] == []
    # one traced pass: the self times partition its wall time
    total = sum(first[k] for k in tracing.SELF_METRICS)
    assert total == pytest.approx(first["trace.pass_s"], rel=0.02)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    spans = json.loads((run.WORK / name / "spans.json").read_text())
    assert {s["name"] for s in spans if s["parent"] is None} == {"cli.main"}
    assert all(s["parent"] is None or s["parent"] < i
               for i, s in enumerate(spans))


def test_corrupted_output_counts_as_failed(tmp_path):
    memscat = run.import_memscat()
    wl = workloads.build("lattice16", 5, tmp_path)
    _, results = run.run_pass(wl, memscat.cli)
    assert run.count_failures(wl, results) == 0
    path = wl.outdir / "dense" / "lattice_solution.csv"
    lines = path.read_text().splitlines()
    p, m, re, im = lines[7].split(",")
    lines[7] = ",".join([p, m, repr(float(re) * (1 + 1e-6) + 1e-9), im])
    path.write_text("\n".join(lines) + "\n")
    assert run.count_failures(wl, results) == 1
    path.unlink()
    assert run.count_failures(wl, results) == 1


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
