"""Smoke test for the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced on tiny inputs and checks the result
line against BENCHMARK.json, then checks that the benchmark refuses to run
without the library source next to it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_reports_every_metric(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_inputs():
    """The seed alone fixes the inputs: two set-ups write identical files."""
    outs = []
    for _ in range(2):
        out = bench(ROOT, "--workload", "aoi", "--seed", "9", "--seconds", "1", "--trace", "0", "--tiny")
        assert out.returncode == 0, out.stderr
        work = ROOT / ".perfbench_work"
        outs.append({p.name: p.read_bytes() for p in work.glob("aoi_*") if p.suffix in (".pmf", ".cfg")})
    assert outs[0] and outs[0] == outs[1]


def test_refuses_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, "--workload", "bitexact", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
