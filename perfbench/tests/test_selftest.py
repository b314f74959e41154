"""Self-test of the benchmark: short runs emit every declared metric.

    python3 -m pytest perfbench/tests -q

Each workload runs once per trace mode for one second; the last line of
output must carry exactly the metrics ``BENCHMARK.json`` declares for
that mode, each with its declared unit.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args, cwd=ROOT, env=None):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def test_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }


def test_refuses_program_switches():
    env = dict(os.environ, REPRO_DISABLE_VECTOR_DECIDE="1")
    out = run_bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", env=env)
    assert out.returncode != 0
    assert "REPRO_DISABLE_VECTOR_DECIDE" in out.stderr
    assert "metrics" not in out.stdout


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
