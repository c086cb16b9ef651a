"""Smoke test of the benchmark: every workload at minimal length, traced and not.

    python3 perfbench/smoke.py

Runs ``run.py`` once per workload and trace flag with ``--seconds 1`` (one
pass, or one untraced/traced pair), and checks that the last line of output
is a result with exactly the agreed keys, that the outputs passed their
checks, and that every metric BENCHMARK.json names is printed with its unit.
It also checks that the benchmark refuses to run, without printing a result,
in a tree that holds only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first failure.  Takes one to two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from numbers import Real
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(done, expected, label):
    if done.returncode != 0:
        raise SystemExit(f"{label}: exit code {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{label}: checks failed\n{done.stderr}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise SystemExit(f"{label}: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(expected) - set(metrics))}, "
                         f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]
        if value.get("unit") != unit or not isinstance(value.get("value"), Real):
            raise SystemExit(f"{label}: {name} = {value}, expected a number in {unit}")
    print(f"ok  {label}: {len(metrics)} metrics, {result['attempted']} operations checked")


def check_bare_tree():
    """Only BENCHMARK.json and the benchmark's paths: exit non-zero, print no result."""
    bare = ROOT / ".perfbench-out" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, BENCH["workloads"][0]["name"], 0)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            raise SystemExit("bare tree: the benchmark ran without the package source")
        print("ok  bare tree: refused with exit code", done.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for workload in (w["name"] for w in BENCH["workloads"]):
        check_result(run(ROOT, workload, 0), e2e, f"{workload} trace 0")
        check_result(run(ROOT, workload, 1), layers, f"{workload} trace 1")
    check_bare_tree()
    return 0


if __name__ == "__main__":
    sys.exit(main())
