#!/usr/bin/env python3
"""Smoke test of the benchmark: `python3 perfbench/test_smoke.py` from the repo root.

Runs every workload of BENCHMARK.json in smoke mode (tiny inputs, a few
operations), untraced and traced, and asserts that each run passes its
output checks and emits every metric BENCHMARK.json names, with its unit.
Also checks that perfbench/layers.json maps every per-layer metric.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        mapped = [m["name"] for m in json.load(f)["metrics"]]
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    assert sorted(mapped) == sorted(m["name"] for m in declared[1]), "layers.json out of date"
    for w in bench["workloads"]:
        for trace, metrics in declared.items():
            r = run(w["name"], trace)
            assert set(r) == {"correct", "attempted", "failed", "metrics"}, r
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
            assert set(r["metrics"]) == {m["name"] for m in metrics}, r["metrics"]
            for m in metrics:
                got = r["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m, got)
                assert isinstance(got["value"], (int, float)), (m, got)
            print(f"ok {w['name']} trace={trace}: {r['attempted']} ops verified", flush=True)


if __name__ == "__main__":
    main()
