#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the repository:

    python3 perfbench/test_perfbench.py

1. The same seed gives identical generated inputs and identical exact
   counts in two traced runs.
2. Corrupting one expected edge, chosen by a seed, makes the output
   check fail: failed_op_ratio becomes nonzero.
"""

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# Per-layer metrics that are exact counts: they may not move between two
# runs of the same inputs.
EXACT = [
    "vm.instructions", "vm.hook_events", "shadow.events", "shadow.deps",
    "indexing.dynamic_constructs", "indexing.pool_reused",
    "core.walk_steps", "core.walk_zero_ratio", "core.profile_bytes",
    "driver.cache_hit_ratio", "driver.facts_reused_ratio",
]


def bench(workload, seed, trace, *extra):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace)] + list(extra),
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    inputs = next(l for l in lines if l.startswith("inputs: "))
    return inputs, json.loads(lines[-1])


def test_same_seed_same_inputs_and_counts():
    for workload in ["profile-gzip", "verdicts"]:
        a_inputs, a = bench(workload, 7, 1)
        b_inputs, b = bench(workload, 7, 1)
        assert a_inputs == b_inputs, (a_inputs, b_inputs)
        assert a["correct"] and b["correct"]
        for name in EXACT:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            assert va == vb, f"{workload} {name}: {va} != {vb}"
        c_inputs, _ = bench(workload, 8, 0)
        assert c_inputs != a_inputs, "another seed should give other inputs"
        print(f"ok: {workload}: seed 7 repeats its inputs and counts")


def test_corrupted_expected_edge_fails():
    workload = "profile-gzip"
    inputs, clean = bench(workload, 3, 0)
    assert clean["failed"] == 0, clean
    scale = inputs.split("scale=")[1].split()[0]
    data = os.path.join(ROOT, ".bench_out", "corrupt-expected")
    shutil.rmtree(data, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "expected"), data)
    path = os.path.join(data, workload + ".txt")
    with open(path) as f:
        lines = f.read().split("\n")
    start = lines.index("scale " + scale)
    edges = [i for i in range(start + 1, len(lines))
             if lines[i].startswith("e ")]
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("scale ")), len(lines))
    edges = [i for i in edges if i < end]
    victim = random.Random(20090314).choice(edges)
    fields = lines[victim].split(" ")
    fields[-1] = str(int(fields[-1]) + 1)
    lines[victim] = " ".join(fields)
    with open(path, "w") as f:
        f.write("\n".join(lines))
    _, broken = bench(workload, 3, 0, "--data", data)
    shutil.rmtree(data)
    assert broken["failed"] > 0 and not broken["correct"], broken
    print(f"ok: corrupting line {victim + 1} fails "
          f"{broken['failed']}/{broken['attempted']} ops")


if __name__ == "__main__":
    test_same_seed_same_inputs_and_counts()
    test_corrupted_expected_edge_fails()
