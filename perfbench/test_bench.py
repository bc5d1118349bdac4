#!/usr/bin/env python3
"""The benchmark's own tests.

Runs every workload briefly, untraced and traced, on a seed the benchmark is
not tuned on: the workloads of BENCHMARK.json plus pdme_ingest, which the
program runs but BENCHMARK.json does not gate (see NOTES.md, Steadiness).
It checks that:
  - the last stdout line is one JSON object with exactly the keys correct,
    attempted, failed and metrics;
  - the integrity checks ran (attempted >= 1) and none failed (correct,
    failed == 0), and the per-kind counts and the diagnostic fail_share
    line are printed;
  - the metrics are exactly the end_to_end names of BENCHMARK.json
    (untraced) or exactly its per_layer names (traced), with its units,
    no more and no fewer, all finite numbers;
  - the same seed gives the same inputs: two untraced runs make the same
    number of checks per episode count.

Run from the repository root:  python3 perfbench/test_bench.py
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "424242"
SECONDS = "1"
# Runnable by hand, printed like the others, not in BENCHMARK.json.
UNGATED_WORKLOADS = ["pdme_ingest"]


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s trace=%s exited %d:\n%s" %
                             (workload, trace, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_result(lines, result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0, (
        [l for l in lines if l.startswith("  failed: ")])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        "missing %s, extra %s" % (sorted(set(expected) - set(metrics)),
                                  sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        assert set(m) == {"value", "unit"}, (name, m)
        assert m["unit"] == expected[name], (name, m["unit"], expected[name])
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    assert any(l.startswith("check ") for l in lines), "no check counts printed"
    share = [l for l in lines if l.startswith("fail_share ")]
    assert len(share) == 1 and re.search(
        r"\((\d+) failed of (\d+) diagnostic checks\)", share[0])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = 0
    workloads = [w["name"] for w in bench["workloads"]] + UNGATED_WORKLOADS
    for name in workloads:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            try:
                lines, result = run(name, trace)
                check_result(lines, result, expected)
                if trace == "0":
                    assert result["metrics"]["setup_s"]["value"] > 0
                    again_lines, again = run(name, trace)
                    check_result(again_lines, again, expected)
                    episodes = [l for l in lines if l.startswith("episodes ")]
                    again_episodes = [l for l in again_lines if l.startswith("episodes ")]
                    if episodes[0].split()[1] == again_episodes[0].split()[1]:
                        assert again["attempted"] == result["attempted"], (
                            "same seed, same episodes, different check counts")
                print("ok   %s trace=%s  correct=%s attempted=%d failed=%d" %
                      (name, trace, result["correct"], result["attempted"],
                       result["failed"]))
            except AssertionError as e:
                failures += 1
                print("FAIL %s trace=%s: %s" % (name, trace, e))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
