#!/usr/bin/env python3
"""Self-test of the benchmark, run from the repository root:

    python3 skybench/selftest.py

Runs every workload in BENCHMARK.json briefly, untraced and traced, and
checks that the result line carries every declared metric with its unit
and a finite value; that the train_step weight hash repeats across two
runs with one seed; and that a deliberately corrupted probe output
(`--corrupt-probe`) trips each workload's correctness gate.
"""

import json
import math
import subprocess
import sys

SECONDS = "2"
SEED = "7"


def run(command, workload, trace, *extra):
    args = command + ["--workload", workload, "--seed", SEED,
                      "--seconds", SECONDS, "--trace", trace, *extra]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"{workload}: no result line\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_result(bench, workload, trace, result):
    where = f"{workload} --trace {trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and result["failed"] >= 0, where
    declared = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, (
        f"{where}: printed {sorted(metrics)}")
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"{where}: {m['name']} = {value}")
        if trace == "0":
            assert value > 0, f"{where}: end-to-end metric {m['name']} is {value}"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    failures = []

    def case(name, fn):
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as e:
            failures.append(name)
            print(f"FAIL {name}: {e}")

    for w in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            def metrics_case(w=w, trace=trace):
                code, _, result = run(command, w, trace)
                assert code == 0, f"exit code {code}"
                check_result(bench, w, trace, result)
            case(f"{w} trace {trace} prints every metric", metrics_case)

        def corrupt_case(w=w):
            code, _, result = run(command, w, "0", "--corrupt-probe")
            assert code != 0, "a corrupted probe output passed the gate"
            assert result["correct"] is False, "corrupted run reported correct"
        case(f"{w} corrupted probe trips the gate", corrupt_case)

    def hash_case():
        hashes = {run(command, "train_step", "0")[1]["weight_hash"] for _ in range(2)}
        assert len(hashes) == 1, f"weight hashes differ: {hashes}"
    case("train_step weight hash repeats across runs", hash_case)

    if failures:
        print(f"{len(failures)} self-test case(s) failed")
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
