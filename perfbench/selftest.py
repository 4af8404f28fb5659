#!/usr/bin/env python3
"""Self-test of the repository benchmark, at toy sizes.

    python3 perfbench/selftest.py

Run it from the root of a checkout. It builds the benchmark from nothing into
an empty directory (.bench_build/perfbench-selftest, removed afterwards),
then runs every workload of BENCHMARK.json at --scale toy, untraced and
traced, on each of three seeds kept out of development and tuning runs. Each run must print a result line with
exactly the keys correct, attempted, failed and metrics, correct=true,
failed=0, and exactly the metric names and units BENCHMARK.json
declares for its mode; each
traced run's span file must parse, and no packed graph may be left in the
work directory. Finally a copy holding only BENCHMARK.json and the
benchmark directory must fail without printing a result. Exits 0 when
every check passed.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# Seeds kept out of development and tuning runs.
SEEDS = ("424242", "8675309", "1234567")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SPAN_KEYS = {"id", "name", "start_s", "end_s", "parent", "op"}


class Failures:
    def __init__(self):
        self.count = 0

    def check(self, ok, what):
        if not ok:
            self.count += 1
            print(f"FAIL: {what}", file=sys.stderr)
        return ok


def last_json_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_result(f, label, result, expected):
    if not f.check(isinstance(result, dict) and set(result) == RESULT_KEYS,
                   f"{label}: result keys {sorted(result or {})}"):
        return
    f.check(result["correct"] is True, f"{label}: correct={result['correct']}")
    f.check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
            f"{label}: attempted={result['attempted']}")
    f.check(result["failed"] == 0,
            f"{label}: failed={result['failed']}")
    metrics = result["metrics"]
    f.check(set(metrics) == set(expected),
            f"{label}: metric names differ: missing {sorted(set(expected) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        f.check(set(m) == {"value", "unit"} and m["unit"] == unit
                and isinstance(m["value"], (int, float)),
                f"{label}: metric {name} = {m}")


def check_spans(f, label, path):
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        f.check(False, f"{label}: span file {path}: {err}")
        return
    spans = doc.get("spans", [])
    f.check(doc.get("schema") == "emis-perfbench-spans/1" and spans,
            f"{label}: span file has no spans")
    for s in spans:
        if not f.check(set(s) == SPAN_KEYS and s["end_s"] >= s["start_s"]
                       and -1 <= s["parent"] < len(spans),
                       f"{label}: malformed span {s}"):
            break
    f.check(isinstance(doc.get("self_seconds"), dict) and doc["self_seconds"],
            f"{label}: span file has no self times")


def main():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    target = root / ".bench_build" / "perfbench-selftest"
    shutil.rmtree(target, ignore_errors=True)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    command = [sys.executable if c == "python3" else c for c in spec["command"]]
    f = Failures()

    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in SEEDS:
                for trace in ("0", "1"):
                    label = f"{workload} seed={seed} trace={trace}"
                    proc = subprocess.run(
                        [*command, "--workload", workload, "--seed", seed, "--seconds", "1",
                         "--trace", trace, "--scale", "toy"],
                        cwd=root, env=env, capture_output=True, text=True, timeout=900)
                    if not f.check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n"
                                   f"{proc.stderr[-2000:]}"):
                        continue
                    check_result(f, label, last_json_line(proc.stdout),
                                 layers if trace == "1" else e2e)
                    if trace == "1":
                        check_spans(f, label,
                                    target / "perfbench-work" / f"spans-{workload}.json")
                    print(f"ok   {label}", flush=True)
        leftovers = sorted(p.name for p in (target / "perfbench-work").glob("*.csr"))
        f.check(not leftovers, f"packed graphs left in the work directory: {leftovers}")

        # Without the library sources the benchmark must fail, printing no result.
        bare = target / "bare-checkout"
        shutil.copytree(root / spec["paths"][0], bare / spec["paths"][0],
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [*command, "--workload", spec["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, env=dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build")),
            capture_output=True, text=True, timeout=180)
        f.check(proc.returncode != 0 and not proc.stdout.strip(),
                f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(target, ignore_errors=True)

    print(f"selftest: {'FAILED, ' + str(f.count) + ' check(s)' if f.count else 'all checks passed'}")
    return 1 if f.count else 0


if __name__ == "__main__":
    sys.exit(main())
