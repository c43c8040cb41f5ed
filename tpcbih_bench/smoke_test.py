#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 tpcbih_bench/smoke_test.py

Runs every workload of the benchmark program at tiny scale (--tiny) on a
second seed, untraced and traced; that includes workloads BENCHMARK.json leaves out (see
README.md). It asserts that
  * the correctness checks pass (correct, no failed operation);
  * the emitted metric names and units are exactly BENCHMARK.json's
    end-to-end set (untraced) and per-layer set (traced);
  * the traced run wrote spans for every layer of the per-layer table.
Exits 0 when all hold, 1 otherwise.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "tpcbih_bench", "run.py")
SPAN_DIR = os.path.join(ROOT, ".bench_build", "run")
LAYERS = ["bih", "storage", "engine", "exec", "workload", "sql", "server",
          "net", "durability"]
SEED = 2
WORKLOADS = ["analytic", "sql_mixed", "analytic_par4", "served_mixed",
             "durable_updates"]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (
            workload, trace, proc.returncode, proc.stderr.decode()[-2000:]))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def check(workload, trace, result, spec):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("correctness: correct=%s failed=%s" % (
            result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted=%s" % result.get("attempted"))
    want = {m["name"]: m["unit"] for m in
            spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(got) != set(want):
        errors.append("metric names: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in got.items():
        value = result["metrics"][name].get("value")
        if name in want and unit != want[name]:
            errors.append("%s unit %s, want %s" % (name, unit, want[name]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s value %r" % (name, value))
    if trace:
        path = os.path.join(SPAN_DIR, "spans-%s-%d.jsonl" % (workload, SEED))
        seen = set()
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                if "span" in rec:
                    seen.add(rec["span"].split(".")[0])
        missing = [layer for layer in LAYERS if layer not in seen]
        if missing:
            errors.append("no spans for layers %s" % missing)
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for name in WORKLOADS:
        for trace in (0, 1):
            try:
                errors = check(name, trace, run(name, trace), spec)
            except (AssertionError, OSError, ValueError) as e:
                errors = [str(e)]
            status = "ok" if not errors else "FAIL"
            print("%-16s trace=%d %s" % (name, trace, status))
            for e in errors:
                print("    " + e)
            failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
