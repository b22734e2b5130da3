#!/usr/bin/env python3
"""Self-test of the benchmark: a one-round run of every workload.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json, runs perfbench/run.py untraced and
traced with --seconds 1 (set-up, the warm-up round and the minimum number
of measured rounds) and checks that the result line validates: exactly the
keys correct/attempted/failed/metrics, every end-to-end (untraced) or
per-layer (traced) metric present with its declared unit and a finite
value, no other metric, end-to-end values non-zero, and no failed
operation. Also checks that a directory holding only BENCHMARK.json and
the benchmark's files makes run.py fail without printing a result.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def validate(line, declared, nonzero):
    errors = []
    try:
        r = json.loads(line)
    except ValueError as e:
        return ["last line is not JSON: %s" % e]
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        return ["result keys are %s" % sorted(r)]
    if r["correct"] is not True:
        errors.append("correct is %r" % r["correct"])
    for k in ("attempted", "failed"):
        if not isinstance(r[k], int) or isinstance(r[k], bool):
            errors.append("%s is not a whole number" % k)
    if r["attempted"] < 1:
        errors.append("attempted < 1")
    if r["failed"] != 0:
        errors.append("failed = %d (fail_ratio %d/%d)" % (r["failed"], r["failed"], r["attempted"]))
    metrics = r["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            errors.append("metric %s missing" % m["name"])
            continue
        if sorted(got) != ["unit", "value"] or got["unit"] != m["unit"]:
            errors.append("metric %s: %r, want unit %s" % (m["name"], got, m["unit"]))
            continue
        v = got["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append("metric %s: value %r" % (m["name"], v))
        elif nonzero and v == 0:
            errors.append("metric %s is 0" % m["name"])
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        errors.append("undeclared metrics %s" % sorted(extra))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            p = run(["--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", trace], ROOT)
            lines = p.stdout.strip().splitlines()
            errors = []
            if p.returncode != 0:
                errors.append("exit code %d" % p.returncode)
            if not lines:
                errors.append("no output")
            else:
                errors += validate(lines[-1], declared, nonzero=(trace == "0"))
            if trace == "1" and not os.path.exists(
                os.path.join(ROOT, "perfbench", "_out", w["name"] + ".spans.jsonl")
            ):
                errors.append("no span file")
            status = "ok" if not errors else "FAIL"
            print("%-10s trace=%s %s" % (w["name"], trace, status), flush=True)
            for e in errors:
                print("    " + e)
            if errors:
                failures += 1
                sys.stderr.write(p.stderr[-2000:])
    # A directory holding only the benchmark: run.py must refuse cleanly.
    bare = os.path.join(ROOT, "perfbench", "_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("_out"),
    )
    p = run(["--workload", "compute", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    ok = p.returncode != 0 and '"correct"' not in p.stdout
    print("bare copy  refused: %s" % ("ok" if ok else "FAIL"))
    shutil.rmtree(bare, ignore_errors=True)
    if not ok:
        failures += 1
    print("selftest: %s" % ("passed" if failures == 0 else "%d failure(s)" % failures))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
