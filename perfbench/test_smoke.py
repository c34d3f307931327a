#!/usr/bin/env python3
"""Smoke check for the benchmark: every workload, briefly, in both modes.

    python3 perfbench/test_smoke.py [--seconds 3]

Runs `perfbench/run.py` for each workload of BENCHMARK.json with
--trace 0 and --trace 1, and asserts that each run exits 0 and that the
metric names and units it prints are exactly the ones BENCHMARK.json
declares for that mode (end_to_end for --trace 0, per_layer for
--trace 1). It also checks that the offered rates a service workload
reports are the ones its BENCHMARK.json line records. Exits non-zero on
the first failure.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(seconds), "--trace",
           str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    assert r.returncode == 0, "%s trace=%d exited %d:\n%s" % (
        workload, trace, r.returncode, r.stderr[-2000:])
    return r.stdout.strip().split("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = run(w["name"], trace, args.seconds)
            res = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, "%s trace=%d: printed %s, declared %s" % (
                w["name"], trace, sorted(got.items()), sorted(want.items()))
            assert res["correct"] is True and res["attempted"] >= 1
            for line in lines:
                m = re.match(r"rates\s*: nominal=(\S+) high=(\S+) "
                             r"overload=(\S+) req/s", line)
                if m:
                    rates = "/".join(m.groups())
                    assert rates in w["why"], "%s: rates %s not in %r" % (
                        w["name"], rates, w["why"])
            print("ok  %-18s trace=%d  %d metrics" % (w["name"], trace,
                                                      len(got)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
