#!/usr/bin/env python3
"""Build and run mqxlib's benchmark (BENCHMARK.json at the repo root).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout. Every call configures and
builds perfbench/ (mqxlib in Release plus the program in perfbench.cc)
into .bench_build/, or $CARGO_TARGET_DIR when that is set; only the
first call compiles anything. Each workload then runs in its own
process.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports every end_to_end metric
of BENCHMARK.json, --trace 1 every per_layer metric. The script exits
non-zero, without that line, when the build fails, a result is wrong,
the server drains uncleanly, or the metrics printed are not exactly the
ones BENCHMARK.json declares. `--workload all` runs every workload in
turn and prints one result line per workload.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure and build mqx_perfbench; returns its path or None."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--parallel",
              str(min(os.cpu_count() or 1, 4)), "--target", "mqx_perfbench"]]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "mqx_perfbench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def check_result(line, spec, trace):
    """The reason @p line breaks the output contract, or None."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(res)
    if res["correct"] is not True:
        return "correct is not true"
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and res["failed"] >= 0):
        return "attempted/failed are not whole counts"
    want = declared(spec, trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s, " \
               "undeclared %s, unit mismatch %s" % (missing, extra, units)
    return None


def run_one(binary, spec, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    print("meta-commit " + git_commit())
    if r.returncode != 0:
        log("perfbench: %s exited with %d" % (workload, r.returncode))
        return r.returncode or 1
    why = check_result(lines[-1], spec, trace)
    if why:
        log("perfbench: %s: %s" % (workload, why))
        return 1
    print(lines[-1], flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in todo):
        log("perfbench: unknown workload %s (have %s)" % (args.workload,
                                                          names))
        return 2
    binary = build()
    if binary is None:
        return 1
    status = 0
    for w in todo:
        rc = run_one(binary, spec, w, args.seed, args.seconds, args.trace)
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
