#!/usr/bin/env python3
"""Steal benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the benchmark (a cargo package of its own under perfbench/) from
source, runs one workload in a fresh process, checks that the metric names
and units it printed match BENCHMARK.json, and prints its report followed
by the result object as the last line. Build output goes to stderr. Any
failure exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run may take at most 180 s; leave room for the build check and output.
RUN_TIMEOUT_S = 170
# Largest gap tolerated between the traced wall clock and the ledger sum.
CLOSURE_TOLERANCE_S = 1e-3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "hd-perfbench")


def run_binary(binary, args):
    try:
        done = subprocess.run([binary, *args], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1]:
        fail("benchmark printed nothing")
    return lines


def checked_result(lines, expected):
    """Parses the last line and checks it against the BENCHMARK.json metrics."""
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail(f"last line is not JSON: {e}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys are {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number of at least 1")
    if not isinstance(result["failed"], int) or not 0 <= result["failed"] <= result["attempted"]:
        fail("failed must be a whole number within attempted")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"wrong units {wrong}")
    for name, m in metrics.items():
        if sorted(m) != ["unit", "value"] or not isinstance(m["value"], (int, float)):
            fail(f"metric {name} is malformed: {m}")
    return result


def provenance():
    """The commit, when the checkout is a git repository, and a digest of the
    sources the benchmark builds, which identifies a checkout that is not."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, p) for p in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "src", "vendor", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                digest.update(hashlib.sha256(f.read()).digest())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def self_test(spec, binary):
    run_binary(binary, ["selftest"])
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines = run_binary(binary, ["--workload", "tiny", "--seed", "1", "--seconds", "1",
                                    "--trace", str(trace)])
        result = checked_result(lines, spec[key])
        if not result["correct"] or result["failed"]:
            fail(f"tiny workload at --trace {trace} failed its correctness gate")
        residual = result["metrics"].get("ledger.closure_residual_s", {}).get("value", 0.0)
        if abs(residual) > CLOSURE_TOLERANCE_S:
            fail(f"ledger does not close: rows miss the traced wall by {residual} s")
    print("self-test ok: metric names and units match BENCHMARK.json, the ledger "
          "closes, and the traced channel is bit-identical on the tiny victim")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.self_test:
        self_test(spec, build())
        return
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"workload {args.workload!r} is not in BENCHMARK.json")
    binary = build()
    lines = run_binary(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)])
    result = checked_result(lines, spec["per_layer" if args.trace else "end_to_end"])
    for line in lines[:-1]:
        print(line)
    print("PROVENANCE " + json.dumps(provenance()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
