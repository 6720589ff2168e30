#!/usr/bin/env python3
"""Build the terrain oracle from source and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds `oracled` (the repository's
workspace) and `perfbench` (the package in this directory) with
`cargo --offline` into `$CARGO_TARGET_DIR` (default `.bench_build`), then
runs the workload. Notes go to standard output as `# ...` lines; the last
line is one JSON object with `correct`, `attempted`, `failed` and the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`),
whose names and units are checked against `BENCHMARK.json`. Any build
failure, crash, timeout or mismatch exits non-zero without that line.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build(target):
    """Builds both binaries (serialised by a lock, so parallel runs share
    one build). Cargo's output goes to standard error."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(f"no Cargo.toml at {ROOT}: the benchmark needs the repository's sources")
    os.makedirs(target, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    with open(os.path.join(target, ".perfbench-build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "oracled"],
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        ):
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release")


def check_result(line, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in want}:
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ {m['name'] for m in want})}")
    for m in want:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} but BENCHMARK.json says {m['unit']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("nothing attempted")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must be non-negative")

    target = target_dir()
    bins = build(target)
    work = os.path.join(target, "perfbench-work")
    cmd = [
        os.path.join(bins, "perfbench"), "run",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--oracled", os.path.join(bins, "oracled"), "--work", work,
    ]
    # Its own process group, so a timeout also stops the daemon and the
    # atlas build process it starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, process_group=0)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        fail(f"workload {a.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"workload {a.workload} exited with {proc.returncode}")
    check_result(lines[-1], a.trace)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
