#!/usr/bin/env python3
"""Builds and runs the serving benchmark for one workload.

Run from the repository root:

    python3 servebench/run.py --workload churn_b100k --seed 1 --seconds 15 --trace 0

The Rust program in this directory is built with cargo (release
profile, offline; target directory from CARGO_TARGET_DIR, default
`.bench_build`) and runs the workload in a process of its own. Its
human-readable lines are passed through; the last line printed here is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
the workload runs twice with the same seed and write groups: untraced,
then traced. The metrics are then the per-layer ones, plus the tracing
overhead (traced against untraced end-to-end) and the check that both
runs end on the same forward digest, which shows that the timing
attacker wrapper changed no decision. Spans go to
`servebench/traces/<workload>-seed<n>.jsonl`.

The exit code is non-zero, with no result line, when the build or a
run fails; it is non-zero, with `"correct": false`, when a correctness
check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lookup_zipf_b100k", "churn_b100k", "mixed_burst_b100k")
# The run must end within 180 s of the call, building excepted.
RUN_BUDGET_S = 170.0


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        timeout=850,
    )
    if proc.returncode != 0:
        raise RuntimeError("cargo build failed")
    return os.path.join(target, "release", "servebench")


def run_once(binary, args, deadline):
    """Runs the program once; returns (exit code, result dict, lines)."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("out of time before the run started")
    proc = subprocess.run(
        [binary, *args], stdout=subprocess.PIPE, text=True, timeout=left
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no output (exit code {proc.returncode})")
    return proc.returncode, json.loads(lines[-1]), lines[:-1]


def note(lines, key):
    for line in lines:
        for word in line.split():
            if word.startswith(key + "="):
                return word.split("=", 1)[1]
    raise RuntimeError(f"missing {key} in the program's output")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
        deadline = time.monotonic() + RUN_BUDGET_S
        base = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
        code, result, lines = run_once(binary, base + ["--trace", "0"], deadline)
        print("\n".join(lines))
        if args.trace:
            groups = note(lines, "groups")
            trace_dir = os.path.join(HERE, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
            traced_code, traced, traced_lines = run_once(
                binary,
                base + ["--trace", "1", "--groups", groups, "--trace-out", trace_out],
                deadline,
            )
            print("\n".join(traced_lines))
            same = note(lines, "final_forward_digest") == note(
                traced_lines, "final_forward_digest")
            if not same:
                print("CHECK FAILED: traced and untraced runs end on different forward digests")
            metrics = {k: v for k, v in traced["metrics"].items()
                       if not k.startswith("traced.")}
            for name in ("lookups_per_s", "publish_p50_ms"):
                plain = result["metrics"][name]["value"]
                with_spans = traced["metrics"]["traced." + name]["value"]
                overhead = 100.0 * (with_spans / plain - 1.0) if plain else 0.0
                print(f"overhead {name}: untraced {plain:.4f}, traced {with_spans:.4f}, "
                      f"{overhead:+.2f}%")
                metrics[f"trace.overhead_{name}_pct"] = {"value": overhead, "unit": "%"}
            code = code or traced_code or (0 if same else 1)
            result = {
                "correct": result["correct"] and traced["correct"] and same,
                "attempted": result["attempted"] + traced["attempted"],
                "failed": result["failed"] + traced["failed"],
                "metrics": metrics,
            }
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"servebench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return code if code else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
