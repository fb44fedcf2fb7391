#!/usr/bin/env python3
"""Build the socket-level benchmark and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --smoke

Run from the repository root. One workload prints a line per metric and,
as its last line, one JSON result. `all` runs every workload untraced and
traced and prints each end-to-end metric with its unit, plus the tracing
overhead (traced minus untraced solve latency and throughput). `--smoke`
runs every workload's phases and checks on small pools for a second.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["warm_read", "churn_mixed", "cold_start"]


def build():
    """Compile the harness; return the binary's path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as err:
        print(f"cannot run cargo: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "jury-perfbench")


# One glibc malloc arena for the harness and the server it hosts. With
# the default arena per thread, which thread frees a large block into
# which arena depends on scheduling: cold_start's peak RSS ranged from
# 111 to 197 MB over six runs of the same code, and from 70.3 to 71.6 MB
# with one arena.
HARNESS_ENV = {"MALLOC_ARENA_MAX": "1"}


def run(binary, args, echo=True):
    """Run the harness; return (exit code, parsed result or None, lines)."""
    work = os.path.join(HERE, ".work")
    env = dict(os.environ, **HARNESS_ENV)
    done = subprocess.run([binary, "--work", work] + args, stdout=subprocess.PIPE, text=True,
                          env=env)
    lines = done.stdout.splitlines()
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, lines


def flag(argv, name, default):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def run_all(binary, seed, seconds):
    """Every workload untraced and traced: end-to-end table and overhead."""
    ok = True
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", seed, "--seconds", seconds]
        code0, plain, lines = run(binary, base + ["--trace", "0"], echo=False)
        code1, traced, _ = run(binary, base + ["--trace", "1"], echo=False)
        if code0 != 0 or code1 != 0 or plain is None or traced is None:
            print(f"{workload}: run failed")
            ok = False
            continue
        print(f"== {workload}  correct={plain['correct'] and traced['correct']}"
              f"  attempted={plain['attempted']}  failed={plain['failed']}")
        for line in lines:
            if line.startswith(("stamp ", "metric ", "note ")):
                print("   " + line)
        p50 = plain["metrics"]["solve_p50_us"]["value"]
        tp50 = traced["metrics"]["trace.solve_p50_us"]["value"]
        print(f"   tracing overhead: solve_p50 {tp50 - p50:+.3f} us"
              f" ({(tp50 - p50) / p50:+.1%} of {p50:.3f} us untraced)")
        ok = ok and plain["correct"] and traced["correct"]
    return 0 if ok else 1


def main(argv):
    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    if "--smoke" in argv:
        ok = True
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                args = ["--workload", workload, "--seed", flag(argv, "--seed", "1"),
                        "--seconds", "1", "--trace", trace, "--smoke"]
                code, result, _ = run(binary, args, echo=False)
                good = code == 0 and result is not None and result["correct"]
                print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'}")
                ok = ok and good
        return 0 if ok else 1
    workload = flag(argv, "--workload", None)
    if workload == "all":
        return run_all(binary, flag(argv, "--seed", "1"), flag(argv, "--seconds", "15"))
    code, result, _ = run(binary, argv)
    if code != 0 or result is None:
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
