#!/usr/bin/env python3
"""Build the perfbench Go program from source and run a workload.

Run from the repository root:

    python3 perfbench/run.py --workload oltp-bakeoff --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

The build and every file the benchmark writes stay under the build
directory, $CARGO_TARGET_DIR or .bench_build in the current directory:
the Go build cache, temporary build files and the job service's state.
One workload runs per process; "all" runs each workload in its own
process, prints a summary and exits non-zero if any of them failed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oltp-bakeoff", "cello-wide", "fleet-faults", "jobs-durable"]


def build_dir():
    d = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for sub in ("gocache", "gotmp", "gopath", "config", "tmp"):
        os.makedirs(os.path.join(d, sub), exist_ok=True)
    return d


def go_env(d):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(d, "gocache"),
        "GOTMPDIR": os.path.join(d, "gotmp"),
        "GOPATH": os.path.join(d, "gopath"),
        "GOMODCACHE": os.path.join(d, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(d, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
        "TMPDIR": os.path.join(d, "tmp"),
    })
    return env


def build(d):
    binary = os.path.join(d, "perfbench")
    res = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."],
                         cwd=HERE, env=go_env(d), stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)
    return binary


def commit():
    """The commit of the checkout, when it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(binary, d, args, workload, capture):
    cmd = [binary, "-workload", workload,
           "-digests", os.path.join(HERE, "digests.json"),
           "-tmp", os.path.join(d, "tmp"), "-commit", commit()] + args
    if not capture:
        return subprocess.run(cmd, env=go_env(d)).returncode, None
    res = subprocess.run(cmd, env=go_env(d), stdout=subprocess.PIPE, text=True)
    sys.stdout.write(res.stdout)
    lines = res.stdout.strip().splitlines()
    return res.returncode, json.loads(lines[-1]) if res.returncode in (0, 1) and lines else None


def main(argv):
    workload, rest = None, []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in ("--workload", "-workload") and i + 1 < len(argv):
            workload = argv[i + 1]
            i += 2
            continue
        rest.append(a)  # the Go flag package takes -name and --name alike
        i += 1
    if workload is None:
        sys.stderr.write("usage: run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]\n")
        return 2
    d = build_dir()
    binary = build(d)
    if workload != "all":
        code, _ = run_one(binary, d, rest, workload, capture=False)
        return code
    worst = 0
    summary = []
    for w in WORKLOADS:
        code, rec = run_one(binary, d, rest, w, capture=True)
        worst = max(worst, code)
        summary.append((w, code, rec))
    print("summary:")
    for w, code, rec in summary:
        if rec is None:
            print(f"  {w}: exit {code}, no result")
            continue
        print(f"  {w}: exit {code}, correct={rec['correct']} attempted={rec['attempted']} failed={rec['failed']}")
        for name, m in sorted(rec["metrics"].items()):
            print(f"    {name:34s} {m['value']:16.6g} {m['unit']}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
