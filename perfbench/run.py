#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1]

The benchmark is the Rust package in perfbench/, built in release mode
into $CARGO_TARGET_DIR (default .bench_build). One workload prints the
binary's output as is: metric lines, then the JSON result as the last
line. `--workload all` runs every workload, each in its own process so
peak RSS is per workload, then prints one table. The exit code is
nonzero when the build fails, a workload fails an oracle, or the
directory is not a checkout of the repository.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["encode_bound", "station_ingest", "history_dashboard", "sim_line"]


def build(target: str) -> Path:
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", "perfbench/Cargo.toml",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: build failed ({done.returncode})")
    return Path(target) / "release" / "sbr-perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    needed = [root / "BENCHMARK.json", root / "perfbench" / "Cargo.toml",
              root / "crates" / "sbr-core" / "Cargo.toml", root / "crates" / "sensor-net" / "Cargo.toml"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not the root of a repository checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    exe = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

    def run(workload: str, capture: bool) -> subprocess.CompletedProcess:
        cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True)

    if args.workload != "all":
        return run(args.workload, capture=False).returncode

    worst = 0
    results = {}
    for w in WORKLOADS:
        done = run(w, capture=True)
        sys.stdout.write(done.stdout)
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        if lines:
            try:
                results[w] = json.loads(lines[-1])
            except json.JSONDecodeError:
                worst = max(worst, 1)
    names = [m for r in results.values() for m in r["metrics"]]
    names = list(dict.fromkeys(names))
    print()
    print("metric".ljust(44) + "".join(w.rjust(26) for w in results))
    for m in names:
        cells = []
        for r in results.values():
            v = r["metrics"].get(m)
            cells.append((f"{v['value']:.6g} {v['unit']}" if v else "-").rjust(26))
        print(m.ljust(44) + "".join(cells))
    print("failed".ljust(44) + "".join(f"{r['failed']}/{r['attempted']}".rjust(26)
                                       for r in results.values()))
    return worst


if __name__ == "__main__":
    sys.exit(main())
