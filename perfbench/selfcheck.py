"""The benchmark's own test: determinism and output checks.

Two traced runs of one seed must give identical deterministic counters
(fuel per request of every (program, size), functions specialized,
residual instructions, promotions, tier-0 calls, links made, artifacts
written), and a run with a second seed must pass every output check.

    python3 perfbench/selfcheck.py [--workload W ...]

Checks every workload, or the ones named.  Exits non-zero on the first
difference.  Takes a few minutes per workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady", "compile", "tierup")
SECONDS = 3
SEED = 11


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    if not trace:
        return {}
    path = os.path.join(HERE, "out", f"trace-{workload}-{seed}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["deterministic"]


def compare(workload: str, first: list, second: list) -> list:
    """Differences between two runs' per-worker deterministic counters.
    Workers past the shorter list (extra tierup epochs) and requests
    only one run drew are not compared."""
    problems = []
    for index, (a, b) in enumerate(zip(first, second)):
        for key in sorted(set(a) | set(b)):
            if key == "fuel_per_request":
                fa, fb = a.get(key, {}), b.get(key, {})
                for pair in sorted(set(fa) & set(fb)):
                    if fa[pair] != fb[pair]:
                        problems.append(f"{workload}#{index} fuel {pair}: "
                                        f"{fa[pair]} != {fb[pair]}")
                if fa and not set(fa) & set(fb):
                    problems.append(f"{workload}#{index}: no common pairs")
            elif a.get(key) != b.get(key):
                problems.append(f"{workload}#{index} {key}: "
                                f"{a.get(key)} != {b.get(key)}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    problems = []
    for workload in args.workload or WORKLOADS:
        first = run(workload, SEED, 1)
        second = run(workload, SEED, 1)
        found = compare(workload, first, second)
        run(workload, SEED + 1, 0)
        print(f"{workload}: {len(first)} workers compared, "
              f"{len(found)} differences; seed {SEED + 1} correct")
        problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
