#!/usr/bin/env python3
"""Checks the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. `perfbench --selftest`: each result check accepts a real run's output and
   rejects it once one fact is broken (one committed delta dropped, one
   payload byte corrupted, one index slot wrong, one unit of money created).
2. Determinism on ycsb-hot-lanes: two untraced runs with one seed give
   identical simulated results, a traced run gives the same ones as an
   untraced run (instrumentation only observes), and another seed gives
   different ones.

Exits 0 only if every check holds. Takes about a minute after the build.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as runner  # noqa: E402


def sim_result(binary, seed, trace):
    """The exact simulated results a run prints on its `sim {...}` line."""
    out = subprocess.run(
        [binary, "--workload", "ycsb-hot-lanes", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=runner.ROOT, capture_output=True, text=True,
        timeout=runner.RUN_TIMEOUT_S, check=True).stdout
    for line in out.splitlines():
        if line.startswith("sim "):
            return json.loads(line[4:])
    raise RuntimeError("no sim line in the output")


def main():
    binary = runner.build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    failures = 0

    checks = subprocess.run([binary, "--selftest"], cwd=runner.ROOT,
                            timeout=runner.RUN_TIMEOUT_S)
    if checks.returncode != 0:
        failures += 1

    first = sim_result(binary, 1, 0)
    cases = [
        ("same seed, untraced: identical", sim_result(binary, 1, 0), True),
        ("same seed, traced: identical", sim_result(binary, 1, 1), True),
        ("another seed: different", sim_result(binary, 2, 0), False),
    ]
    keys = [k for k in first if k not in ("seed",)]
    for name, other, want_equal in cases:
        equal = all(first[k] == other[k] for k in keys)
        ok = equal == want_equal
        print("%s %s" % ("ok  " if ok else "FAIL", name))
        if not ok:
            print("  %s\n  %s" % (first, other))
            failures += 1
    print("selftest.py %s" % ("passed" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
