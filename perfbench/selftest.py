"""Self-test of the benchmark at toy size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Each workload runs briefly, untraced and traced, with structures of order
at most 3 and 12 requests.  The test asserts that the result line is
well formed, that every answer checked out, and that every metric
BENCHMARK.json names is emitted with its unit: the end-to-end metrics
untraced, the per-layer metrics traced, and ``failed_share`` with its
sample count among the printed lines.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--toy"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}/{trace}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{workload}/{trace}: correct={result['correct']}, "
                                f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload}/{trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            bad = [name for name, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))]
            if bad:
                problems.append(f"{workload}/{trace}: non-numeric {bad}")
            if trace == 0 and not any(line.startswith("failed_share") and "of" in line
                                      for line in lines):
                problems.append(f"{workload}: no failed_share line")
            print(f"{workload:13s} trace {trace}: {result['attempted']} requests, "
                  f"{len(result['metrics'])} metrics, correct={result['correct']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
