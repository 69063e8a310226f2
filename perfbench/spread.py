"""Run one workload over several seeds and summarise the spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload search --seeds 1-10 [--trace 1]
        [--out perfbench/BASELINE.json]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for each metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, the figure BENCHMARK.json's bounds are set
against.  With ``--out`` the summary, the runs' traffic lines and the pooled
traffic properties (chord range, request and outcome shares, coloring
repeat share and trace overhead from a traced run) are stored under the
workload's name in that JSON file, next to the machine's core count and
Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(entry: dict) -> dict:
    """Traffic properties of one workload, pooled over its runs."""
    runs = entry["untraced"]["traffic"]
    requests: dict[str, int] = {}
    outcomes: dict[str, int] = {}
    for run in runs:
        for kind, count in run["requests"].items():
            requests[kind] = requests.get(kind, 0) + count
        for key, count in run["outcomes"].items():
            outcome = key.partition(":")[2]
            outcomes[outcome] = outcomes.get(outcome, 0) + count
    total = sum(requests.values())
    summary = {
        "chords": [min(run["chords"][0] for run in runs), max(run["chords"][1] for run in runs)],
        "requests_per_run": total / len(runs),
        "request_shares": {kind: count / total for kind, count in sorted(requests.items())},
        "outcome_shares": {key: count / total for key, count in sorted(outcomes.items())},
        "past_limit_inputs_per_run": runs[0]["past_limit_inputs"],
        "budgets": runs[0]["budgets"],
    }
    traced = entry.get("trace", {}).get("metrics", {})
    for name in ("invariants.coloring.repeat_share", "trace.overhead"):
        if name in traced:
            summary[name] = traced[name]["median"]
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = str(json.load(fh)["run_seconds"])

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    traffic = []
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("\n".join(line for line in lines if line.startswith("WRONG")))
            return 1
        for line in lines:
            if line.startswith("traffic "):
                traffic.append({"seed": seed, **json.loads(line[len("traffic "):])})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed:3d}  " + "  ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
            flush=True)

    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "runs": len(vals)}
        print(f"{name:42s} median {median:12.6g} {units[name]:6s} "
              f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.3f}")

    if args.out:
        try:
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            doc = {}
        doc["machine"] = {"cores": os.cpu_count(), "python": platform.python_version(),
                          "implementation": platform.python_implementation()}
        entry = doc.setdefault("workloads", {}).setdefault(args.workload, {})
        entry["trace" if args.trace == "1" else "untraced"] = {
            "seeds": args.seeds, "seconds": args.seconds, "metrics": summary,
            "traffic": traffic,
        }
        if "untraced" in entry:
            entry["traffic_summary"] = summarize(entry)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
