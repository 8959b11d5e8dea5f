"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload pipeline] [--first-seed 1]

For every workload and end-to-end metric it prints the median of the
runs and the distance between their first and third quartiles as a share
of that median (``statistics.quantiles(values, n=4)``), next to the bound
from BENCHMARK.json.  ``--out FILE`` also writes the runs and the summary as
JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, done.returncode, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report = {}
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = perf_counter()
            results.append(one_run(workload, seed, bench["run_seconds"]))
            print("%s seed %d: %.1f s, correct=%s %s" % (
                workload, seed, perf_counter() - t0, results[-1]["correct"],
                json.dumps({k: round(v["value"], 6) for k, v in results[-1]["metrics"].items()})), flush=True)
        summary = summarise(results)
        for name, s in summary.items():
            bound = bounds.get(name)
            print("%-16s %-44s median %-12.6g spread %6.3f%s" % (
                workload, name, s["median"], s["spread"],
                "  bound %.2f%s" % (bound, "" if s["spread"] < bound / 3 else "  (above a third)")
                if bound else ""), flush=True)
        report[workload] = {"runs": results, "summary": summary}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
