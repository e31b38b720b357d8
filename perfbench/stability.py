"""Run the benchmark once per seed on each workload and report, per metric,
the median, the quartiles and the spread (q3 - q1) / median.

    python3 perfbench/stability.py --seeds 1-10 --seconds 30
    python3 perfbench/stability.py --seeds 1-3 --seconds 30 --trace 1

It runs every workload that BENCHMARK.json names.  Runs are sequential, one
process at a time.  The raw results go to perfbench/results/<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0,
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--label", default=time.strftime("%Y%m%dT%H%M%S"))
    args = parser.parse_args()

    out = HERE / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    report = {}
    for workload in WORKLOADS:
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in seed_range(args.seeds)]
        summary = summarize(results)
        report[workload] = {"runs": results, "summary": summary}
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        ops = [r["attempted"] for r in results]
        walls = [r["wall_s"] for r in results]
        print(f"{workload}: ops {min(ops)}-{max(ops)}, wall {min(walls):.1f}-{max(walls):.1f} s "
              f"per run, failed shares {shares}, "
              f"all correct {all(r['correct'] for r in results)}")
        for name, s in summary.items():
            print(f"  {name:40s} {s['median']:12.4f} {s['unit']:7s} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread {s['spread']:.3f}")
        out.write_text(json.dumps(report, indent=1))
        sys.stdout.flush()
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
