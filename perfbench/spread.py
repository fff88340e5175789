"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads nb-sampler,linreg --seeds 1-10 --seconds 10

For every workload and metric it prints the median, the quartiles and
the spread (q3 - q1) / median, with quartiles as
`statistics.quantiles(values, n=4)` gives them, and checks the spread
against the bound in BENCHMARK.json. Runs go one at a time. `--out`
writes the same figures as JSON, with each run's record (see run.py)
beside them.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    *_, record_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    result["run_record"] = json.loads(record_line)["run_record"]
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed calls")
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", help="write the summary as JSON to this path")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict[str, dict] = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds) for s in seed_list(args.seeds)]
        report[workload] = {"run_records": [r["run_record"] for r in runs]}
        for name in runs[0]["metrics"]:
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            report[workload][name] = summary
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, summary["spread"] / bound)
                flag = "  OVER BOUND" if summary["spread"] > bound else (
                    "  over a third of bound" if summary["spread"] > bound / 3 else "")
            print(f"{workload:12s} {name:14s} median {summary['median']:.6g} {summary['unit']}"
                  f"  spread {summary['spread']:.4f}{flag}", flush=True)
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
