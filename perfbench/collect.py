#!/usr/bin/env python3
"""Run ``run.py`` over several seeds and summarise the spread of each metric.

From the root of a checkout:

    python3 perfbench/collect.py --seeds 1-10                  # end to end
    python3 perfbench/collect.py --seeds 1-2 --trace 1         # per layer
    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

Runs are sequential, one at a time, with ``run_seconds`` from
BENCHMARK.json.  For every workload and metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(interquartile distance over the median) next to the metric's bound.  It
checks that each run printed exactly the metrics BENCHMARK.json lists and
that counts repeated exactly across runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    *_, record_line, result_line = done.stdout.splitlines()
    return json.loads(record_line)["run_record"], json.loads(result_line)


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    specs = {m["name"]: m for m in BENCH["per_layer" if args.trace else "end_to_end"]}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in specs}
        passes = attempted = failed = 0
        probe_ns, raw_wall_s = [], []
        for seed in args.seeds:
            record, result = run_once(workload, seed, args.trace)
            if set(result["metrics"]) != set(specs):
                sys.exit(f"{workload} seed {seed}: metrics differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            passes += record["passes"]
            if "probe_ns" in record:  # untraced runs only
                probe_ns.append(record["probe_ns"]["median"])
                raw_wall_s.append(record["raw_wall_s"])
            attempted += result["attempted"]
            failed += result["failed"]
            ok &= result["correct"]
            print(f"{workload} seed {seed}: {json.dumps(result)}", file=sys.stderr)
        rows = {}
        for name, spec in specs.items():
            row = summarise(values[name])
            row["unit"] = spec["unit"]
            if spec["unit"] in ("count", "bytes"):
                row["repeats_exactly"] = len(set(values[name])) == 1
                ok &= row["repeats_exactly"]
            if "bound" in spec:
                row["bound"] = spec["bound"]
                row["within_third_of_bound"] = row["spread"] < spec["bound"] / 3
            rows[name] = row
            print(f"{workload:14} {name:42} " + " ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()
            ))
        summary[workload] = {
            "runs": len(args.seeds),
            "passes": passes,
            "commands_attempted": attempted,
            "commands_failed": failed,
            "metrics": rows,
        }
        if probe_ns:
            summary[workload].update(probe_ns_median=probe_ns, raw_wall_s=raw_wall_s)
    if args.out:
        # One file holds both sections; a run replaces only its own.
        saved = json.loads(args.out.read_text()) if args.out.exists() else {}
        saved["per_layer" if args.trace else "end_to_end"] = {
            "git_sha": record["git_sha"],
            "python": record["python"],
            "cpu_count": record["cpu_count"],
            "seeds": args.seeds,
            "run_seconds": BENCH["run_seconds"],
            "workloads": summary,
        }
        args.out.write_text(json.dumps(saved, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
