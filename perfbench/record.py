"""Record the benchmark: several seeded runs per workload plus one traced run.

    python3 perfbench/record.py [--runs N] [--first-seed S] [--out FILE] [WORKLOAD ...]

For each workload, runs ``run.py`` untraced with seeds S..S+N-1 for the
``run_seconds`` of BENCHMARK.json, then once traced with seed S.  Writes
the median, quartiles and relative spread ((q3 - q1) / median) of every
end-to-end metric, with the per-layer figures of the traced run, to FILE
(default: print only).  Any incorrect run makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(workload: str, seed: int, trace: int, seconds=None) -> tuple[dict, dict]:
    """One ``run.py`` process: its JSON result and its echoed JSON lines."""
    seconds = BENCHMARK["run_seconds"] if seconds is None else seconds
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{done.stderr}")
    lines = done.stdout.splitlines()
    echo = {}
    for line in lines[:-1]:
        if line.startswith("{"):
            echo.update(json.loads(line))
    return json.loads(lines[-1]), echo


def record_workload(workload: str, runs: int, first_seed: int) -> dict:
    results, echo, samples = [], {}, []
    for seed in range(first_seed, first_seed + runs):
        result, echo = run_benchmark(workload, seed, trace=0)
        results.append(result)
        samples.append(echo.get("samples"))
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for spec in BENCHMARK["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[spec["name"]] = {
            "unit": spec["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": spec["bound"], "values": values,
        }
    traced, traced_echo = run_benchmark(workload, first_seed, trace=1)
    return {
        "environment": echo.get("environment"),
        "seeds": list(range(first_seed, first_seed + runs)),
        "correct": all(r["correct"] for r in results) and traced["correct"],
        "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
        "failed": sum(r["failed"] for r in results) + traced["failed"],
        "end_to_end": summary,
        "run_samples": samples,
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        "traced_samples": traced_echo.get("samples"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seeded runs of every workload, summarised")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in BENCHMARK["workloads"]])
    args = parser.parse_args(argv)
    record = {w: record_workload(w, args.runs, args.first_seed) for w in args.workloads}
    for workload, entry in record.items():
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  (spread above bound/3)"
            print(f"{workload:<16}{name:<12} median {s['median']:.4g} {s['unit']}  "
                  f"q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread {s['spread']:.3f}{flag}")
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(entry["correct"] for entry in record.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
