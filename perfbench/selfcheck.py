"""Checks on the benchmark itself, from two traced runs of each workload.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [WORKLOAD ...]

* the call counts in REPEATABLE repeat exactly across the two runs;
* every per-layer metric predicted non-zero on a workload is non-zero there
  (a zero means a wrapper no longer reaches the code it should trace);
* ``permutations.lattice_calls`` is 0 on ``large-actions``;
* each workload shows the self-time split it was chosen for: lattice plus
  bounds is the largest share on ``theta-intervals``; on ``large-actions``
  it is zero and schreier, coset-action and spectral hold most of the time;
* both runs are correct.

Exits 1 when a check fails.  Takes about four minutes at the defaults.
"""

from __future__ import annotations

import argparse
import sys

from record import run_benchmark

TI, LA = "theta-intervals", "large-actions"
ALL = (TI, LA)
REPEATABLE = (
    "permutations.mult_calls",
    "permutations.closure_calls",
    "schreier.graph_calls",
    "spectral.eig_calls",
)
PREDICTED_NONZERO = {
    "catalog.build_s": ALL,
    "catalog.groups": ALL,
    "catalog.elements": ALL,
    "catalog.cache_loads": (LA,),
    "permutations.mult_calls": ALL,
    "permutations.closure_calls": ALL,
    "permutations.closure_s": ALL,
    "permutations.lattice_calls": (TI,),
    "permutations.lattice_s": (TI,),
    "permutations.lattice_subgroups": (TI,),
    "permutations.lattice_new_ratio": (TI,),
    "permutations.derived_calls": (TI,),
    "permutations.derived_s": (TI,),
    "permutations.coset_action_calls": (LA,),
    "permutations.transversal_calls": (LA,),
    "permutations.coset_action_s": (LA,),
    "permutations.coset_action_reuse_ratio": (LA,),
    "schreier.graph_calls": ALL,
    "schreier.graph_s": ALL,
    "schreier.graph_max_dim": ALL,
    "schreier.connectivity_s": (LA,),
    "spectral.eig_calls": ALL,
    "spectral.eig_s": ALL,
    "spectral.eig_max_dim": ALL,
    "spectral.eig_flops": ALL,
    "bounds.interval_s": (TI,),
    "bounds.theta_calls": (TI,),
    "bounds.derived_index_calls": (TI,),
    "bounds.derived_index_s": (TI,),
    "montecarlo.sample_calls": ALL,
    "montecarlo.sample_s": ALL,
    "montecarlo.trials": (LA,),
    "cli.theta_s": (TI,),
    "cli.bounds_s": (TI,),
    "cli.verify-nilpotent_s": (TI,),
    "cli.spectrum_s": (LA,),
    "cli.verify-thm1_s": (LA,),
    "cli.render_s": (TI, LA),
    "micro.group_from_generators_sym7_s": (LA,),
    "micro.schreier_graph_sym6_regular_s": (LA,),
    "micro.spectral_summary_dim720_s": (LA,),
    "micro.intermediate_subgroups_sym5_s": (TI,),
}


def traced_run(workload: str, seed: int, seconds) -> dict:
    result, _ = run_benchmark(workload, seed, trace=1, seconds=seconds)
    result["values"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def split_problems(workload: str, v: dict) -> list[str]:
    layers = {k[len("self."):-len("_s")]: x for k, x in v.items() if k.startswith("self.")}
    total = sum(layers.values())
    if workload == TI:
        lattice_bounds = layers["lattice"] + layers["bounds"]
        others = [x for k, x in layers.items() if k not in ("lattice", "bounds")]
        if lattice_bounds <= max(others):
            return ["lattice plus bounds self time is not the largest share"]
    if workload == LA:
        if layers["lattice"] or layers["bounds"]:
            return ["lattice or bounds self time is not zero"]
        if layers["schreier"] + layers["coset_action"] + layers["spectral"] <= total / 2:
            return ["schreier, coset-action and spectral self time do not dominate"]
    return []


def check_workload(workload: str, seed: int, seconds) -> list[str]:
    first, second = traced_run(workload, seed, seconds), traced_run(workload, seed, seconds)
    problems = []
    for run in (first, second):
        if not run["correct"]:
            problems.append(f"{run['failed']} of {run['attempted']} experiments failed")
    for key in REPEATABLE:
        if first["values"][key] != second["values"][key]:
            problems.append(f"{key} differs: {first['values'][key]} vs {second['values'][key]}")
    for key, workloads in PREDICTED_NONZERO.items():
        if workload in workloads and not first["values"][key]:
            problems.append(f"{key} is 0 but predicted non-zero")
    if workload == LA and first["values"]["permutations.lattice_calls"] != 0:
        problems.append("permutations.lattice_calls is not 0")
    return problems + split_problems(workload, first["values"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="checks on the benchmark itself")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("workloads", nargs="*", default=list(ALL))
    args = parser.parse_args(argv)
    failed = False
    for workload in args.workloads:
        problems = check_workload(workload, args.seed, args.seconds)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
