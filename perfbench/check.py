"""Correctness gate: every experiment's output against the reference and
against invariants that hold for any seed.

An experiment output is ``{"argv", "exit_code", "report"}`` with the input
directory already replaced by ``<inputs>``.  Each check returns a list of
problems; an empty list means the experiment is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Figures are compared against the stored reference only for this seed;
# other seeds are checked through exit codes, verdicts and the invariants
# below.
DEFAULT_SEED = 1
FIGURE_TOL = 1e-8


def normalize(value, inputs: str):
    """Replace the run's input directory, so outputs compare across runs."""
    if isinstance(value, str):
        return value.replace(inputs, "<inputs>")
    if isinstance(value, list):
        return [normalize(v, inputs) for v in value]
    if isinstance(value, dict):
        return {k: normalize(v, inputs) for k, v in value.items()}
    return value


def figures_differ(a, b, path: str = "") -> list[str]:
    """Paths where two JSON values differ; numbers may differ by 1e-8."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return [] if a == b else [f"{path}: {a!r} != {b!r}"]
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b or _close(a, b):
            return []
        return [f"{path}: {a!r} != {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return [f"{path}: keys {sorted(set(a) ^ set(b))} differ"]
        return [d for k in sorted(a) for d in figures_differ(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in figures_differ(x, y, f"{path}[{i}]")]
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]


def load_reference(workload: str) -> list[dict]:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def against_reference(output: dict, expected: dict) -> list[str]:
    problems = []
    if output["argv"] != expected["argv"]:
        return [f"argv {output['argv']} != reference {expected['argv']}"]
    if output["exit_code"] != expected["exit_code"]:
        problems.append(f"exit code {output['exit_code']} != {expected['exit_code']}")
    got, want = output["report"], expected["report"]
    verdicts = [(v["name"], v["passed"]) for v in got["verdicts"]]
    if verdicts != [(v["name"], v["passed"]) for v in want["verdicts"]]:
        problems.append(f"verdicts {verdicts} differ from the reference")
    problems += figures_differ(got["results"], want["results"], "results")
    problems += figures_differ(got["config"], want["config"], "config")
    return problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FIGURE_TOL * max(1.0, abs(a), abs(b))


def _spectrum_invariants(r: dict) -> list[str]:
    eigs = r["eigenvalues"]
    problems = []
    if r["vertices"] != r["group_order"] // r["stabilizer_order"] or len(eigs) != r["vertices"]:
        problems.append("vertex count does not match the coset count or the spectrum")
        return problems
    if any(x < y for x, y in zip(eigs, eigs[1:])):
        problems.append("eigenvalues are not in descending order")
    if not _close(eigs[0], 1.0) or min(eigs) < -1.0 - FIGURE_TOL:
        problems.append("spectrum leaves [-1, 1] or does not lead with 1")
    if len(eigs) > 1:
        if r["lambda2"] != eigs[1] or r["lambda_min"] != eigs[-1]:
            problems.append("lambda2 / lambda_min do not match the spectrum")
        if not _close(r["gap"], min(max(1.0 - eigs[1], 0.0), 2.0)):
            problems.append("gap is not 1 - lambda2")
        if not _close(r["two_sided_lambda"], max(abs(eigs[1]), abs(eigs[-1]))):
            problems.append("two-sided lambda is not max(|lambda2|, |lambda_min|)")
        if r["connected"] != (r["gap"] > 1e-9):
            problems.append("connectivity disagrees with the multiplicity of eigenvalue 1")
        if r["connected"] and r["bipartite"] != _close(eigs[-1], -1.0):
            problems.append("bipartiteness disagrees with eigenvalue -1")
    return problems


def _theta_invariants(r: dict) -> list[str]:
    problems = []
    if r["omega"] != r["group_order"] // r["stabilizer_order"]:
        problems.append("omega is not the coset count")
    if not 1.0 - 1e-12 <= r["theta"] <= r["omega"] + 1e-9:
        problems.append("theta outside [1, omega]")
    if not _close(r["log_theta"], math.log(r["theta"])):
        problems.append("log_theta is not log(theta)")
    return problems


def _bounds_invariants(r: dict) -> list[str]:
    problems = []
    if r["measured_gap"] > r["glwi_bound"] + FIGURE_TOL:
        problems.append("measured gap exceeds the subgroup bound")
    if r["abelian_bound"] is not None and r["measured_gap"] > r["abelian_bound"] + FIGURE_TOL:
        problems.append("measured gap exceeds the abelian bound")
    if r["nilpotent_bound"] is not None and r["measured_gap"] > r["nilpotent_bound"] + FIGURE_TOL:
        problems.append("measured gap exceeds the nilpotent bound")
    return problems


def _thm1_invariants(r: dict) -> list[str]:
    lambdas = r["lambdas"]
    problems = []
    if len(lambdas) != r["trials"]:
        problems.append("one lambda per trial expected")
    elif not _close(r["empirical_mean"], sum(lambdas) / len(lambdas)):
        problems.append("empirical mean is not the mean of the lambdas")
    elif not _close(r["empirical_tail"], sum(v >= r["epsilon"] for v in lambdas) / len(lambdas)):
        problems.append("empirical tail is not the share of lambdas >= epsilon")
    return problems


def _nilpotent_invariants(r: dict) -> list[str]:
    problems = []
    if r["group_order"] % r["omega"]:
        problems.append("omega does not divide the group order")
    if not 0 <= r["derived_index_checked"] <= r["instances"]:
        problems.append("more derived-index checks than instances")
    return problems


_INVARIANTS = {
    "spectrum": _spectrum_invariants,
    "theta": _theta_invariants,
    "bounds": _bounds_invariants,
    "verify-thm1": _thm1_invariants,
    "verify-nilpotent": _nilpotent_invariants,
}


def invariants(output: dict) -> list[str]:
    """Checks that hold on every seed: exit code, verdicts, identities."""
    report = output["report"]
    if report is None:
        return [f"no report (exit code {output['exit_code']})"]
    problems = []
    if output["exit_code"] != 0:
        problems.append(f"exit code {output['exit_code']}")
    failed = [v["name"] for v in report["verdicts"] if not v["passed"]]
    if failed:
        problems.append(f"failed verdicts {failed}")
    command = report["config"]["command"]
    return problems + _INVARIANTS[command](report["results"])
