"""Command-line driver: parse an experiment, run it, emit a report.

Every report embeds the full configuration echo, the seed, the measured
figures, and one pass/fail verdict per asserted inequality.  The process
exits nonzero exactly when some asserted inequality failed; the
counterexample search reports its witnesses as a success.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .bounds import build_bound_report, derived_index_check, nilpotent_gap_bound, theta
from .catalog import resolve_action, resolve_group
from .errors import SchreierLabError
from .montecarlo import (
    run_expansion_trials,
    sample_multiset,
    sample_symmetric_multiset,
)
from .notation import (
    multiset_to_text,
    parse_multiset_text,
    permutation_to_text,
)
from .permutations import (
    DEFAULT_ORDER_CAP,
    DEFAULT_SUBGROUP_LIMIT,
    lower_central_series,
    right_transversal,
)
from .schreier import (
    SymmetricMultiset,
    connectivity_and_bipartiteness,
    dedup_counterexample_search,
    rs_induce,
    schreier_graph,
    symmetrize,
)
from .spectral import DEFAULT_DIM_CAP, GAP_TOL, dump_matrix, spectral_summary
from .sweeps import run_all

COMMANDS = (
    "spectrum",
    "bounds",
    "theta",
    "rs-induce",
    "verify-thm1",
    "verify-nilpotent",
    "search-counterexample",
    "sweep",
)


@dataclass
class ExperimentConfig:
    """One experiment: what to run, on what, with which caps."""

    command: str
    group_spec: Optional[str] = None
    action_spec: str = "regular"
    multiset_spec: Optional[str] = None
    subgroup_spec: Optional[str] = None
    symmetrize: bool = False
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    trials: Optional[int] = None
    seed: Optional[int] = None
    output: Optional[str] = None
    format: str = "json"
    cap_order: int = DEFAULT_ORDER_CAP
    cap_dim: int = DEFAULT_DIM_CAP
    cap_subgroups: int = DEFAULT_SUBGROUP_LIMIT
    dump_matrix_path: Optional[str] = None

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        for cap_name in ("cap_order", "cap_dim", "cap_subgroups"):
            if getattr(self, cap_name) < 1:
                raise ValueError(f"{cap_name} must be positive")
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, not {self.format!r}")
        if self.command != "sweep" and not self.group_spec:
            raise ValueError(f"command {self.command} needs --group")
        if (
            self.multiset_spec == "all-symmetric-subsets"
            and self.command != "search-counterexample"
        ):
            raise ValueError(
                "all-symmetric-subsets is only meaningful for search-counterexample"
            )
        if self.randomized() and self.seed is None:
            raise ValueError(f"command {self.command} draws randomness: --seed is required")

    def randomized(self) -> bool:
        if self.command in ("verify-thm1", "verify-nilpotent"):
            return self.multiset_spec is None or self.multiset_spec.startswith("random:")
        return bool(self.multiset_spec and self.multiset_spec.startswith("random:"))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(**data)


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class Report:
    config: ExperimentConfig
    results: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "seed": self.config.seed,
            "results": self.results,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "ok": self.ok,
        }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, _fmt(value)))


def render_report(report: Report) -> str:
    if report.config.format == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if report.config.command == "verify-thm1" and "lambdas" in report.results:
        lines = ["trial,lambda"]
        for i, value in enumerate(report.results["lambdas"]):
            lines.append(f"{i},{_fmt(value)}")
        return "\n".join(lines) + "\n"
    if report.config.command == "sweep":
        lines = ["key,passed,seconds,title"]
        for row in report.results["criteria"]:
            lines.append(
                f"{row['key']},{row['passed']},{_fmt(row['seconds'])},{row['title']}"
            )
        return "\n".join(lines) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", report.to_dict(), rows)
    return "\n".join(f"{k},{v}" for k, v in rows) + "\n"


def _resolve_multiset(config: ExperimentConfig, group) -> SymmetricMultiset:
    spec = config.multiset_spec
    if not spec:
        raise ValueError(f"command {config.command} needs --set")
    if spec.startswith("random:"):
        m = int(spec.split(":", 1)[1])
        rng = np.random.default_rng(config.seed)
        if config.symmetrize:
            return symmetrize(sample_multiset(group, m, rng))
        return sample_symmetric_multiset(group, m, rng)
    entries = parse_multiset_text(
        Path(spec).read_text(encoding="utf-8"), degree=group.degree
    )
    for p, _ in entries:
        if p not in group:
            raise ValueError(
                f"multiset element {permutation_to_text(p)} lies outside the group"
            )
    if config.symmetrize:
        return symmetrize(entries)
    return SymmetricMultiset(entries)


def _multiset_json(multiset: SymmetricMultiset) -> list:
    return [[permutation_to_text(p), m] for p, m in multiset.entries]


def _spectrum_results(group, stabilizer, multiset, config) -> tuple[dict, object]:
    graph = schreier_graph(group, stabilizer, multiset)
    summary = spectral_summary(graph, dim_cap=config.cap_dim)
    reachability = connectivity_and_bipartiteness(graph)
    results = {
        "group_order": group.order,
        "stabilizer_order": stabilizer.order,
        "vertices": graph.vertex_count,
        "multiset_size": multiset.size,
        "eigenvalues": list(summary.eigenvalues),
        "lambda2": summary.lambda2,
        "lambda_min": summary.lambda_min,
        "gap": summary.gap,
        "two_sided_lambda": summary.two_sided_lambda,
        "connected": reachability.connected,
        "bipartite": reachability.bipartite,
    }
    if config.dump_matrix_path:
        Path(config.dump_matrix_path).write_text(
            dump_matrix(graph.walk), encoding="utf-8"
        )
        results["matrix_dump"] = config.dump_matrix_path
    return results, summary


def _cmd_spectrum(config: ExperimentConfig, report: Report) -> None:
    group = resolve_group(config.group_spec, cap=config.cap_order)
    stabilizer = resolve_action(group, config.action_spec)
    multiset = _resolve_multiset(config, group)
    results, _ = _spectrum_results(group, stabilizer, multiset, config)
    report.results = results


def _cmd_bounds(config: ExperimentConfig, report: Report) -> None:
    group = resolve_group(config.group_spec, cap=config.cap_order)
    stabilizer = resolve_action(group, config.action_spec)
    multiset = _resolve_multiset(config, group)
    bound_report = build_bound_report(
        group,
        stabilizer,
        multiset,
        epsilon=config.epsilon,
        limit=config.cap_subgroups,
        dim_cap=config.cap_dim,
    )
    report.results = bound_report.to_dict()
    omega = group.order // stabilizer.order
    report.verdicts.append(
        Verdict(
            "theta-range",
            1.0 - 1e-12 <= bound_report.theta <= omega + 1e-9,
            f"theta={bound_report.theta:.6g}, omega={omega}",
        )
    )
    report.verdicts.append(
        Verdict(
            "gap-under-subgroup-bound",
            bound_report.measured_gap <= bound_report.glwi_bound + GAP_TOL,
            f"gap={bound_report.measured_gap:.6g} vs {bound_report.glwi_bound:.6g}",
        )
    )
    if bound_report.abelian_bound is not None:
        report.verdicts.append(
            Verdict(
                "gap-under-abelian-bound",
                bound_report.measured_gap <= bound_report.abelian_bound + GAP_TOL,
                f"gap={bound_report.measured_gap:.6g} vs {bound_report.abelian_bound:.6g}",
            )
        )
    if bound_report.nilpotent_bound is not None:
        report.verdicts.append(
            Verdict(
                "gap-under-nilpotent-bound",
                bound_report.measured_gap <= bound_report.nilpotent_bound + GAP_TOL,
                f"gap={bound_report.measured_gap:.6g} vs {bound_report.nilpotent_bound:.6g}",
            )
        )
    if (
        bound_report.min_set_size is not None
        and bound_report.epsilon_used is not None
        and bound_report.measured_gap >= bound_report.epsilon_used
    ):
        report.verdicts.append(
            Verdict(
                "expanding-set-large-enough",
                multiset.size >= bound_report.min_set_size - 1e-9,
                f"|S|={multiset.size} vs {bound_report.min_set_size:.6g}",
            )
        )


def _cmd_theta(config: ExperimentConfig, report: Report) -> None:
    group = resolve_group(config.group_spec, cap=config.cap_order)
    stabilizer = resolve_action(group, config.action_spec)
    value = theta(group, stabilizer, limit=config.cap_subgroups)
    omega = group.order // stabilizer.order
    report.results = {
        "theta": value,
        "log_theta": math.log(value),
        "omega": omega,
        "group_order": group.order,
        "stabilizer_order": stabilizer.order,
    }
    report.verdicts.append(
        Verdict("theta-range", 1.0 - 1e-12 <= value <= omega + 1e-9, f"theta={value:.6g}")
    )


def _cmd_rs_induce(config: ExperimentConfig, report: Report) -> None:
    group = resolve_group(config.group_spec, cap=config.cap_order)
    stabilizer = resolve_action(group, config.action_spec)
    if not config.subgroup_spec:
        raise ValueError("rs-induce needs --subgroup")
    subgroup_gens = resolve_group(
        config.subgroup_spec, cap=config.cap_order, degree=group.degree
    )
    subgroup = group.subgroup_generated(subgroup_gens.generators)
    multiset = _resolve_multiset(config, group)
    transversal = right_transversal(group, subgroup)
    induced = rs_induce(group, subgroup, transversal, multiset)
    index = group.order // subgroup.order
    report.results = {
        "group_order": group.order,
        "subgroup_order": subgroup.order,
        "index": index,
        "input_size": multiset.size,
        "induced_size": induced.size,
        "induced_multiset": _multiset_json(induced),
        "induced_multiset_text": multiset_to_text(induced.entries),
        "transversal": [permutation_to_text(p) for p in transversal.reps],
        "stabilizer_order": stabilizer.order,
    }
    report.verdicts.append(
        Verdict(
            "size-law",
            induced.size == index * multiset.size,
            f"{induced.size} == {index} * {multiset.size}",
        )
    )
    report.verdicts.append(
        Verdict(
            "inverse-compatibility",
            rs_induce(group, subgroup, transversal, multiset.inverse()) == induced.inverse(),
            "induced inverse equals inverse induced",
        )
    )
    report.verdicts.append(
        Verdict(
            "lands-in-subgroup",
            all(p in subgroup for p in induced.support()),
            "every induced element lies in the subgroup",
        )
    )


def _cmd_verify_thm1(config: ExperimentConfig, report: Report) -> None:
    group = resolve_group(config.group_spec, cap=config.cap_order)
    stabilizer = resolve_action(group, config.action_spec)
    epsilon = 0.25 if config.epsilon is None else config.epsilon
    delta = 0.25 if config.delta is None else config.delta
    trials = 400 if config.trials is None else config.trials
    stats = run_expansion_trials(group, stabilizer, epsilon, delta, trials, config.seed)
    report.results = stats.to_dict()
    slack = 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    report.verdicts.append(
        Verdict(
            "empirical-tail",
            stats.empirical_tail <= delta + slack,
            f"tail={stats.empirical_tail:.6g} vs {delta + slack:.6g}",
        )
    )
    report.verdicts.append(
        Verdict(
            "empirical-mean",
            stats.empirical_mean <= epsilon + delta,
            f"mean={stats.empirical_mean:.6g} vs {epsilon + delta:.6g}",
        )
    )


def _cmd_verify_nilpotent(config: ExperimentConfig, report: Report) -> None:
    group = resolve_group(config.group_spec, cap=config.cap_order)
    stabilizer = resolve_action(group, config.action_spec)
    class_c = lower_central_series(group)[1]
    if class_c is None or class_c < 1:
        raise ValueError("the group is not nilpotent of class >= 1")
    omega = group.order // stabilizer.order
    if config.multiset_spec and not config.multiset_spec.startswith("random:"):
        multisets = [_resolve_multiset(config, group)]
    else:
        trials = 100 if config.trials is None else config.trials
        rng = np.random.default_rng(config.seed)
        multisets = [
            sample_symmetric_multiset(group, 2 + (i % 7), rng) for i in range(trials)
        ]
    gap_violations = 0
    derived_checked = 0
    derived_violations = 0
    worst_margin = math.inf
    for multiset in multisets:
        summary = spectral_summary(
            schreier_graph(group, stabilizer, multiset), dim_cap=config.cap_dim
        )
        bound = nilpotent_gap_bound(omega, multiset.size, class_c)
        worst_margin = min(worst_margin, bound - summary.gap)
        if summary.gap > bound + GAP_TOL:
            gap_violations += 1
        derived = derived_index_check(group, stabilizer, multiset)
        if derived.hypotheses_hold:
            derived_checked += 1
            if not derived.ok:
                derived_violations += 1
    report.results = {
        "group_order": group.order,
        "omega": omega,
        "nilpotency_class": class_c,
        "instances": len(multisets),
        "gap_violations": gap_violations,
        "derived_index_checked": derived_checked,
        "derived_index_violations": derived_violations,
        "worst_margin": worst_margin,
    }
    report.verdicts.append(
        Verdict(
            "gap-under-nilpotent-bound",
            gap_violations == 0,
            f"{gap_violations} violations over {len(multisets)} instances",
        )
    )
    report.verdicts.append(
        Verdict(
            "derived-index-inequality",
            derived_violations == 0,
            f"{derived_violations} violations over {derived_checked} applicable instances",
        )
    )


def _cmd_search(config: ExperimentConfig, report: Report) -> None:
    group = resolve_group(config.group_spec, cap=config.cap_order)
    stabilizer = resolve_action(group, config.action_spec)
    if config.multiset_spec not in (None, "all-symmetric-subsets"):
        raise ValueError(
            "the search is exhaustive; --set accepts only all-symmetric-subsets"
        )
    if not config.subgroup_spec:
        raise ValueError("search-counterexample needs --subgroup")
    subgroup_gens = resolve_group(
        config.subgroup_spec, cap=config.cap_order, degree=group.degree
    )
    subgroup = group.subgroup_generated(subgroup_gens.generators)
    outcome = dedup_counterexample_search(group, subgroup, stabilizer)
    report.results = {
        "sets_examined": outcome.sets_examined,
        "connected_sets": outcome.connected_count,
        "witness_count": len(outcome.witnesses),
        "used_default_transversal": outcome.used_default_transversal,
        "transversals_scanned": outcome.transversals_scanned,
        "witnesses": [
            {
                "connection_set": _multiset_json(w.connection_set),
                "transversal": [permutation_to_text(p) for p in w.transversal_reps],
                "parent_gap": w.parent_gap,
                "induced_multiset_gap": w.induced_multiset_gap,
                "induced_set_gap": w.induced_set_gap,
            }
            for w in outcome.witnesses
        ],
    }
    report.verdicts.append(
        Verdict(
            "multiset-monotonicity",
            len(outcome.multiset_violations) == 0,
            f"{len(outcome.multiset_violations)} multiset gap violations (must be 0)",
        )
    )


def _cmd_sweep(config: ExperimentConfig, report: Report) -> None:
    results = run_all(progress=lambda r: print(r.line(), file=sys.stderr, flush=True))
    report.results = {
        "criteria": [
            {
                "key": r.key,
                "title": r.title,
                "passed": r.passed,
                "seconds": r.seconds,
                "details": r.details,
            }
            for r in results
        ]
    }
    for r in results:
        report.verdicts.append(Verdict(r.key, r.passed, r.title))


_RUNNERS = {
    "spectrum": _cmd_spectrum,
    "bounds": _cmd_bounds,
    "theta": _cmd_theta,
    "rs-induce": _cmd_rs_induce,
    "verify-thm1": _cmd_verify_thm1,
    "verify-nilpotent": _cmd_verify_nilpotent,
    "search-counterexample": _cmd_search,
    "sweep": _cmd_sweep,
}


def run(config: ExperimentConfig) -> Report:
    """Execute one experiment and return its report."""
    config.validate()
    report = Report(config=config)
    _RUNNERS[config.command](config, report)
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schreierlab",
        description="Schreier graph spectra and expansion bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, group=True, multiset=False, random=False):
        if group:
            p.add_argument("--group", required=True, help="catalog name or group-spec file")
            p.add_argument(
                "--action",
                default="regular",
                help="regular | natural | cosets-of:FILE (default regular)",
            )
        if multiset:
            p.add_argument(
                "--set",
                dest="multiset",
                help="multiset file, or random:m (needs --seed; m uniform draws "
                "joined with their inverses under --symmetrize, otherwise a "
                "symmetric sample of total size m)",
            )
            p.add_argument(
                "--symmetrize",
                action="store_true",
                help="join the multiset with its inverses before use",
            )
        if random:
            p.add_argument("--epsilon", type=float, default=None)
            p.add_argument("--delta", type=float, default=None)
            p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--cap-order", type=int, default=DEFAULT_ORDER_CAP)
        p.add_argument("--cap-dim", type=int, default=DEFAULT_DIM_CAP)
        p.add_argument("--cap-subgroups", type=int, default=DEFAULT_SUBGROUP_LIMIT)

    p = sub.add_parser("spectrum", help="eigenvalues and gap of one Schreier graph")
    common(p, multiset=True)
    p.add_argument("--dump-matrix", default=None, help="write the walk matrix here")

    p = sub.add_parser("bounds", help="evaluate every applicable bound")
    common(p, multiset=True, random=True)

    p = sub.add_parser("theta", help="the abelian-section invariant of an action")
    common(p)

    p = sub.add_parser("rs-induce", help="rewrite a multiset into a subgroup")
    common(p, multiset=True)
    p.add_argument("--subgroup", required=True, help="catalog name or file for H")

    p = sub.add_parser("verify-thm1", help="random multiset expansion trials")
    common(p, random=True)

    p = sub.add_parser("verify-nilpotent", help="nilpotent gap bound trials")
    common(p, multiset=True, random=True)

    p = sub.add_parser(
        "search-counterexample", help="exhaustive dedup counterexample search"
    )
    common(p, multiset=True)
    p.add_argument("--subgroup", required=True, help="catalog name or file for H")

    p = sub.add_parser("sweep", help="run the whole verification matrix")
    common(p, group=False)

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        command=args.command,
        group_spec=getattr(args, "group", None),
        action_spec=getattr(args, "action", "regular"),
        multiset_spec=getattr(args, "multiset", None),
        subgroup_spec=getattr(args, "subgroup", None),
        symmetrize=getattr(args, "symmetrize", False),
        epsilon=getattr(args, "epsilon", None),
        delta=getattr(args, "delta", None),
        trials=getattr(args, "trials", None),
        seed=args.seed,
        output=args.out,
        format=args.format,
        cap_order=args.cap_order,
        cap_dim=args.cap_dim,
        cap_subgroups=args.cap_subgroups,
        dump_matrix_path=getattr(args, "dump_matrix", None),
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        report = run(config)
    except (SchreierLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_report(report)
    if config.output:
        Path(config.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
