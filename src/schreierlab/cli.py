"""Command-line driver: parse an experiment, run it, emit a report.

Every report embeds the full configuration echo, the seed, the measured
figures, and one pass/fail verdict per asserted inequality.  The process
exits nonzero exactly when some asserted inequality failed; the
counterexample search reports its witnesses as a success.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bounds import build_bound_report, log_theta, nilpotent_bound, nilpotent_verdicts
from .catalog import resolve_action, resolve_group, resolve_subgroup
from .errors import SchreierLabError
from .inequalities import (
    ABELIAN_BOUND,
    DERIVED_INDEX,
    NILPOTENT_BOUND,
    SET_SIZE,
    SUBGROUP_BOUND,
    Tally,
    Verdict,
    theta_range,
)
from .montecarlo import (
    cycling_size,
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
    Transversal,
    lower_central_series,
)
from .schreier import (
    SymmetricMultiset,
    connectivity_and_bipartiteness,
    dedup_counterexample_search,
    induce_with_laws,
    schreier_graph,
    symmetrize,
)
from .spectral import DEFAULT_DIM_CAP, dump_matrix, spectral_summary
from .sweeps import run_all


@dataclass
class ExperimentConfig:
    """One experiment: what to run, on what, with which caps.

    Each field but ``command`` is set by one flag of ``_FLAGS``, and a
    command reads only the fields its ``_COMMANDS`` entry lists:
    ``validate`` refuses any other field that differs from its default.
    ``epsilon``, ``delta`` and ``trials`` default to None, which the command
    resolves: verify-thm1 to epsilon = delta = 0.25 and 400 trials,
    verify-nilpotent to 100 trials; bounds without one reports no least
    multiset size.
    """

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
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        reads = _COMMANDS[self.command].reads
        for f in fields(self):
            if f.name in _FLAGS and f.name not in reads and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.command} takes no {_FLAGS[f.name][0]}")
        for cap_name in ("cap_order", "cap_dim", "cap_subgroups"):
            if getattr(self, cap_name) < 1:
                raise ValueError(f"{cap_name} must be positive")
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, not {self.format!r}")
        if "group_spec" in reads and not self.group_spec:
            raise ValueError(f"command {self.command} needs --group")
        if "subgroup_spec" in reads and not self.subgroup_spec:
            raise ValueError(f"{self.command} needs --subgroup")
        if self.symmetrize and not self.multiset_spec:
            raise ValueError("--symmetrize needs --set")
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"--trials must be at least 1, not {self.trials}")
        self.random_size()  # refuses an m that is not a positive integer
        if self.randomized():
            if self.seed is None:
                raise ValueError(f"command {self.command} draws randomness: --seed is required")
            return
        for flag, value in (("--seed", self.seed), ("--trials", self.trials)):
            if value is not None:
                raise ValueError(f"{self.command} takes no {flag} without --set random:m")

    def random_size(self) -> Optional[int]:
        """The m of ``--set random:m``, None for any other --set."""
        if not (self.multiset_spec and self.multiset_spec.startswith("random:")):
            return None
        text = self.multiset_spec.split(":", 1)[1]
        try:
            m = int(text)
        except ValueError:
            raise ValueError(f"--set random:m needs an integer m, not {text!r}") from None
        if m < 1:
            raise ValueError(f"--set random:m needs m >= 1, not {m}")
        return m

    def randomized(self) -> bool:
        if self.command in ("verify-thm1", "verify-nilpotent"):
            return self.multiset_spec is None or self.multiset_spec.startswith("random:")
        return bool(self.multiset_spec and self.multiset_spec.startswith("random:"))

    def to_dict(self) -> dict:
        return asdict(self)


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
            "verdicts": [asdict(v) for v in self.verdicts],
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
            seconds = _fmt(row["seconds"])
            lines.append(f"{row['key']},{row['passed']},{seconds},{row['title']}")
            if row["budget"] is not None:
                budget = row["budget"]
                lines.append(f"{budget['name']},{budget['passed']},{seconds},{budget['detail']}")
        return "\n".join(lines) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", report.to_dict(), rows)
    return "\n".join(f"{k},{v}" for k, v in rows) + "\n"


def _random_multiset(config: ExperimentConfig, group, rng, size=None) -> SymmetricMultiset:
    """One draw for --set random:m: m uniform draws joined with their
    inverses under --symmetrize, otherwise a symmetric sample of total size m;
    without --set, a symmetric sample of total size ``size``."""
    m = config.random_size() or size
    if config.symmetrize:
        return symmetrize(group, [(i, 1) for i in sample_multiset(group, m, rng)])
    return sample_symmetric_multiset(group, m, rng)


def _resolve_multiset(config: ExperimentConfig, group) -> SymmetricMultiset:
    spec = config.multiset_spec
    if not spec:
        raise ValueError(f"command {config.command} needs --set")
    if spec.startswith("random:"):
        return _random_multiset(config, group, np.random.default_rng(config.seed))
    entries = []
    for p, m in parse_multiset_text(Path(spec).read_text(encoding="utf-8"), degree=group.degree):
        if p not in group:
            raise ValueError(
                f"multiset element {permutation_to_text(p)} lies outside the group"
            )
        entries.append((group.index_of(p), m))
    if config.symmetrize:
        return symmetrize(group, entries)
    return SymmetricMultiset(group, entries)


def _printed(multiset: SymmetricMultiset) -> list:
    """The (permutation, multiplicity) entries in image-tuple order, the
    order reports print them in."""
    elements = multiset.group.elements
    return sorted(((elements[i], m) for i, m in multiset.entries), key=lambda e: e[0].images)


def _multiset_json(multiset: SymmetricMultiset) -> list:
    return [[permutation_to_text(p), m] for p, m in _printed(multiset)]


# Every runner takes the configuration, the report it fills in, and what
# run() resolved: the group, the action's stabilizer and the --subgroup
# (None where the command has no use for them).


def _cmd_spectrum(config, report, group, stabilizer, subgroup) -> None:
    multiset = _resolve_multiset(config, group)
    graph = schreier_graph(group, stabilizer, multiset)
    summary = spectral_summary(graph, dim_cap=config.cap_dim)
    reachability = connectivity_and_bipartiteness(graph)
    report.results = {
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
        report.results["matrix_dump"] = config.dump_matrix_path


def _cmd_bounds(config, report, group, stabilizer, subgroup) -> None:
    multiset = _resolve_multiset(config, group)
    bounds = build_bound_report(
        group,
        stabilizer,
        multiset,
        epsilon=config.epsilon,
        limit=config.cap_subgroups,
        dim_cap=config.cap_dim,
    )
    report.results = bounds.to_dict()
    omega = group.order // stabilizer.order
    report.verdicts.append(
        theta_range(bounds.theta, omega, f"theta={bounds.theta:.6g}, omega={omega}")
    )
    gap = bounds.measured_gap
    for inequality, bound in (
        (SUBGROUP_BOUND, bounds.glwi_bound),
        (ABELIAN_BOUND, bounds.abelian_bound),
        (NILPOTENT_BOUND, bounds.nilpotent_bound),
    ):
        if bound is not None:
            report.verdicts.append(inequality.check(gap, bound, f"gap={gap:.6g} vs {bound:.6g}"))
    if bounds.epsilon_used is not None and gap >= bounds.epsilon_used:
        needed = bounds.min_set_size
        detail = f"|S|={multiset.size} vs {needed:.6g}"
        report.verdicts.append(SET_SIZE.check(multiset.size, needed, detail))


def _cmd_theta(config, report, group, stabilizer, subgroup) -> None:
    log_value = log_theta(group, stabilizer, limit=config.cap_subgroups)
    value = math.exp(log_value)
    omega = group.order // stabilizer.order
    report.results = {
        "theta": value,
        "log_theta": log_value,
        "omega": omega,
        "group_order": group.order,
        "stabilizer_order": stabilizer.order,
    }
    report.verdicts.append(theta_range(value, omega, f"theta={value:.6g}"))


def _cmd_rs_induce(config, report, group, stabilizer, subgroup) -> None:
    multiset = _resolve_multiset(config, group)
    transversal = Transversal(group, subgroup)
    induction = induce_with_laws(transversal, multiset)
    induced = induction.multiset
    index = group.order // subgroup.order
    report.results = {
        "group_order": group.order,
        "subgroup_order": subgroup.order,
        "index": index,
        "input_size": multiset.size,
        "induced_size": induced.size,
        "induced_multiset": _multiset_json(induced),
        "induced_multiset_text": multiset_to_text(_printed(induced)),
        "transversal": [permutation_to_text(group.elements[i]) for i in transversal.rep_indices],
        "stabilizer_order": stabilizer.order,
    }
    report.verdicts.append(induction.size_law)


def _cmd_verify_thm1(config, report, group, stabilizer, subgroup) -> None:
    epsilon = 0.25 if config.epsilon is None else config.epsilon
    delta = 0.25 if config.delta is None else config.delta
    trials = 400 if config.trials is None else config.trials
    stats = run_expansion_trials(
        group, stabilizer, epsilon, delta, trials, config.seed, config.cap_dim
    )
    report.results = stats.to_dict()
    report.verdicts += stats.verdicts()


def _cmd_verify_nilpotent(config, report, group, stabilizer, subgroup) -> None:
    class_c = lower_central_series(group)[1]
    if class_c is None or class_c < 1:
        raise ValueError("the group is not nilpotent of class >= 1")
    omega = group.order // stabilizer.order
    if config.randomized():
        rng = np.random.default_rng(config.seed)
        trials = range(100 if config.trials is None else config.trials)
        multisets = [_random_multiset(config, group, rng, cycling_size(i)) for i in trials]
    else:
        multisets = [_resolve_multiset(config, group)]
    size = min(multiset.size for multiset in multisets)
    if nilpotent_bound(group, stabilizer, size)[1] is None:
        raise ValueError(f"the nilpotent bound needs |S| >= 2, and --set gives |S| = {size}")
    gaps, derived = Tally(NILPOTENT_BOUND.name), Tally(DERIVED_INDEX.name)
    for multiset in multisets:
        summary = spectral_summary(
            schreier_graph(group, stabilizer, multiset), dim_cap=config.cap_dim
        )
        bound, index = nilpotent_verdicts(group, stabilizer, multiset, summary.gap)
        gaps.add(bound)
        if index is not None:
            derived.add(index)
    report.results = {
        "group_order": group.order,
        "omega": omega,
        "nilpotency_class": class_c,
        "instances": len(multisets),
        "gap_violations": gaps.violations,
        "derived_index_checked": derived.count,
        "derived_index_violations": derived.violations,
        "worst_margin": gaps.margin,
    }
    report.verdicts += [
        gaps.verdict(f"{gaps.violations} violations over {len(multisets)} instances"),
        derived.verdict(
            f"{derived.violations} violations over {derived.count} applicable instances"
        ),
    ]


def _cmd_search(config, report, group, stabilizer, subgroup) -> None:
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
                "transversal": [
                    permutation_to_text(group.elements[i]) for i in w.transversal_reps
                ],
                "parent_gap": w.parent_gap,
                "induced_multiset_gap": w.induced_multiset_gap,
                "induced_set_gap": w.induced_set_gap,
            }
            for w in outcome.witnesses
        ],
    }
    report.verdicts.append(
        outcome.monotonicity.verdict(
            f"{outcome.monotonicity.violations} multiset gap violations (must be 0)"
        )
    )


def _cmd_sweep(config, report, group, stabilizer, subgroup) -> None:
    results = run_all(progress=lambda r: print(r.line(), file=sys.stderr, flush=True))
    report.results = {"criteria": [asdict(r) for r in results]}
    for r in results:
        report.verdicts.append(Verdict(r.key, r.passed, r.title))
        if r.budget is not None:
            report.verdicts.append(r.budget)


# Each flag once, keyed by the ExperimentConfig field it sets (its dest).  A
# flag that takes a value shows its name as metavar unless its entry names one.
_FLAGS = {
    "group_spec": ("--group", {"required": True, "help": "catalog name or group-spec file"}),
    "action_spec": ("--action", {"help": "regular | natural | cosets-of:SPEC (default regular)"}),
    "multiset_spec": ("--set", {
        "metavar": "MULTISET",
        "help": "multiset file, or random:m (needs --seed; m uniform draws joined with their "
        "inverses under --symmetrize, otherwise a symmetric sample of total size m)",
    }),
    "subgroup_spec": ("--subgroup", {"required": True, "help": "catalog name or file for H"}),
    "symmetrize": ("--symmetrize", {"action": "store_true",
                                    "help": "join the multiset with its inverses before use"}),
    "epsilon": ("--epsilon", {"type": float}),
    "delta": ("--delta", {"type": float}),
    "trials": ("--trials", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "output": ("--out", {"help": "report path (default stdout)"}),
    "format": ("--format", {"choices": ("json", "csv")}),
    "cap_order": ("--cap-order", {"type": int}),
    "cap_dim": ("--cap-dim", {"type": int}),
    "cap_subgroups": ("--cap-subgroups", {"type": int}),
    "dump_matrix_path": ("--dump-matrix", {"help": "write the walk matrix here"}),
}


class _Command(NamedTuple):
    runner: Callable
    help: str
    reads: tuple  # the ExperimentConfig fields the command reads


_REPORT = ("output", "format")
_GROUP = ("group_spec", "action_spec", "cap_order") + _REPORT
_SET = _GROUP + ("multiset_spec", "symmetrize", "seed")

_COMMANDS = {
    "spectrum": _Command(_cmd_spectrum, "eigenvalues and gap of one Schreier graph",
                         _SET + ("cap_dim", "dump_matrix_path")),
    "bounds": _Command(_cmd_bounds, "evaluate every applicable bound",
                       _SET + ("epsilon", "cap_dim", "cap_subgroups")),
    "theta": _Command(_cmd_theta, "the abelian-section invariant of an action",
                      _GROUP + ("cap_subgroups",)),
    "rs-induce": _Command(_cmd_rs_induce, "rewrite a multiset into a subgroup",
                          _SET + ("subgroup_spec",)),
    "verify-thm1": _Command(_cmd_verify_thm1, "random multiset expansion trials",
                            _GROUP + ("epsilon", "delta", "trials", "seed", "cap_dim")),
    "verify-nilpotent": _Command(_cmd_verify_nilpotent, "nilpotent gap bound trials",
                                 _SET + ("trials", "cap_dim")),
    "search-counterexample": _Command(_cmd_search, "exhaustive dedup counterexample search",
                                      _GROUP + ("subgroup_spec",)),
    "sweep": _Command(_cmd_sweep, "run the whole verification matrix", _REPORT),
}

def run(config: ExperimentConfig) -> Report:
    """Execute one experiment and return its report.

    The group and the action's stabilizer are resolved here for every
    command but ``sweep``, and the subgroup for the commands that take one.
    """
    config.validate()
    report = Report(config=config)
    group = stabilizer = subgroup = None
    if config.group_spec:
        group = resolve_group(config.group_spec, cap=config.cap_order)
        stabilizer = resolve_action(group, config.action_spec)
    if config.subgroup_spec:
        subgroup = resolve_subgroup(group, config.subgroup_spec)
    _COMMANDS[config.command].runner(config, report, group, stabilizer, subgroup)
    return report


@functools.cache  # built on the first main call, then reused: parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schreierlab",
        description="Schreier graph spectra and expansion bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for dest, (flag, options) in _FLAGS.items():
            if dest in command.reads:
                if "action" not in options and "choices" not in options:
                    options = {"metavar": flag[2:].upper().replace("-", "_"), **options}
                p.add_argument(flag, dest=dest, **options)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(**vars(args))


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
