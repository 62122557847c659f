"""Per-layer tracing of schreierlab, installed from outside the package.

Public entry points are wrapped in ``perf_counter`` spans that record name,
start, end and parent; spans are kept in flat arrays and written out at the
end.  ``FiniteGroup.mult`` and ``FiniteGroup._closure`` run millions of
times, so they are counted (``_closure`` and the coset-action products are
also timed) but never spanned.

The package binds many functions with ``from .x import y``, so a wrapper is
installed in every ``schreierlab`` module that holds the original object,
not only in the module that defines it.

Work is split into segments (one set-up, then one per job).  Each
segment keeps its own counters, and its spans are a contiguous range of
the arrays, so per-job figures need no bookkeeping inside the wrappers.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import weakref
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# span name prefix -> layer, for self-time shares; first match wins
LAYERS = (
    ("bench.", "bench"),
    ("catalog.", "catalog"),
    ("permutations.group_from_generators", "group"),
    ("permutations.intermediate_subgroups", "lattice"),
    ("permutations.CosetAction", "coset_action"),
    ("permutations.Transversal", "coset_action"),
    ("permutations.", "structure"),
    ("schreier.", "schreier"),
    ("spectral.", "spectral"),
    ("bounds.", "bounds"),
    ("montecarlo.", "montecarlo"),
    ("cli.", "cli"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for _, layer in LAYERS))


def layer_of(span_name: str) -> str:
    for prefix, layer in LAYERS:
        if span_name.startswith(prefix):
            return layer
    raise ValueError(f"span {span_name!r} belongs to no layer")


class Segment:
    """Counters and the span range of one set-up or one job."""

    def __init__(self, name: str, first_span: int):
        self.name = name
        self.first_span = first_span
        self.last_span = first_span
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.seen_actions: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.mult_mark = 0


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.segments: list[Segment] = []
        self.seg: Segment = Segment("idle", 0)
        self._mult = itertools.count()
        self.missing: list[str] = []

    # -- spans and segments ------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> float:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    def segment(self, name: str):
        """Context manager: everything inside counts toward a new segment."""
        tracer = self

        class _Scope:
            def __enter__(self_inner):
                seg = Segment(name, len(tracer.name))
                seg.mult_mark = next(tracer._mult)
                tracer.segments.append(seg)
                tracer.seg = seg
                self_inner.idx = tracer.open(tracer._name_id(f"bench.{name}"))
                return seg

            def __exit__(self_inner, *exc):
                tracer.close(self_inner.idx)
                seg = tracer.seg
                seg.counts["permutations.mult_calls"] = next(tracer._mult) - seg.mult_mark - 1
                seg.last_span = len(tracer.name)
                tracer.seg = Segment("idle", len(tracer.name))
                return False

        return _Scope()

    def self_times(self, seg: Segment) -> dict[str, float]:
        """Seconds of self time per layer within one segment."""
        lo, hi = seg.first_span, seg.last_span
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out = dict.fromkeys(LAYER_NAMES, 0.0)
        for i in range(lo, hi):
            layer = layer_of(self.span_names[self.name[i]])
            out[layer] += self.end[i] - self.start[i] - child[i - lo]
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            names = self.span_names
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )

    # -- wrappers ------------------------------------------------------------

    def spanned(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``after(token, args, result, seconds)``."""
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.close(idx)
            if after is not None:
                after(token, args, result, seconds)
            return result

        return wrapper

    def timed(self, calls_key, seconds_key, fn):
        """Count and time ``fn`` without recording spans."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts = tracer.seg.counts
                counts[seconds_key] += perf_counter() - t
                if calls_key:
                    counts[calls_key] += 1

        return wrapper

    def counted_mult(self, fn):
        bump = self._mult

        def mult(group, i, j, _next=next, _bump=bump, _fn=fn):
            _next(_bump)
            return _fn(group, i, j)

        functools.update_wrapper(mult, fn)
        return mult


def _rebind(original, wrapper, modules) -> None:
    """Point every module attribute that holds ``original`` at ``wrapper``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap schreierlab's entry points; record any that no longer exist."""
    from schreierlab import bounds, catalog, cli, montecarlo, permutations
    from schreierlab import schreier, spectral

    modules = [m for n, m in sys.modules.items() if n == "schreierlab" or n.startswith("schreierlab.")]

    def counts():
        return tracer.seg.counts

    def wrap_function(module, attr, span, before=None, after=None):
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(f"{module.__name__}.{attr}")
            return
        _rebind(original, tracer.spanned(span, original, before, after), modules)

    def wrap_method(cls, attr, make):
        original = cls.__dict__.get(attr)
        if original is None:
            tracer.missing.append(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, make(original))

    # catalog ------------------------------------------------------------
    def catalog_before(args):
        return counts()["permutations.group_from_generators_calls"]

    def catalog_after(builds_before, args, group, seconds):
        c = counts()
        c["catalog.groups"] += 1
        c["catalog.elements"] += group.order
        c["catalog.build_s"] += seconds
        if c["permutations.group_from_generators_calls"] == builds_before:
            c["catalog.cache_loads"] += 1

    wrap_function(catalog, "catalog_group", "catalog.catalog_group", catalog_before, catalog_after)

    # permutations ---------------------------------------------------------
    def gfg_after(_, args, group, seconds):
        counts()["permutations.group_from_generators_calls"] += 1
        if group.order == 5040 and group.degree == 7:
            tracer.seg.samples["micro.group_from_generators_sym7_s"].append(seconds)

    wrap_function(permutations, "group_from_generators", "permutations.group_from_generators",
                  after=gfg_after)

    def lattice_before(args):
        return counts()["permutations.closure_calls"]

    def lattice_after(closures_before, args, result, seconds):
        c = counts()
        c["permutations.lattice_calls"] += 1
        c["permutations.lattice_s"] += seconds
        attempted = c["permutations.closure_calls"] - closures_before
        if attempted:  # a cached interval neither finds nor attempts anything
            c["lattice.attempted"] += attempted
            c["permutations.lattice_subgroups"] += len(result)
        group, floor = args[0], args[1]
        if group.order == 120 and group.degree == 5 and floor.order == 1:
            tracer.seg.samples["micro.intermediate_subgroups_sym5_s"].append(seconds)

    wrap_function(permutations, "intermediate_subgroups", "permutations.intermediate_subgroups",
                  lattice_before, lattice_after)

    def derived_after(_, args, result, seconds):
        c = counts()
        c["permutations.derived_calls"] += 1
        c["permutations.derived_s"] += seconds

    wrap_function(permutations, "derived_subgroup", "permutations.derived_subgroup",
                  after=derived_after)
    wrap_function(permutations, "lower_central_series", "permutations.lower_central_series")
    wrap_function(permutations, "index2_overgroups", "permutations.index2_overgroups")

    wrap_method(permutations.FiniteGroup, "mult", tracer.counted_mult)
    wrap_method(permutations.FiniteGroup, "_closure",
                lambda fn: tracer.timed("permutations.closure_calls", "permutations.closure_s", fn))

    def transversal_after(_, args, result, seconds):
        counts()["permutations.transversal_calls"] += 1

    wrap_method(permutations.Transversal, "__init__",
                lambda fn: tracer.spanned("permutations.Transversal", fn, after=transversal_after))

    def action_before(args):
        group, stabilizer = args[1], args[2]
        key = frozenset(p.images for p in stabilizer.elements)
        seen = tracer.seg.seen_actions.setdefault(group, set())
        reused = key in seen
        seen.add(key)
        return reused

    def action_after(reused, args, result, seconds):
        c = counts()
        c["permutations.coset_action_calls"] += 1
        c["permutations.coset_action_s"] += seconds
        c["coset_action.reused"] += reused

    wrap_method(permutations.CosetAction, "__init__",
                lambda fn: tracer.spanned("permutations.CosetAction", fn, action_before, action_after))
    wrap_method(permutations.CosetAction, "permutation_of_index",
                lambda fn: tracer.timed(None, "permutations.coset_action_s", fn))

    # schreier ---------------------------------------------------------------
    def graph_after(_, args, graph, seconds):
        c = counts()
        c["schreier.graph_calls"] += 1
        c["schreier.graph_s"] += seconds
        m = tracer.seg.maxima
        m["schreier.graph_max_dim"] = max(m["schreier.graph_max_dim"], graph.vertex_count)
        group, stabilizer = args[0], args[1]
        if group.order == 720 and group.degree == 6 and stabilizer.order == 1:
            tracer.seg.samples["micro.schreier_graph_sym6_regular_s"].append(seconds)

    wrap_function(schreier, "schreier_graph", "schreier.schreier_graph", after=graph_after)

    def add_seconds(key):
        def after(_, args, result, seconds):
            counts()[key] += seconds
        return after

    wrap_function(schreier, "rs_induce", "schreier.rs_induce", after=add_seconds("schreier.rs_induce_s"))
    wrap_function(schreier, "connectivity_and_bipartiteness", "schreier.connectivity_and_bipartiteness",
                  after=add_seconds("schreier.connectivity_s"))
    wrap_function(schreier, "bipartite_criterion", "schreier.bipartite_criterion")
    wrap_function(schreier, "dedup_counterexample_search", "schreier.dedup_counterexample_search")

    # spectral ----------------------------------------------------------------
    def eig_after(_, args, eigenvalues, seconds):
        n = len(eigenvalues)
        c = counts()
        c["spectral.eig_calls"] += 1
        c["spectral.eig_s"] += seconds
        c["spectral.eig_flops"] += 4.0 * n**3 / 3.0
        m = tracer.seg.maxima
        m["spectral.eig_max_dim"] = max(m["spectral.eig_max_dim"], n)

    wrap_function(spectral, "sym_eigenvalues", "spectral.sym_eigenvalues", after=eig_after)

    def summary_after(_, args, summary, seconds):
        if len(summary.eigenvalues) == 720:
            tracer.seg.samples["micro.spectral_summary_dim720_s"].append(seconds)

    wrap_function(spectral, "spectral_summary", "spectral.spectral_summary", after=summary_after)

    # bounds ------------------------------------------------------------------
    wrap_function(bounds, "interval_data", "bounds.interval_data", after=add_seconds("bounds.interval_s"))

    def theta_after(_, args, result, seconds):
        counts()["bounds.theta_calls"] += 1

    # theta() wraps log_theta(), which the sweep also calls directly
    wrap_function(bounds, "theta", "bounds.theta")
    wrap_function(bounds, "log_theta", "bounds.log_theta", after=theta_after)
    wrap_function(bounds, "subgroup_gap_bound", "bounds.subgroup_gap_bound")
    wrap_function(bounds, "build_bound_report", "bounds.build_bound_report")

    def derived_index_after(_, args, result, seconds):
        c = counts()
        c["bounds.derived_index_calls"] += 1
        c["bounds.derived_index_s"] += seconds

    wrap_function(bounds, "derived_index_check", "bounds.derived_index_check", after=derived_index_after)

    # montecarlo --------------------------------------------------------------
    def sample_after(_, args, result, seconds):
        c = counts()
        c["montecarlo.sample_calls"] += 1
        c["montecarlo.sample_s"] += seconds

    wrap_function(montecarlo, "sample_multiset", "montecarlo.sample_multiset", after=sample_after)
    wrap_function(montecarlo, "sample_symmetric_multiset", "montecarlo.sample_symmetric_multiset",
                  after=sample_after)

    def trials_after(_, args, stats, seconds):
        counts()["montecarlo.trials"] += stats.trials

    wrap_function(montecarlo, "run_expansion_trials", "montecarlo.run_expansion_trials",
                  after=trials_after)

    # cli ---------------------------------------------------------------------
    wrap_function(cli, "main", "cli.main")
    wrap_function(cli, "render_report", "cli.render_report", after=add_seconds("cli.render_s"))


def segment_metrics(tracer: Tracer, setup: Segment, job: Segment) -> dict[str, float]:
    """Per-layer figures of one set-up plus one job."""
    merged: dict[str, float] = defaultdict(float)
    for seg in (setup, job):
        for key, value in seg.counts.items():
            merged[key] += value
        for key, value in seg.maxima.items():
            merged[key] = max(merged[key], value)
        for layer, seconds in tracer.self_times(seg).items():
            merged[f"self.{layer}_s"] += seconds
    for key in set(setup.samples) | set(job.samples):
        values = setup.samples.get(key, []) + job.samples.get(key, [])
        merged[key] = statistics.median(values)
    attempted = merged.pop("lattice.attempted", 0.0)
    found = merged["permutations.lattice_subgroups"]
    merged["permutations.lattice_new_ratio"] = found / attempted if attempted else 0.0
    calls = merged["permutations.coset_action_calls"]
    reused = merged.pop("coset_action.reused", 0.0)
    merged["permutations.coset_action_reuse_ratio"] = reused / calls if calls else 0.0
    return merged
