"""The benchmark's two workloads: their seeded inputs and their fixed jobs.

A job is a list of experiments, each the argument list of one
``schreierlab`` command.  ``build_inputs`` is the set-up the benchmark
times: it enumerates the catalog groups a workload needs, draws the
seeded subgroup and multiset files from them, and writes a manifest of
the job.  The package only ever sees those files and the derived
``--seed`` values, never the workload seed itself.

Why these workloads:

* ``theta-intervals`` runs ``theta`` and ``bounds`` on groups of order
  16-128 (the table path).  Half the experiments span the full lattice
  above a trivial stabilizer; half a narrow interval above a large
  stabilizer, where an algorithm that always builds the whole lattice
  would lose while the full-lattice half wins.  One ``verify-nilpotent``
  experiment on ``heisenberg:5`` adds the derived-index check and a few
  seeded random multisets.
* ``large-actions`` runs ``spectrum`` and ``verify-thm1`` on groups above
  the 512-element table limit, read back from a catalog disk cache that
  set-up fills.  It never touches the lattice: its time splits between
  slow-path products with coset-action assembly and dense eigensolves of
  dimension 720-2520.

``schreierlab sweep`` is not a workload: it is one 30-45 s job, so a run
of the benchmark holds a single repeat of it, and one repeat cannot be
measured steadily on a shared host (see README.md).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from schreierlab.catalog import CACHE_ENV_VAR, catalog_group
from schreierlab.notation import permutation_to_text

MANIFEST = "job.json"


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, *label.encode()])


def _derived_seed(seed: int, label: str) -> int:
    return int(_rng(seed, label).integers(1, 2**31 - 1))


def _random_subgroup_generators(group, rng, count, low, high):
    """Draw ``count`` elements until they generate a subgroup whose order
    lies in [low, high); the draw is a pure function of the generator."""
    while True:
        picks = [group.elements[int(i)] for i in rng.integers(0, group.order, size=count)]
        order = group.subgroup_generated(picks).order
        if low <= order < high:
            return picks


def _random_elements(group, rng, count):
    return [group.elements[int(i)] for i in rng.integers(1, group.order, size=count)]


def _write_perms(path: Path, perms, degree: int) -> str:
    lines = [f"degree {degree}"] + [permutation_to_text(p) for p in perms]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _theta_intervals(seed: int, directory: Path) -> list[list[str]]:
    heis = catalog_group("heisenberg:5")
    sym5 = catalog_group("sym:5")
    c2s4 = catalog_group("cyclic:2xsym:4")
    h_sub = _write_perms(
        directory / "heisenberg5-sub.txt",
        _random_subgroup_generators(heis, _rng(seed, "heis-sub"), 2, 25, 26),
        heis.degree,
    )
    s_sub = _write_perms(
        directory / "sym5-sub.txt",
        _random_subgroup_generators(sym5, _rng(seed, "sym5-sub"), 2, 12, 120),
        sym5.degree,
    )
    c_sub = _write_perms(
        directory / "c2s4-sub.txt",
        _random_subgroup_generators(c2s4, _rng(seed, "c2s4-sub"), 2, 8, 48),
        c2s4.degree,
    )
    c_set = _write_perms(
        directory / "c2s4-set.txt",
        _random_elements(c2s4, _rng(seed, "c2s4-set"), 3),
        c2s4.degree,
    )
    eps = ["--epsilon", "0.3"]
    return [
        # full lattices above a trivial stabilizer
        ["theta", "--group", "heisenberg:5"],
        ["theta", "--group", "sym:5"],
        ["bounds", "--group", "elem-abelian:2^5", "--set", "random:10",
         "--seed", str(_derived_seed(seed, "ea25")), *eps],
        ["bounds", "--group", "cyclic:2xsym:4", "--set", "random:6",
         "--seed", str(_derived_seed(seed, "c2s4")), *eps],
        ["bounds", "--group", "dihedral:16", "--set", "random:4",
         "--seed", str(_derived_seed(seed, "d16")), *eps],
        # narrow intervals above a large stabilizer
        ["theta", "--group", "sym:5", "--action", "natural"],
        ["bounds", "--group", "sym:5", "--action", "natural", "--set", "random:3",
         "--seed", str(_derived_seed(seed, "sym5-natural")), *eps],
        ["theta", "--group", "heisenberg:5", "--action", f"cosets-of:{h_sub}"],
        ["theta", "--group", "sym:5", "--action", f"cosets-of:{s_sub}"],
        ["bounds", "--group", "cyclic:2xsym:4", "--action", f"cosets-of:{c_sub}",
         "--set", c_set, "--symmetrize", *eps],
        # the derived-index check on random multisets of a nilpotent group
        ["verify-nilpotent", "--group", "heisenberg:5", "--trials", "4",
         "--seed", str(_derived_seed(seed, "heis-nilpotent"))],
    ]


def _large_actions(seed: int, directory: Path) -> list[list[str]]:
    # catalog_group writes each group to the disk cache set up by the caller
    catalog_group("sym:6")
    sym7 = catalog_group("sym:7")
    alt7 = catalog_group("alt:7")
    cyc = catalog_group("cyclic:1024")
    involution = _write_perms(
        directory / "sym7-involution.txt",
        _random_subgroup_generators(sym7, _rng(seed, "sym7-inv"), 1, 2, 3),
        sym7.degree,
    )
    sym7_set = _write_perms(
        directory / "sym7-set.txt", _random_elements(sym7, _rng(seed, "sym7-set"), 4), 7
    )
    alt7_set = _write_perms(
        directory / "alt7-set.txt", _random_elements(alt7, _rng(seed, "alt7-set"), 3), 7
    )
    cyc_set = _write_perms(
        directory / "cyclic1024-set.txt",
        _random_elements(cyc, _rng(seed, "cyc-set"), 3),
        cyc.degree,
    )
    return [
        ["verify-thm1", "--group", "sym:6", "--action", "regular",
         "--epsilon", "0.25", "--delta", "0.25", "--trials", "2",
         "--seed", str(_derived_seed(seed, "thm1"))],
        ["spectrum", "--group", "sym:7", "--action", f"cosets-of:{involution}",
         "--set", sym7_set, "--symmetrize"],
        ["spectrum", "--group", "cyclic:1024", "--set", cyc_set, "--symmetrize"],
        ["spectrum", "--group", "alt:7", "--set", alt7_set, "--symmetrize"],
    ]


_BUILDERS = {
    "theta-intervals": _theta_intervals,
    "large-actions": _large_actions,
}


def use_cache(workload: str, directory: Path) -> None:
    """Point SCHREIERLAB_CACHE_DIR at the inputs' catalog cache, for the
    workload that reads one, and clear it for the others."""
    if workload == "large-actions":
        os.environ[CACHE_ENV_VAR] = str(directory / "cache")
    else:
        os.environ.pop(CACHE_ENV_VAR, None)


def build_inputs(workload: str, seed: int, directory: Path) -> list[list[str]]:
    """Write the workload's inputs under ``directory``; return its job.

    Set-up fills the catalog cache that the job then reads, so the cache
    setting stays in place afterwards.
    """
    directory.mkdir(parents=True, exist_ok=True)
    use_cache(workload, directory)
    job = _BUILDERS[workload](seed, directory)
    (directory / MANIFEST).write_text(json.dumps(job), encoding="utf-8")
    return job


def load_job(directory: Path) -> list[list[str]]:
    return json.loads((directory / MANIFEST).read_text(encoding="utf-8"))
