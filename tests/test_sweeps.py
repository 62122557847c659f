from schreierlab import catalog_group, sweeps


def test_the_sweep_builds_no_permutation_in_its_subgroup_paths(monkeypatch, built_permutations):
    # stabilizer candidates, induced-monotonicity's subgroups, the dedup
    # rotation, induction-laws' subgroups and rayleigh's transpositions are
    # all made from element indices; only parsing the catalog builds any
    groups = {}

    def prebuilt(name):
        if name not in groups:
            groups[name] = catalog_group(name)
        return groups[name]

    for name in sweeps._MIDSIZE_POOL + ["cyclic:6", "dihedral:12"]:
        prebuilt(name)
    monkeypatch.setattr(sweeps, "catalog_group", prebuilt)
    built_permutations.clear()
    monotonicity, _, laws = sweeps.check_induced_monotonicity()
    dedup, carry = sweeps.check_dedup_search()
    laws = sweeps.check_induction_laws(laws, carry)
    assert all(result.passed for result in (monotonicity, dedup, laws, sweeps.check_rayleigh()))
    assert built_permutations == []
