import json
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from schreierlab import (
    aw_tail_bound,
    catalog_group,
    required_sample_size,
    run_expansion_trials,
    sample_multiset,
    sample_symmetric_multiset,
)


def test_sample_from_trivial_group():
    trivial = catalog_group("cyclic:1")
    drawn = sample_multiset(trivial, 5, np.random.default_rng(0))
    assert len(drawn) == 5
    assert all(trivial.elements[i] == trivial.identity for i in drawn)


def test_sampling_is_seed_deterministic():
    group = catalog_group("sym:4")
    a = sample_multiset(group, 50, np.random.default_rng(123))
    b = sample_multiset(group, 50, np.random.default_rng(123))
    assert a == b


def test_uniformity_chi_squared():
    group = catalog_group("sym:4")
    draws = 100_000
    rng = np.random.default_rng(2024)
    counts = np.zeros(group.order)
    for i in sample_multiset(group, draws, rng):
        counts[group.index_of(group.elements[i])] += 1
    expected = draws / group.order
    statistic = float(((counts - expected) ** 2 / expected).sum())
    cutoff = scipy_stats.chi2.ppf(1.0 - 1e-3, df=group.order - 1)
    assert statistic < cutoff


def test_symmetric_sampler_properties():
    rng = np.random.default_rng(55)
    for name in ("sym:4", "cyclic:9", "heisenberg:3"):
        group = catalog_group(name)
        for size in range(2, 9):
            s = sample_symmetric_multiset(group, size, rng)
            assert s.size == size


def test_required_sample_size_values():
    assert required_sample_size(0.25, 0.25, 10) == 98
    # with delta = 2 |Omega| / e the logarithm collapses to 1
    assert required_sample_size(0.25, 2.0 / math.e, 1) == 23
    assert required_sample_size(0.25, 0.25, 6) == 86


def test_required_sample_size_monotone_in_omega():
    sizes = [required_sample_size(0.25, 0.25, n) for n in (2, 4, 8, 16, 32)]
    assert sizes == sorted(sizes)


def test_required_sample_size_range_checks():
    with pytest.raises(ValueError):
        required_sample_size(0.6, 0.25, 10)
    with pytest.raises(ValueError):
        required_sample_size(0.25, 1.5, 10)
    with pytest.raises(ValueError):
        required_sample_size(0.0, 0.25, 10)


def test_aw_tail_values():
    assert aw_tail_bound(98, 0.25, 10) == pytest.approx(
        20.0 * math.exp(-98 * 0.0625 / math.log(4.0)), rel=1e-12
    )
    assert aw_tail_bound(0, 0.25, 7) == pytest.approx(14.0, abs=1e-12)
    values = [aw_tail_bound(n, 0.25, 10) for n in range(0, 200, 25)]
    assert values == sorted(values, reverse=True)
    with pytest.raises(ValueError):
        aw_tail_bound(10, 0.7, 3)


def test_trials_on_single_point_action():
    group = catalog_group("sym:3")
    stats = run_expansion_trials(group, group, 0.25, 0.25, trials=5, seed=1)
    assert stats.lambdas == (0.0,) * 5
    assert stats.empirical_mean == 0.0
    assert stats.c_epsilon is None


def test_trials_are_deterministic_and_serializable():
    group = catalog_group("sym:4")
    y = group.point_stabilizer(0)
    a = run_expansion_trials(group, y, 0.25, 0.25, trials=8, seed=99)
    b = run_expansion_trials(group, y, 0.25, 0.25, trials=8, seed=99)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )
    c = run_expansion_trials(group, y, 0.25, 0.25, trials=8, seed=100)
    assert a.lambdas != c.lambdas


def test_trial_stats_figures():
    group = catalog_group("sym:4")
    y = group.point_stabilizer(0)
    stats = run_expansion_trials(group, y, 0.25, 0.25, trials=10, seed=7)
    assert stats.sample_size == required_sample_size(0.25, 0.25, 4)
    assert stats.empirical_mean == pytest.approx(
        sum(stats.lambdas) / len(stats.lambdas)
    )
    assert 0.0 <= stats.empirical_tail <= 1.0
    assert all(0.0 <= v <= 1.0 + 1e-8 for v in stats.lambdas)
    assert stats.bound_tail == pytest.approx(
        aw_tail_bound(stats.sample_size, 0.25, 4), rel=1e-12
    )
    assert stats.c_epsilon == pytest.approx(stats.sample_size / math.log(4))

