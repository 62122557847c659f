"""Random connection multisets and empirical two-sided expansion trials.

A "random multiset of size m" means m independent uniform draws from the
element table, with replacement, kept as element indices.  Trials derive
their stream from the pair (seed, trial index), so results do not depend on
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .inequalities import EMPIRICAL_MEAN, EMPIRICAL_TAIL, Verdict
from .permutations import FiniteGroup
from .schreier import SymmetricMultiset, schreier_graph, symmetrize
from .spectral import DEFAULT_DIM_CAP, spectral_summary


def sample_multiset(group: FiniteGroup, m: int, rng: np.random.Generator) -> list[int]:
    """m independent uniform draws from the group, with replacement, as
    element indices."""
    if m < 1:
        raise ValueError("sample size must be at least 1")
    return rng.integers(0, group.order, size=m).tolist()


def sample_symmetric_multiset(
    group: FiniteGroup, size: int, rng: np.random.Generator
) -> SymmetricMultiset:
    """A random symmetric multiset of exactly the requested total size.

    Elements are drawn uniformly; a non-involution brings its inverse along,
    and a remaining odd slot is filled by a uniform self-inverse element
    (the identity always qualifies).
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    inv = group.inverse_indices()
    picked: list[int] = []
    remaining = size
    while remaining > 0:
        if remaining == 1:
            pool = group.self_inverse_indices()
            picked.append(int(pool[rng.integers(0, len(pool))]))
            remaining -= 1
            continue
        i = int(rng.integers(0, group.order))
        if inv[i] == i:
            picked.append(i)
            remaining -= 1
        else:
            picked.extend((i, inv[i]))
            remaining -= 2
    return SymmetricMultiset(group, ((i, 1) for i in picked))


def required_sample_size(epsilon: float, delta: float, omega_size: int) -> int:
    """ceil((ln 4 / eps^2) * ln(2 |Omega| / delta)) draws suffice for a
    two-sided eps-expander with failure probability delta."""
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if omega_size < 1:
        raise ValueError("omega_size must be at least 1")
    return math.ceil(
        (math.log(4.0) / epsilon**2) * math.log(2.0 * omega_size / delta)
    )


def aw_tail_bound(n: int, epsilon: float, dim: int) -> float:
    """Matrix Chernoff tail 2 * dim * exp(-n eps^2 / ln 4) for the averaged
    spectrum of n mean-zero Hermitian samples escaping [-eps, eps]."""
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    if n < 0 or dim < 1:
        raise ValueError("need n >= 0 and dim >= 1")
    return 2.0 * dim * math.exp(-n * epsilon**2 / math.log(4.0))


@dataclass(frozen=True)
class TrialStats:
    """Outcome of a batch of random-multiset expansion trials.

    ``c_epsilon`` is the per-instance constant sample_size / ln|Omega|, the
    effective number of draws per log-point; None on a single point.
    """

    trials: int
    sample_size: int
    epsilon: float
    delta: float
    lambdas: tuple[float, ...]
    empirical_mean: float
    empirical_tail: float
    bound_tail: float
    seed: int
    c_epsilon: Optional[float]

    def to_dict(self) -> dict:
        return {**asdict(self), "lambdas": list(self.lambdas)}

    def tail_budget(self) -> float:
        """What the empirical tail may reach: delta plus three standard
        errors of a tail frequency delta over this many trials."""
        return self.delta + 3.0 * math.sqrt(self.delta * (1.0 - self.delta) / self.trials)

    def mean_budget(self) -> float:
        """What the empirical mean of lambda may reach: epsilon + delta."""
        return self.epsilon + self.delta

    def verdicts(self) -> list[Verdict]:
        """The empirical tail and mean, each against its budget."""
        tail, tail_max = self.empirical_tail, self.tail_budget()
        mean, mean_max = self.empirical_mean, self.mean_budget()
        return [
            EMPIRICAL_TAIL.check(tail, tail_max, f"tail={tail:.6g} vs {tail_max:.6g}"),
            EMPIRICAL_MEAN.check(mean, mean_max, f"mean={mean:.6g} vs {mean_max:.6g}"),
        ]


def run_expansion_trials(
    group: FiniteGroup,
    stabilizer: FiniteGroup,
    epsilon: float,
    delta: float,
    trials: int,
    seed: int,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> TrialStats:
    """Draw, symmetrize, measure: the empirical side of random expansion.

    Each trial samples m = required_sample_size(epsilon, delta, |Omega|)
    elements, joins them with their inverses (total degree 2m), and records
    the two-sided lambda of the resulting Schreier graph.  The empirical
    tail beyond epsilon is compared against delta, and the empirical mean
    against epsilon + delta.  ``dim_cap`` bounds |Omega| as in
    ``spectral_summary``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    omega = group.order // stabilizer.order
    m = required_sample_size(epsilon, delta, omega)
    lambdas = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        drawn = sample_multiset(group, m, rng)
        graph = schreier_graph(group, stabilizer, symmetrize(group, ((i, 1) for i in drawn)))
        lambdas.append(spectral_summary(graph, dim_cap=dim_cap).two_sided_lambda)
    values = np.array(lambdas)
    return TrialStats(
        trials=trials,
        sample_size=m,
        epsilon=epsilon,
        delta=delta,
        lambdas=tuple(float(v) for v in values),
        empirical_mean=float(values.mean()),
        empirical_tail=float(np.mean(values >= epsilon)),
        bound_tail=aw_tail_bound(m, epsilon, omega),
        seed=seed,
        c_epsilon=(m / math.log(omega)) if omega > 1 else None,
    )
