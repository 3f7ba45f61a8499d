"""Entropy-based leakage measures, for comparison with Definition 1.

Sec. 6.2 notes that the distinguishable-observation count bounds the
Shannon-entropy and min-entropy measures used in the quantitative
information-flow literature.  Given the observation map produced by
:func:`repro.quantitative.leakage.measure_leakage` (which observation each
secret variant produced) and a prior over variants (uniform by default),
these functions compute:

* Shannon mutual information ``I(secret; observation)``;
* min-entropy leakage ``log2( V(secret|obs) / V(secret) )`` where ``V`` is
  Smith's vulnerability (probability of guessing in one try).

Both are bounded by ``log2`` of the number of distinct observations, which
the tests verify.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


def _normalize(
    observations: Dict[Tuple, List[int]], prior: Optional[Sequence[float]]
) -> List[float]:
    """``prior`` scaled to mass 1; uniform over the runs when omitted."""
    if prior is None:
        prior = [1.0] * sum(map(len, observations.values()))
    total = float(sum(prior))
    if total <= 0:
        raise ValueError("prior must have positive mass")
    return [p / total for p in prior]


def _joint(
    observations: Dict[Tuple, List[int]], prior: List[float]
) -> List[List[float]]:
    """Joint distribution rows = observations, entries = variant masses."""
    return [
        [prior[index] for index in indices]
        for indices in observations.values()
    ]


def shannon_leakage(
    observations: Dict[Tuple, List[int]],
    prior: Optional[Sequence[float]] = None,
) -> float:
    """Mutual information between the secret variant and the observation.

    The channel is deterministic (Property 2), so
    ``I(S; O) = H(O) = -sum_o p(o) log2 p(o)``.
    """
    prior = _normalize(observations, prior)
    entropy = 0.0
    for row in _joint(observations, prior):
        mass = sum(row)
        if mass > 0:
            entropy -= mass * math.log2(mass)
    return entropy


def min_entropy_leakage(
    observations: Dict[Tuple, List[int]],
    prior: Optional[Sequence[float]] = None,
) -> float:
    """Smith's min-entropy leakage for the deterministic channel.

    ``log2( sum_o max_s p(s, o) / max_s p(s) )``.
    """
    prior = _normalize(observations, prior)
    prior_vulnerability = max(prior)
    posterior_vulnerability = sum(
        max(row) for row in _joint(observations, prior) if row
    )
    return math.log2(posterior_vulnerability / prior_vulnerability)
