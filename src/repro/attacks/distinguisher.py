"""Timing distinguishers: the Sec. 3.4 adversary, made concrete.

The paper's threat model is a strong coresident adversary who observes
public memory locations and *when* they change.  Given the timing series an
execution produces, the questions an attacker asks are statistical:

* Can two secret values be told apart from timing?
  (:func:`distinguishable`, exact: disjoint observation sets.)
* Given labeled timing samples, how accurately does the best
  single-threshold classifier separate them?
  (:func:`threshold_classifier` -- this is the Bortz-Boneh username probe:
  valid and invalid logins separate cleanly on unmitigated systems.)
* How much does timing covary with a secret-derived quantity?
  (:func:`pearson_correlation` -- Kocher-style key-weight recovery.)
* Is an observed timing difference statistically *significant*, or noise?
  (:func:`advantage` -- Welch's t-test over the two labeled samples, the
  question every over-the-wire attack has to answer before promoting a
  candidate.)

The benchmarks use these to show each attack *succeeding* on the ``nopar``
baseline and *failing* (accuracy at chance, correlation near zero,
observation sets identical) under mitigation on secure hardware.  The
red-team campaign (:mod:`repro.adversary`) shares the same module: its
concurrent median-of-N measurements feed :func:`advantage`, so the
in-process probes and the served-system adversaries report one statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple


def distinguishable(times_a: Sequence[int], times_b: Sequence[int]) -> bool:
    """Exact distinguishability: do the two observation sets differ at all?

    With deterministic execution (Property 2), any difference between the
    sets of observed times is a reliable channel.
    """
    return set(times_a) != set(times_b)


@dataclass
class ThresholdResult:
    """The best single-threshold separation of two labeled samples."""

    threshold: float
    accuracy: float
    low_class: str

    def separates(self, confidence: float = 0.95) -> bool:
        """Does the classifier beat ``confidence`` accuracy?"""
        return self.accuracy >= confidence


def threshold_classifier(
    times_a: Sequence[int],
    times_b: Sequence[int],
    label_a: str = "a",
    label_b: str = "b",
) -> ThresholdResult:
    """The best threshold classifier between two timing samples.

    Scans every candidate threshold (midpoints of adjacent observed values)
    and both orientations; returns the highest achievable accuracy.  Chance
    level is ``max(|a|, |b|) / (|a| + |b|)``.
    """
    if not times_a or not times_b:
        raise ValueError("both samples must be non-empty")
    points = sorted(set(times_a) | set(times_b))
    candidates = [points[0] - 1.0]
    candidates += [
        (points[i] + points[i + 1]) / 2.0 for i in range(len(points) - 1)
    ]
    candidates.append(points[-1] + 1.0)
    total = len(times_a) + len(times_b)
    best = ThresholdResult(threshold=candidates[0], accuracy=0.0,
                           low_class=label_a)
    for threshold in candidates:
        a_low = sum(1 for t in times_a if t <= threshold)
        b_low = sum(1 for t in times_b if t <= threshold)
        # Orientation 1: a below the threshold, b above.
        acc1 = (a_low + (len(times_b) - b_low)) / total
        # Orientation 2: b below the threshold, a above.
        acc2 = (b_low + (len(times_a) - a_low)) / total
        if acc1 > best.accuracy:
            best = ThresholdResult(threshold, acc1, label_a)
        if acc2 > best.accuracy:
            best = ThresholdResult(threshold, acc2, label_b)
    return best


def chance_accuracy(times_a: Sequence[int], times_b: Sequence[int]) -> float:
    """The accuracy of always guessing the majority class."""
    total = len(times_a) + len(times_b)
    return max(len(times_a), len(times_b)) / total


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson's r; 0.0 when either sample is constant."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


@dataclass
class WeightModel:
    """An affine model ``time = intercept + slope * hamming_weight``."""

    slope: float
    intercept: float
    correlation: float

    def predict_weight(self, observed_time: float) -> float:
        if self.slope == 0:
            return float("nan")
        return (observed_time - self.intercept) / self.slope


def fit_weight_model(
    weights: Sequence[int], times: Sequence[int]
) -> WeightModel:
    """Least-squares fit of decryption time against key Hamming weight.

    Kocher-style key-weight recovery: square-and-multiply runs one
    multiply per set exponent bit, so unmitigated decryption time is
    affine in the key's weight and a few keys of known weight calibrate
    the line.
    """
    if len(weights) != len(times) or len(weights) < 2:
        raise ValueError("need two aligned samples of size >= 2")
    n = len(weights)
    mean_w = sum(weights) / n
    mean_t = sum(times) / n
    var_w = sum((w - mean_w) ** 2 for w in weights)
    if var_w == 0:
        return WeightModel(slope=0.0, intercept=mean_t, correlation=0.0)
    cov = sum(
        (w - mean_w) * (t - mean_t) for w, t in zip(weights, times)
    )
    slope = cov / var_w
    intercept = mean_t - slope * mean_w
    corr = pearson_correlation([float(w) for w in weights],
                               [float(t) for t in times])
    return WeightModel(slope=slope, intercept=intercept, correlation=corr)


def partition_by(
    times: Sequence[int], labels: Sequence[object]
) -> Dict[object, List[int]]:
    """Group a timing series by per-sample labels."""
    if len(times) != len(labels):
        raise ValueError("times and labels must align")
    groups: Dict[object, List[int]] = {}
    for t, label in zip(times, labels):
        groups.setdefault(label, []).append(t)
    return groups


def username_probe(
    times: Sequence[int], validity: Sequence[bool]
) -> ThresholdResult:
    """The Bortz-Boneh probe: classify attempts as valid/invalid by time."""
    groups = partition_by(times, validity)
    if True not in groups or False not in groups:
        raise ValueError("need both valid and invalid attempts")
    return threshold_classifier(
        groups[False], groups[True], label_a="invalid", label_b="valid"
    )


def median(values: Sequence[float]) -> float:
    """The sample median; the average of the middle pair for even sizes."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def median_of_n(sample: Callable[[], float], n: int) -> float:
    """Draw ``n`` observations from ``sample()`` and return their median.

    This is the noise-rejection idiom every over-the-wire timing attack
    uses: a handful of repeated measurements, reduced by the median so a
    single scheduling outlier cannot flip a candidate ranking.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    return median([float(sample()) for _ in range(n)])


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta function."""
    tiny = 1e-30
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-12:
            break
    return h


def _reg_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), stdlib math only."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _student_t_sf(t: float, dof: float) -> float:
    """P(T >= t) for Student's t with ``dof`` degrees of freedom."""
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    x = dof / (dof + t * t)
    p = 0.5 * _reg_incomplete_beta(dof / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


@dataclass
class AdvantageResult:
    """Welch's t-test verdict on two labeled timing samples.

    ``advantage`` is the best threshold classifier's edge over chance
    (0 means indistinguishable, 0.5 means perfect separation of balanced
    samples); ``p_value`` is the two-sided Welch probability that the
    observed mean difference arose from one distribution.
    """

    advantage: float
    accuracy: float
    chance: float
    mean_a: float
    mean_b: float
    samples_a: int
    samples_b: int
    t_stat: float
    dof: float
    p_value: float

    def significant(self, alpha: float = 0.01) -> bool:
        """Is the timing difference statistically significant at ``alpha``?"""
        return self.p_value < alpha

    def as_dict(self) -> Dict[str, float]:
        return {
            "advantage": self.advantage,
            "accuracy": self.accuracy,
            "chance": self.chance,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
            "samples_a": self.samples_a,
            "samples_b": self.samples_b,
            "t_stat": self.t_stat,
            "dof": self.dof,
            "p_value": self.p_value,
        }


def welch_t(
    times_a: Sequence[float], times_b: Sequence[float]
) -> Tuple[float, float]:
    """Welch's t statistic and Welch-Satterthwaite degrees of freedom.

    Degenerate zero-variance samples are handled the way an attacker
    reads them: identical constants give ``t = 0`` (no signal), distinct
    constants give ``t = inf`` (deterministically distinguishable).
    """
    n_a, n_b = len(times_a), len(times_b)
    if n_a < 2 or n_b < 2:
        raise ValueError("Welch's t-test needs >= 2 samples per class")
    mean_a = sum(times_a) / n_a
    mean_b = sum(times_b) / n_b
    var_a = sum((t - mean_a) ** 2 for t in times_a) / (n_a - 1)
    var_b = sum((t - mean_b) ** 2 for t in times_b) / (n_b - 1)
    se_sq = var_a / n_a + var_b / n_b
    if se_sq == 0.0:
        if mean_a == mean_b:
            return 0.0, float(n_a + n_b - 2)
        return math.copysign(math.inf, mean_a - mean_b), float(n_a + n_b - 2)
    t_stat = (mean_a - mean_b) / math.sqrt(se_sq)
    dof = se_sq ** 2 / (
        (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1)
    )
    return t_stat, dof


def advantage(
    times_a: Sequence[float],
    times_b: Sequence[float],
    label_a: str = "a",
    label_b: str = "b",
) -> AdvantageResult:
    """Distinguisher advantage with a Welch's t-test significance verdict.

    Combines the two questions an adversary must answer: *how well* do
    the samples separate (threshold classifier accuracy over chance) and
    *should I believe it* (two-sided Welch p-value on the means).
    """
    best = threshold_classifier(times_a, times_b, label_a, label_b)
    chance = chance_accuracy(times_a, times_b)
    t_stat, dof = welch_t(times_a, times_b)
    if math.isinf(t_stat):
        p_value = 0.0
    elif t_stat == 0.0:
        p_value = 1.0
    else:
        p_value = 2.0 * _student_t_sf(abs(t_stat), dof)
        p_value = min(1.0, max(0.0, p_value))
    mean_a = sum(times_a) / len(times_a)
    mean_b = sum(times_b) / len(times_b)
    return AdvantageResult(
        advantage=max(0.0, best.accuracy - chance),
        accuracy=best.accuracy,
        chance=chance,
        mean_a=mean_a,
        mean_b=mean_b,
        samples_a=len(times_a),
        samples_b=len(times_b),
        t_stat=t_stat,
        dof=dof,
        p_value=p_value,
    )
