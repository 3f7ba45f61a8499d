"""Kocher-style timing analysis of the RSA case study.

Square-and-multiply executes one modular multiply per *set* bit of the
private exponent, so unmitigated decryption time is an affine function of
the key's Hamming weight.  Measuring a few keys of known weight calibrates
the line; the secret key's weight then falls out of a single timing
measurement.  (Full Kocher bit-by-bit recovery additionally conditions on
message values; recovering the weight already demonstrates the channel and
is what the Fig. 8 experiment visualizes.)

Under language-level mitigation the decryption time is constant, the fitted
slope carries no signal, and :func:`recover_hamming_weight` degrades to
guessing -- which the benchmarks verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..apps.rsa import RsaSystem
from ..apps.rsa_math import RsaKey, encrypt_blocks
from .distinguisher import pearson_correlation


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
    """Least-squares fit of decryption time against key Hamming weight."""
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


def measure_key_times(
    system: RsaSystem,
    keys: Sequence[RsaKey],
    message: List[int],
    hardware: str = "partitioned",
    params=None,
) -> List[int]:
    """Decryption time of one shared message under each key."""
    times = []
    for key in keys:
        cipher = encrypt_blocks(message, key)
        result = system.run(key, cipher, hardware=hardware, params=params)
        times.append(result.time)
    return times


@dataclass
class AttackOutcome:
    """Result of a weight-recovery attack on one target key."""

    true_weight: int
    recovered_weight: Optional[float]
    model: WeightModel

    @property
    def error(self) -> float:
        if self.recovered_weight is None or self.recovered_weight != \
                self.recovered_weight:  # NaN check
            return float("inf")
        return abs(self.recovered_weight - self.true_weight)

    def succeeded(self, tolerance: float = 1.0) -> bool:
        """Did the attack land within ``tolerance`` bits of the truth?"""
        return self.error <= tolerance


def hamming_weight_attack(
    system: RsaSystem,
    calibration_keys: Sequence[RsaKey],
    target_key: RsaKey,
    message: List[int],
    hardware: str = "partitioned",
    params=None,
) -> AttackOutcome:
    """Calibrate on known keys, then recover the target key's weight.

    On an unmitigated system the recovered weight is essentially exact; on
    a mitigated one the calibration line is flat and recovery fails.
    """
    cal_times = measure_key_times(
        system, calibration_keys, message, hardware=hardware, params=params,
    )
    model = fit_weight_model(
        [k.hamming_weight() for k in calibration_keys], cal_times
    )
    target_time = measure_key_times(
        system, [target_key], message, hardware=hardware, params=params,
    )[0]
    return AttackOutcome(
        true_weight=target_key.hamming_weight(),
        recovered_weight=model.predict_weight(target_time),
        model=model,
    )
