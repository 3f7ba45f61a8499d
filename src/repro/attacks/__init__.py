"""Timing adversaries: distinguishers, cache probing, and RSA key analysis."""

from .cache_probe import ProbeResult, eviction_set, probe, probe_distinguishes
from .distinguisher import (
    AdvantageResult,
    ThresholdResult,
    advantage,
    chance_accuracy,
    distinguishable,
    median,
    median_of_n,
    partition_by,
    pearson_correlation,
    threshold_classifier,
    username_probe,
    welch_t,
)
from .sbox_attack import SboxAttackResult, recover_key_byte
from .rsa_attack import (
    AttackOutcome,
    WeightModel,
    fit_weight_model,
    hamming_weight_attack,
    measure_key_times,
)

__all__ = [
    "AdvantageResult",
    "AttackOutcome",
    "ProbeResult",
    "SboxAttackResult",
    "ThresholdResult",
    "WeightModel",
    "advantage",
    "chance_accuracy",
    "distinguishable",
    "eviction_set",
    "fit_weight_model",
    "hamming_weight_attack",
    "measure_key_times",
    "median",
    "median_of_n",
    "partition_by",
    "pearson_correlation",
    "probe",
    "probe_distinguishes",
    "recover_key_byte",
    "threshold_classifier",
    "username_probe",
    "welch_t",
]
