"""Timing statistics: the distinguishers every adversary reports with.

The attacks themselves -- the gateway cracks, the contention probe, the
S-box prime-and-probe and the RSA weight fit -- are strategies in
:mod:`repro.adversary`; the coresident probe is
:func:`repro.hardware.verify.probe`.
"""

from .distinguisher import (
    AdvantageResult,
    ThresholdResult,
    WeightModel,
    advantage,
    chance_accuracy,
    distinguishable,
    fit_weight_model,
    median,
    median_of_n,
    partition_by,
    pearson_correlation,
    threshold_classifier,
    username_probe,
    welch_t,
)

__all__ = [
    "AdvantageResult",
    "ThresholdResult",
    "WeightModel",
    "advantage",
    "chance_accuracy",
    "distinguishable",
    "fit_weight_model",
    "median",
    "median_of_n",
    "partition_by",
    "pearson_correlation",
    "threshold_classifier",
    "username_probe",
    "welch_t",
]
