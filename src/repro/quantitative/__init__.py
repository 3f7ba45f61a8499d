"""Quantitative security: one secret sweep with leakage, variations and
Lemma 1 as folds over it; bounds; entropy."""

from .bounds import (
    doubling_duration_count,
    leakage_bound,
    leakage_bound_unknown_k,
    relevant_level_count,
)
from .entropy import min_entropy_leakage, shannon_leakage
from .leakage import (
    LeakageResult,
    VariantError,
    fold_leakage,
    measure_leakage,
    secret_variants,
    sweep,
    validate_variants,
)
from .variations import (
    Theorem2Result,
    check_low_determinism,
    fold_variations,
    timing_variations,
    verify_theorem2,
)

__all__ = [
    "LeakageResult",
    "Theorem2Result",
    "VariantError",
    "check_low_determinism",
    "doubling_duration_count",
    "fold_leakage",
    "fold_variations",
    "leakage_bound",
    "leakage_bound_unknown_k",
    "measure_leakage",
    "min_entropy_leakage",
    "relevant_level_count",
    "secret_variants",
    "shannon_leakage",
    "sweep",
    "timing_variations",
    "validate_variants",
    "verify_theorem2",
]
