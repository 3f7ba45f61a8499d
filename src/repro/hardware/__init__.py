"""Hardware models: the machine-environment contract and its zoo.

Secure designs (must satisfy Properties 2 and 5-7):

* :class:`~repro.hardware.null.NullHardware` -- fixed-cost abstract machine
  (the implicit model of prior language-based work);
* :class:`~repro.hardware.nofill.NoFillHardware` -- the Sec. 4.2 realization
  on standard hardware via no-fill mode;
* :class:`~repro.hardware.partitioned.PartitionedHardware` -- the Sec. 4.3
  statically partitioned cache/TLB design.

Adversarial designs (each deliberately breaks a named property, so the
verification campaign has real leaks to find -- see docs/HARDWARE.md):

* :class:`~repro.hardware.standard.StandardHardware` -- commodity shared
  caches, label-oblivious (the paper's insecure ``nopar`` baseline; P5);
* :class:`~repro.hardware.bus.SharedBusHardware` -- shared-bus contention
  stalls (P6);
* :class:`~repro.hardware.writeback.WriteBackHardware` -- write-back cache,
  dirty-eviction cost (P6);
* :class:`~repro.hardware.speculative.SpeculativeHardware` -- shared branch
  predictor with a mispredict-window flush (P6 + P7);
* :class:`~repro.hardware.frequency.FrequencyScalingHardware` -- DVFS driven
  by global access history (P6);
* :class:`~repro.hardware.leakytlb.LeakyTlbHardware` -- one shared,
  label-oblivious TLB (P5).

The :data:`~repro.hardware.registry.REGISTRY` maps names (and aliases such
as ``nopar``) to factories plus contract metadata; :func:`make_hardware` is
the convenience constructor over it.  :mod:`repro.hardware.verify` runs the
seeded contract-verification campaign over every registered model.
"""

from typing import Optional

from ..lattice import Lattice
from .branch import BranchPredictor, BranchPredictorParams
from .bus import SharedBusHardware
from .cache import Cache
from .contract import (
    ContractCase,
    ContractReport,
    Violation,
    check_case,
    run_contract_suite,
)
from .frequency import FrequencyScalingHardware
from .hierarchy import Hierarchy
from .interface import MachineEnvironment, StepKind
from .leakytlb import LeakyTlbHardware
from .nofill import NoFillHardware
from .null import NullHardware
from .params import (
    CacheParams,
    MachineParams,
    TlbParams,
    paper_machine,
    tiny_machine,
)
from .partitioned import PartitionedHardware
from .registry import (
    LATTICE_POINTS,
    PARAM_POINTS,
    REGISTRY,
    HardwareRegistry,
    HardwareRegistryError,
    HardwareSpec,
)
from .speculative import SpeculativeHardware
from .standard import StandardHardware
from .tlb import Tlb
from .writeback import WriteBackHardware


def make_hardware(
    name: str, lattice: Lattice, params: Optional[MachineParams] = None
) -> MachineEnvironment:
    """Build a registered hardware model by name (see :data:`REGISTRY`).

    Raises :class:`HardwareRegistryError` (a ``ValueError``) for unknown
    names, listing the valid choices.
    """
    return REGISTRY.make(name, lattice, params)


__all__ = [
    "BranchPredictor",
    "BranchPredictorParams",
    "Cache",
    "CacheParams",
    "ContractCase",
    "ContractReport",
    "FrequencyScalingHardware",
    "HardwareRegistry",
    "HardwareRegistryError",
    "HardwareSpec",
    "Hierarchy",
    "LATTICE_POINTS",
    "LeakyTlbHardware",
    "MachineEnvironment",
    "MachineParams",
    "NoFillHardware",
    "NullHardware",
    "PARAM_POINTS",
    "PartitionedHardware",
    "REGISTRY",
    "SharedBusHardware",
    "SpeculativeHardware",
    "StandardHardware",
    "StepKind",
    "Tlb",
    "TlbParams",
    "Violation",
    "WriteBackHardware",
    "check_case",
    "make_hardware",
    "paper_machine",
    "run_contract_suite",
    "tiny_machine",
]
