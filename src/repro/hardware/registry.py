"""The hardware registry: every machine environment the repo knows about.

The paper's software/hardware contract is only meaningful if it can be
checked against *arbitrary* hardware designs -- including deliberately
broken ones.  Following "Can We Prove Time Protection?" (Ge et al.,
arXiv:1901.08338), the registry therefore records, for every model, not
just a factory but the *expected verdict*: is this design supposed to
satisfy Properties 2 and 5-7, and if not, which property does it break?
The verification campaign (:mod:`repro.hardware.verify`) treats that
metadata as a falsifiable claim in both directions: an expected-secure
model producing a violation is a bug, and an expected-insecure model that
goes *undetected* means the checkers are vacuous.  It attacks each model
with the seeded cases of :func:`repro.hardware.contract.random_cases`, the
same generator ``repro contract`` uses, at every lattice and parameter
point the spec lists.

This replaces the ad-hoc ``HARDWARE_CHOICES`` tuple that used to live in
the CLI.  Consumers:

* the CLI (``--hardware`` choices, ``repro contract``, ``repro verify-hw``);
* the service layer (workload-spec validation);
* benchmarks and tests (iterate the zoo instead of hand-written lists).

Registered models
-----------------

Secure (must pass every property on every supported lattice):
``null``, ``standard``'s secure siblings ``nofill`` and ``partitioned``.

Insecure (must be *detected*, with the listed property violated):

=============  ==================  ==========================================
name           violates            leak mechanism
=============  ==================  ==========================================
standard       P5 (write label)    label-oblivious shared caches (``nopar``)
bus            P6 (read label)     cross-level stall cycles on a shared bus
writeback      P6 (read label)     dirty-eviction write-backs of high lines
speculative    P6 + P7             shared predictor, mispredict-window flush
frequency      P6 (read label)     DVFS driven by global access history
leakytlb       P5 (write label)    one shared, label-oblivious TLB
=============  ==================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..lattice import Lattice, chain, diamond, two_point
from .interface import MachineEnvironment
from .params import MachineParams, paper_machine, tiny_machine

#: A model factory: ``(lattice, params) -> environment``.  Models that take
#: no machine parameters (the null design) simply ignore the second argument.
HardwareFactory = Callable[[Lattice, Optional[MachineParams]], MachineEnvironment]

#: Named machine-parameter points the campaign can sweep.  ``tiny`` keeps
#: caches small enough that random stimuli collide and evict; ``scaled8`` is
#: the Table 1 machine divided by 8; ``paper`` is Table 1 itself.
PARAM_POINTS: Dict[str, Callable[[], MachineParams]] = {
    "tiny": tiny_machine,
    "scaled8": lambda: paper_machine().scaled_down(8),
    "paper": paper_machine,
}

#: Named lattice points the campaign can sweep.
LATTICE_POINTS: Dict[str, Callable[[], Lattice]] = {
    "two_point": two_point,
    "chain3": lambda: chain(("L", "M", "H")),
    "diamond": diamond,
}


class HardwareRegistryError(ValueError):
    """An unknown model name, or a conflicting registration."""


@dataclass(frozen=True)
class HardwareSpec:
    """One registered hardware model plus its contract metadata."""

    #: Canonical model name (CLI-facing).
    name: str
    #: ``(lattice, params) -> MachineEnvironment``.
    factory: HardwareFactory
    #: One-line description for catalogs and ``verify-hw --list``.
    summary: str
    #: The claim under test: True means Properties 2 and 5-7 must all hold.
    expected_secure: bool
    #: For insecure models: which properties the design is known to break.
    #: The campaign requires the detected violation to be one of these.
    violates: Tuple[str, ...] = ()
    #: Alternative names (e.g. the paper calls ``standard`` ``nopar``).
    aliases: Tuple[str, ...] = ()
    #: Which :data:`LATTICE_POINTS` the model supports / is verified on.
    lattice_points: Tuple[str, ...] = ("two_point", "chain3")
    #: Which :data:`PARAM_POINTS` the campaign sweeps for this model.
    param_points: Tuple[str, ...] = ("tiny",)
    #: The :data:`PARAM_POINTS` entry used for end-to-end leak
    #: quantification.  Most leaks show at the tiny geometry; the
    #: write-back drain needs enough cache sets that the victim's dirty
    #: footprint is not saturated every step.
    quantify_point: str = "tiny"

    def make(
        self, lattice: Lattice, params: Optional[MachineParams] = None
    ) -> MachineEnvironment:
        """Instantiate the model."""
        return self.factory(lattice, params)

    def verdict_word(self) -> str:
        """``secure`` or ``insecure`` -- the expectation, for output."""
        return "secure" if self.expected_secure else "insecure"


class HardwareRegistry:
    """Name -> :class:`HardwareSpec`, with alias resolution.

    Iteration yields canonical specs in registration order, which keeps CLI
    choice lists and campaign output stable.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, HardwareSpec] = {}
        self._aliases: Dict[str, str] = {}

    def register(self, spec: HardwareSpec) -> HardwareSpec:
        """Add a model; names and aliases must be globally unique."""
        for name in (spec.name, *spec.aliases):
            if name in self._specs or name in self._aliases:
                raise HardwareRegistryError(
                    f"hardware model name {name!r} is already registered"
                )
        for point in spec.lattice_points:
            if point not in LATTICE_POINTS:
                raise HardwareRegistryError(
                    f"{spec.name}: unknown lattice point {point!r}"
                )
        for point in (*spec.param_points, spec.quantify_point):
            if point not in PARAM_POINTS:
                raise HardwareRegistryError(
                    f"{spec.name}: unknown parameter point {point!r}"
                )
        self._specs[spec.name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = spec.name
        return spec

    def get(self, name: str) -> HardwareSpec:
        """Resolve a canonical name or alias to its spec."""
        canonical = self._aliases.get(name, name)
        try:
            return self._specs[canonical]
        except KeyError:
            raise HardwareRegistryError(
                f"unknown hardware model {name!r}; choose from "
                f"{list(self.choices())}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def __iter__(self) -> Iterator[HardwareSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> Tuple[str, ...]:
        """Canonical names, in registration order."""
        return tuple(self._specs)

    def choices(self) -> Tuple[str, ...]:
        """Every accepted name (canonical + aliases), for argparse."""
        out = []
        for spec in self._specs.values():
            out.append(spec.name)
            out.extend(spec.aliases)
        return tuple(out)

    def specs(self, secure: Optional[bool] = None) -> Tuple[HardwareSpec, ...]:
        """Canonical specs, optionally filtered by expected verdict."""
        return tuple(
            spec for spec in self
            if secure is None or spec.expected_secure == secure
        )

    def make(
        self,
        name: str,
        lattice: Lattice,
        params: Optional[MachineParams] = None,
    ) -> MachineEnvironment:
        """Instantiate a model by (possibly aliased) name."""
        return self.get(name).make(lattice, params)


def _default_registry() -> HardwareRegistry:
    """Build the global registry: four classic designs plus the zoo."""
    # Imports are local so that model modules can import this module's
    # PARAM_POINTS/LATTICE_POINTS without a cycle.
    from .bus import SharedBusHardware
    from .frequency import FrequencyScalingHardware
    from .leakytlb import LeakyTlbHardware
    from .nofill import NoFillHardware
    from .null import NullHardware
    from .partitioned import PartitionedHardware
    from .speculative import SpeculativeHardware
    from .standard import StandardHardware
    from .writeback import WriteBackHardware

    registry = HardwareRegistry()
    registry.register(HardwareSpec(
        name="null",
        factory=lambda lattice, params=None: NullHardware(lattice),
        summary="fixed-cost abstract machine; no environment state at all",
        expected_secure=True,
        lattice_points=("two_point", "chain3", "diamond"),
    ))
    registry.register(HardwareSpec(
        name="standard",
        factory=StandardHardware,
        summary="commodity shared caches, label-oblivious (the paper's "
                "insecure 'nopar' baseline)",
        expected_secure=False,
        violates=("P5-write-label",),
        aliases=("nopar",),
        lattice_points=("two_point",),
    ))
    registry.register(HardwareSpec(
        name="nofill",
        factory=NoFillHardware,
        summary="Sec. 4.2: one low hierarchy; non-public write labels run "
                "in no-fill mode",
        expected_secure=True,
    ))
    registry.register(HardwareSpec(
        name="partitioned",
        factory=PartitionedHardware,
        summary="Sec. 4.3: statically partitioned caches/TLBs, one "
                "partition per level",
        expected_secure=True,
        lattice_points=("two_point", "chain3", "diamond"),
        param_points=("tiny", "scaled8"),
    ))
    registry.register(HardwareSpec(
        name="bus",
        factory=SharedBusHardware,
        summary="partitioned caches over one shared memory bus: stall "
                "cycles depend on cross-level traffic",
        expected_secure=False,
        violates=("P6-read-label",),
        lattice_points=("two_point",),
    ))
    registry.register(HardwareSpec(
        name="writeback",
        factory=WriteBackHardware,
        summary="write-back partitioned cache: draining dirty high lines "
                "makes low read cost depend on high writes",
        expected_secure=False,
        violates=("P6-read-label",),
        lattice_points=("two_point",),
        quantify_point="scaled8",
    ))
    registry.register(HardwareSpec(
        name="speculative",
        factory=SpeculativeHardware,
        summary="speculative front-end with one shared branch predictor "
                "and a mispredict-window flush",
        expected_secure=False,
        violates=("P6-read-label", "P7-single-step-NI"),
        lattice_points=("two_point",),
    ))
    registry.register(HardwareSpec(
        name="frequency",
        factory=FrequencyScalingHardware,
        summary="frequency scaling: cycle cost depends on the machine's "
                "global access history",
        expected_secure=False,
        violates=("P6-read-label",),
        lattice_points=("two_point",),
    ))
    registry.register(HardwareSpec(
        name="leakytlb",
        factory=LeakyTlbHardware,
        summary="partitioned caches but one shared, label-oblivious TLB",
        expected_secure=False,
        violates=("P5-write-label",),
        lattice_points=("two_point",),
    ))
    return registry


#: The process-wide default registry.  Tests that want isolation build their
#: own :class:`HardwareRegistry` instead of mutating this one.
REGISTRY = _default_registry()
