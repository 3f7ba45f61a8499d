"""A coresident cache-probing adversary (prime-and-probe).

Sec. 2.1's threat model lets the adversary *probe timing using the shared
cache*: after the victim runs, the attacker touches chosen addresses with
public (bottom-labeled) accesses and measures which are fast (cached -- the
victim touched that set) and which are slow.  This is the attack pattern
behind the AES cache attacks the paper cites (Osvik-Shamir-Tromer,
Gullasch et al.).

On :class:`~repro.hardware.standard.StandardHardware` the probe vector leaks
the victim's secret-dependent access pattern.  On the secure designs it
cannot: no-fill never lets high contexts install lines, and the partitioned
design confines them to partitions a bottom-labeled probe does not read
(Property 6 is precisely the guarantee that the probe cost is a function of
bottom state only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..machine.layout import AccessTrace
from ..hardware.interface import MachineEnvironment, StepKind


@dataclass
class ProbeResult:
    """Per-address probe costs, in probe order."""

    addresses: Tuple[int, ...]
    costs: Tuple[int, ...]

    def hits(self, hit_threshold: int) -> Tuple[bool, ...]:
        """Which probes were fast (cost <= threshold)?"""
        return tuple(cost <= hit_threshold for cost in self.costs)


def probe(
    environment: MachineEnvironment,
    addresses: Sequence[int],
    probe_instruction: int = 0x7FFF_0000,
) -> ProbeResult:
    """Time a public access to each address on (a clone of) the environment.

    Each probe runs against its own clone so probes do not disturb each
    other -- the attacker's strongest (simultaneous) variant.
    """
    lattice = environment.lattice
    bottom = lattice.bottom
    costs = []
    for address in addresses:
        clone = environment.clone()
        cost = clone.step(
            StepKind.ASSIGN,
            AccessTrace(
                instruction=probe_instruction, reads=(address,), writes=()
            ),
            bottom,
            bottom,
        )
        costs.append(cost)
    return ProbeResult(addresses=tuple(addresses), costs=tuple(costs))


def probe_distinguishes(
    env_a: MachineEnvironment,
    env_b: MachineEnvironment,
    addresses: Sequence[int],
) -> bool:
    """Can a public probe tell the two post-victim environments apart?

    This is a direct empirical test of Property 6 at the bottom level:
    if the victim's secrets only reached non-bottom state, every public
    probe must cost the same against both environments.
    """
    return probe(env_a, addresses).costs != probe(env_b, addresses).costs


def eviction_set(
    base_address: int, sets: int, block_bytes: int, ways: int, stride_sets: int = 0
) -> List[int]:
    """Addresses that all land in one cache set (a classic eviction set).

    ``stride_sets`` picks which set (offset from the base's set); the
    returned ``ways + 1`` addresses are guaranteed to overflow the set on
    any LRU cache of the given geometry.
    """
    set_stride = sets * block_bytes
    start = base_address + stride_sets * block_bytes
    return [start + i * set_stride for i in range(ways + 1)]
