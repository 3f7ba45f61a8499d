"""The attack registry: every adversary the red-team campaign knows.

Mirrors :mod:`repro.hardware.registry`: each entry records not just a
factory but the *expected verdict* -- which scheduler policies are
supposed to defeat the attack (hold it at or below the victim's Theorem 2
budget).  The campaign (:mod:`repro.adversary.campaign`) treats that
metadata as falsifiable in both directions: an attack beating its budget
under a policy in ``defeated_by`` is a gateway bug, and an attack that
extracts nothing under *any* policy means the harness is vacuous (the
positive-control check).

Registered attacks
------------------

==========================  ========  ======================================
name                        defeated  mechanism
==========================  ========  ======================================
password-crack              quantized per-character crack of an unmitigated
                                      early-exit compare (service-time
                                      observable)
password-crack-mitigated    all       the same crack against a ``mitigate``d
                                      victim: the language-level defense,
                                      effective under every policy
tag-forge                   quantized hex-nibble sweep forging a keyed-hash
                                      tag (oscar230's insecure compare)
contention-probe            quantized cross-tenant load modulation read
                                      through the receiver's queue wait
==========================  ========  ======================================

Each spec's ``workload`` factory returns the tenant mix and gateway shape
the attack runs against; the campaign fills in policy, seed, and quantum.
Victims of the crack attacks are deliberately *unmitigated* -- their
static Theorem 2 budget is therefore zero bits (no mitigate sites means
``K = 0``), which is exactly the claim under test: fifo lets the
adversary extract bits it was never budgeted, the quantized release
policy does not.

A probe attack's strategy is not tied to the gateway:
:func:`~.engine.run_in_process` drives the same generator against an
in-process victim, which is how the offline password benchmark runs it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterator, Optional, Tuple

from .attacks import password_crack, tag_forge
from .engine import Strategy


class AttackRegistryError(ValueError):
    """An unknown attack name, or a conflicting registration."""


#: A strategy factory:
#: ``(victim_profile, rng, samples) -> strategy generator``.
StrategyFactory = Callable[[Dict[str, Any], random.Random, int], Strategy]


@dataclass(frozen=True)
class AttackSpec:
    """One registered adversary plus its expected-verdict metadata."""

    #: Canonical attack name (CLI-facing).
    name: str
    #: One-line description for catalogs and ``repro attack --list``.
    summary: str
    #: ``probe`` (adaptive strategy over the ProbeSource engine) or
    #: ``contention`` (the phased cross-tenant ContentionSource).
    kind: str
    #: The handler app the victim tenant runs.
    target_app: str
    #: Policies expected to hold the attack at/below the victim's budget.
    #: A policy *not* listed here is expected to leak (fifo/rr for the
    #: unmitigated victims) -- the campaign's positive control.
    defeated_by: FrozenSet[str]
    #: Which Response quantity the adversary measures:
    #: ``observable`` (start-to-release) or ``latency``
    #: (arrival-to-release, the contention probe's signal).
    metric: str
    #: Worker-pool sizes the campaign sweeps for this attack.
    client_counts: Tuple[int, ...]
    #: Partial workload document: tenants, workers, arrival, background
    #: request count.  The campaign merges in policy/seed/quantum.
    workload: Callable[[], Dict[str, Any]]
    #: The tenant under attack.
    victim: str = "victim"
    #: Probe attacks: builds the strategy from the victim's public
    #: profile and the cell's seeded RNG.
    strategy: Optional[StrategyFactory] = None
    #: Probe attacks: extracts the victim's *public* parameters (lengths,
    #: alphabets) from its handler -- never the secret itself.
    profile: Optional[Callable[[Any], Dict[str, Any]]] = None
    #: Scoring: the ground-truth symbol sequence, from the victim handler
    #: and the attack's findings context (e.g. the forged message).
    truth: Optional[Callable[[Any, Dict[str, Any]], list]] = None
    #: Contention attacks: sender/receiver roles, phase geometry, and
    #: client think times (ContentionSource keyword arguments).
    contention: Optional[Dict[str, Any]] = None

    def expected_word(self, policy: str) -> str:
        """``defeated`` or ``leaks`` -- the expectation, for output."""
        return "defeated" if policy in self.defeated_by else "leaks"


class AttackRegistry:
    """Name -> :class:`AttackSpec`, iteration in registration order."""

    def __init__(self) -> None:
        self._specs: Dict[str, AttackSpec] = {}

    def register(self, spec: AttackSpec) -> AttackSpec:
        if spec.name in self._specs:
            raise AttackRegistryError(
                f"attack name {spec.name!r} is already registered"
            )
        if spec.kind not in ("probe", "contention"):
            raise AttackRegistryError(
                f"{spec.name}: unknown attack kind {spec.kind!r}"
            )
        if spec.kind == "probe" and (
                spec.strategy is None or spec.profile is None):
            raise AttackRegistryError(
                f"{spec.name}: probe attacks need strategy and profile"
            )
        if spec.kind == "contention" and spec.contention is None:
            raise AttackRegistryError(
                f"{spec.name}: contention attacks need phase parameters"
            )
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> AttackSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise AttackRegistryError(
                f"unknown attack {name!r}; choose from {list(self.names())}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[AttackSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def specs(self) -> Tuple[AttackSpec, ...]:
        return tuple(self._specs.values())


def _crack_workload() -> Dict[str, Any]:
    """The crack victims' serving shape: the vulnerable tenant plus a
    login tenant supplying realistic background traffic."""
    return {
        "tenants": [
            {"name": "victim", "app": "password",
             "config": {"mitigated": False, "length": 4, "alphabet": 8}},
            {"name": "mixer", "app": "login",
             "config": {"table_size": 4}},
        ],
        "workers": 2,
        "queue_depth": 16,
        "requests": 40,
        "arrival": {"kind": "closed", "clients": 2, "think": 512},
    }


def _mitigated_workload() -> Dict[str, Any]:
    """The same shape with the language-level defense on: the victim's
    compare runs under ``mitigate`` with a budget covering its
    worst-case cost, so the padded duration is constant from the first
    request."""
    spec = _crack_workload()
    spec["tenants"][0]["config"] = {
        "mitigated": True, "length": 4, "alphabet": 8, "budget": 4096,
    }
    return spec


def _tag_workload() -> Dict[str, Any]:
    return {
        "tenants": [
            {"name": "victim", "app": "tag",
             "config": {"mitigated": False, "nibbles": 5}},
            {"name": "mixer", "app": "login",
             "config": {"table_size": 4}},
        ],
        "workers": 2,
        "queue_depth": 16,
        "requests": 40,
        "arrival": {"kind": "closed", "clients": 2, "think": 512},
    }


def _contention_workload() -> Dict[str, Any]:
    """One worker, two constant-service tenants: the only timing left is
    queue wait, which is exactly what the probe modulates."""
    return {
        "tenants": [
            {"name": "observer", "app": "password",
             "config": {"mitigated": True, "length": 4, "budget": 512}},
            {"name": "bursty", "app": "password",
             "config": {"mitigated": True, "length": 4, "budget": 512}},
        ],
        "workers": 1,
        "queue_depth": 16,
        "requests": 1,
        "arrival": {"kind": "closed", "clients": 1, "think": 1024},
    }


def _password_profile(handler: Any) -> Dict[str, Any]:
    return {"length": handler.checker.length, "alphabet": handler.alphabet}


def _tag_profile(handler: Any) -> Dict[str, Any]:
    return {"nibbles": handler.nibbles,
            "message_len": handler.MESSAGE_LEN}


def _default_registry() -> AttackRegistry:
    registry = AttackRegistry()
    registry.register(AttackSpec(
        name="password-crack",
        summary="per-character crack of an unmitigated early-exit "
                "compare: quick-rank all symbols, verify promoted "
                "candidates with median-of-N",
        kind="probe",
        target_app="password",
        defeated_by=frozenset({"quantized"}),
        metric="observable",
        client_counts=(1, 4),
        workload=_crack_workload,
        strategy=password_crack,
        profile=_password_profile,
        truth=lambda handler, extra: list(handler.stored),
    ))
    registry.register(AttackSpec(
        name="password-crack-mitigated",
        summary="the same crack against a mitigate-wrapped victim: the "
                "language-level defense holds under every policy",
        kind="probe",
        target_app="password",
        defeated_by=frozenset({"fifo", "rr", "quantized"}),
        metric="observable",
        client_counts=(4,),
        workload=_mitigated_workload,
        strategy=password_crack,
        profile=_password_profile,
        truth=lambda handler, extra: list(handler.stored),
    ))
    registry.register(AttackSpec(
        name="tag-forge",
        summary="hex-prefix sweep forging a keyed-hash tag nibble by "
                "nibble through the early-exit compare",
        kind="probe",
        target_app="tag",
        defeated_by=frozenset({"quantized"}),
        metric="observable",
        client_counts=(1, 4),
        workload=_tag_workload,
        strategy=tag_forge,
        profile=_tag_profile,
        truth=lambda handler, extra: handler.tag_for(extra["message"]),
    ))
    registry.register(AttackSpec(
        name="contention-probe",
        summary="cross-tenant contention: modulate one tenant's load in "
                "timed phases, read the other tenant's queue wait",
        kind="contention",
        target_app="password",
        defeated_by=frozenset({"quantized"}),
        metric="latency",
        client_counts=(2,),
        workload=_contention_workload,
        victim="observer",
        contention={
            "sender": "bursty",
            "receiver": "observer",
            "phases": 8,
            "phase_len": 16384,
            "think_send": 256,
            "think_recv": 64,
            "senders": 1,
        },
    ))
    return registry


#: The process-wide default registry.  Tests that want isolation build
#: their own :class:`AttackRegistry` instead of mutating this one.
REGISTRY = _default_registry()
