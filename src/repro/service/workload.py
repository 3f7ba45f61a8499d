"""Workload specs and deterministic load generation.

A workload is a JSON document (see ``docs/SERVICE.md`` and
``examples/service/basic.json``) naming the tenants (each an ``apps/``
handler with its own secret seed), the arrival process, and the gateway
configuration (scheduler policy, worker count, admission limits).  All
randomness -- tenant mix, payload contents, arrival gaps, retry jitter --
derives from the spec's single ``seed``, so one spec always produces the
same request stream and (because the gateway runs on a virtual clock) the
same release times.

Two arrival processes, the standard pair from the load-testing
literature:

* **open loop** (``{"kind": "open", "mean_gap": G}``): requests arrive on
  an exponential-gap process with mean ``G`` cycles, independent of how
  the server is doing -- the overload-honest model (arrivals do not slow
  down when the server backs up);
* **closed loop** (``{"kind": "closed", "clients": N, "think": Z}``):
  ``N`` clients each keep exactly one request outstanding and issue the
  next one ``Z`` cycles after receiving (or losing) the previous
  response -- the throughput-vs-concurrency model the service benchmark
  sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..hardware import REGISTRY
from ..lang.parser import DEFAULT_LATTICE
from ..lattice import Lattice, chain
from .handlers import Handler, Payload, make_handler

#: Scheduler policy names accepted by specs and the CLI.
POLICY_CHOICES = ("fifo", "rr", "quantized")
ARRIVAL_KINDS = ("open", "closed")


class WorkloadError(ValueError):
    """The workload spec is malformed (bad JSON shape, unknown app or
    policy, nonsensical limits)."""


@dataclass
class TenantSpec:
    """One tenant: a named handler instance with its own secret seed."""

    name: str
    app: str
    weight: float = 1.0
    config: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TenantSpec":
        if not isinstance(raw, Mapping):
            raise WorkloadError(f"tenant entries must be objects, got {raw!r}")
        unknown = set(raw) - {"name", "app", "weight", "config"}
        if unknown:
            raise WorkloadError(f"unknown tenant keys: {sorted(unknown)}")
        name = raw.get("name")
        app = raw.get("app")
        if not name or not isinstance(name, str):
            raise WorkloadError("every tenant needs a string 'name'")
        if not app or not isinstance(app, str):
            raise WorkloadError(f"tenant {name!r} needs a string 'app'")
        weight = raw.get("weight", 1.0)
        if not isinstance(weight, (int, float)) or weight <= 0:
            raise WorkloadError(f"tenant {name!r}: weight must be positive")
        config = raw.get("config", {})
        if not isinstance(config, Mapping):
            raise WorkloadError(f"tenant {name!r}: config must be an object")
        return cls(name=name, app=app, weight=float(weight),
                   config=dict(config))


@dataclass
class WorkloadSpec:
    """A parsed, validated workload document."""

    tenants: List[TenantSpec]
    seed: int = 0
    requests: int = 100
    policy: str = "fifo"
    quantum: int = 4096
    workers: int = 2
    queue_depth: int = 8
    timeout: int = 0  # 0 disables queue-wait timeouts
    max_retries: int = 3
    retry_backoff: int = 256
    arrival: Dict[str, Any] = field(
        default_factory=lambda: {"kind": "open", "mean_gap": 1024}
    )
    hardware: str = "partitioned"
    levels: Optional[Tuple[str, ...]] = None
    scheme: str = "doubling"
    penalty: str = "local"

    _KEYS = {
        "tenants", "seed", "requests", "policy", "quantum", "workers",
        "queue_depth", "timeout", "max_retries", "retry_backoff",
        "arrival", "hardware", "levels", "scheme", "penalty",
    }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "WorkloadSpec":
        if not isinstance(raw, Mapping):
            raise WorkloadError("workload spec must be a JSON object")
        unknown = set(raw) - cls._KEYS
        if unknown:
            raise WorkloadError(f"unknown spec keys: {sorted(unknown)}")
        tenants_raw = raw.get("tenants")
        if not tenants_raw or not isinstance(tenants_raw, list):
            raise WorkloadError("spec needs a non-empty 'tenants' list")
        tenants = [TenantSpec.from_dict(t) for t in tenants_raw]
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise WorkloadError("tenant names must be unique")
        spec = cls(
            tenants=tenants,
            seed=int(raw.get("seed", 0)),
            requests=int(raw.get("requests", 100)),
            policy=raw.get("policy", "fifo"),
            quantum=int(raw.get("quantum", 4096)),
            workers=int(raw.get("workers", 2)),
            queue_depth=int(raw.get("queue_depth", 8)),
            timeout=int(raw.get("timeout", 0)),
            max_retries=int(raw.get("max_retries", 3)),
            retry_backoff=int(raw.get("retry_backoff", 256)),
            arrival=dict(raw.get("arrival",
                                 {"kind": "open", "mean_gap": 1024})),
            hardware=raw.get("hardware", "partitioned"),
            levels=tuple(raw["levels"]) if raw.get("levels") else None,
            scheme=raw.get("scheme", "doubling"),
            penalty=raw.get("penalty", "local"),
        )
        spec.validate()
        return spec

    def validate(self) -> None:
        if self.hardware not in REGISTRY:
            raise WorkloadError(
                f"hardware must be one of {list(REGISTRY.choices())}, "
                f"got {self.hardware!r}"
            )
        if self.policy not in POLICY_CHOICES:
            raise WorkloadError(
                f"policy must be one of {POLICY_CHOICES}, got {self.policy!r}"
            )
        if self.requests < 1:
            raise WorkloadError("requests must be >= 1")
        if self.workers < 1:
            raise WorkloadError("workers must be >= 1")
        if self.queue_depth < 1:
            raise WorkloadError("queue_depth must be >= 1")
        if self.quantum < 1:
            raise WorkloadError("quantum must be >= 1")
        if self.timeout < 0 or self.max_retries < 0 or self.retry_backoff < 0:
            raise WorkloadError(
                "timeout, max_retries, and retry_backoff must be >= 0"
            )
        kind = self.arrival.get("kind")
        if kind not in ARRIVAL_KINDS:
            raise WorkloadError(
                f"arrival.kind must be one of {ARRIVAL_KINDS}, got {kind!r}"
            )
        if kind == "open" and int(self.arrival.get("mean_gap", 0)) < 1:
            raise WorkloadError("open arrivals need mean_gap >= 1")
        if kind == "closed":
            if int(self.arrival.get("clients", 0)) < 1:
                raise WorkloadError("closed arrivals need clients >= 1")
            if int(self.arrival.get("think", -1)) < 0:
                raise WorkloadError("closed arrivals need think >= 0")
        if self.scheme not in ("doubling", "polynomial"):
            raise WorkloadError("scheme must be 'doubling' or 'polynomial'")
        if self.penalty not in ("local", "global"):
            raise WorkloadError("penalty must be 'local' or 'global'")

    def lattice(self) -> Lattice:
        return chain(self.levels) if self.levels else DEFAULT_LATTICE

    def with_policy(
        self,
        policy: Optional[str] = None,
        quantum: Optional[int] = None,
        scheme: Optional[str] = None,
        penalty: Optional[str] = None,
    ) -> "WorkloadSpec":
        """A validated copy with the mitigation knobs replaced -- the seam
        ``repro tune`` uses to graft its recommended policy fragment onto
        an existing workload before re-running the gateway."""
        import copy

        spec = copy.deepcopy(self)
        if policy is not None:
            spec.policy = policy
        if quantum is not None:
            spec.quantum = quantum
        if scheme is not None:
            spec.scheme = scheme
        if penalty is not None:
            spec.penalty = penalty
        spec.validate()
        return spec

    def build_handlers(self) -> Dict[str, Handler]:
        """One handler per tenant, each with a secret seed derived from
        the spec seed and the tenant name (stable across runs)."""
        lattice = self.lattice()
        handlers = {}
        for tenant in self.tenants:
            seed = _tenant_seed(self.seed, tenant.name)
            try:
                handlers[tenant.name] = make_handler(
                    tenant.app, lattice, tenant.config, seed
                )
            except ValueError as err:
                raise WorkloadError(f"tenant {tenant.name!r}: {err}")
        return handlers


def _tenant_seed(seed: int, name: str) -> int:
    """A stable per-tenant secret seed (FNV-1a over the tenant name,
    folded with the spec seed -- no hash() so it survives PYTHONHASHSEED)."""
    digest = 2166136261
    for byte in name.encode():
        digest = ((digest ^ byte) * 16777619) & 0xFFFFFFFF
    return (seed * 0x9E3779B1 + digest) & 0x7FFFFFFF


@dataclass
class Request:
    """One in-flight request as the gateway sees it."""

    req_id: int
    tenant: str
    arrival: int
    payload: Payload
    client: int = 0
    attempts: int = 0

    @property
    def secret_class(self) -> Optional[str]:
        return self.payload.secret_class


class LoadGenerator:
    """Produces the request stream for one gateway run.

    :meth:`initial` yields the requests known before the simulation
    starts; :meth:`on_done` is called by the gateway every time a request
    reaches a terminal state (released, rejected, or timed out) and may
    return a follow-up request (the closed-loop think cycle).

    This class is also the reference implementation of the gateway's
    *request source* protocol: anything with ``initial()`` and
    ``on_response(response, time)`` can drive the gateway
    (``Gateway(spec, source=...)``) -- the seam the red-team adversary
    clients (:mod:`repro.adversary`) inject through.  ``on_response``
    receives the full terminal :class:`~repro.service.gateway.Response`
    (so a source can read release times, the adversary's observable) and
    may return ``None``, one follow-up :class:`Request`, or a list of
    them.
    """

    def __init__(self, spec: WorkloadSpec, handlers: Mapping[str, Handler]):
        self.spec = spec
        self.handlers = handlers
        self.rng = random.Random(spec.seed)
        self.names = [t.name for t in spec.tenants]
        self.weights = [t.weight for t in spec.tenants]
        self.issued = 0

    def _next_request(self, arrival: int, client: int = 0) -> Request:
        tenant = self.rng.choices(self.names, weights=self.weights, k=1)[0]
        payload = self.handlers[tenant].new_payload(self.rng)
        request = Request(
            req_id=self.issued, tenant=tenant, arrival=arrival,
            payload=payload, client=client,
        )
        self.issued += 1
        return request

    def initial(self) -> List[Request]:
        kind = self.spec.arrival["kind"]
        if kind == "open":
            mean_gap = int(self.spec.arrival["mean_gap"])
            clock = 0
            out = []
            for _ in range(self.spec.requests):
                clock += 1 + int(self.rng.expovariate(1.0 / mean_gap))
                out.append(self._next_request(clock))
            return out
        clients = int(self.spec.arrival["clients"])
        # Stagger the first wave so clients do not all collide at clock 0.
        return [
            self._next_request(self.rng.randrange(64), client=c)
            for c in range(min(clients, self.spec.requests))
        ]

    def on_done(self, request: Request, time: int) -> Optional[Request]:
        """A request reached a terminal state at ``time``; closed-loop
        clients think for a bit and come back."""
        if self.spec.arrival["kind"] != "closed":
            return None
        if self.issued >= self.spec.requests:
            return None
        think = int(self.spec.arrival["think"])
        return self._next_request(time + think, client=request.client)

    def on_response(self, response: Any, time: int) -> Optional[Request]:
        """Request-source protocol entry point: the load generator only
        needs the request identity, not the response timing."""
        return self.on_done(response.request, time)
