"""The service audit: observed release-time leakage vs the Theorem 2 bound.

Two accounts are kept per tenant, and the audit passes only when both hold:

* **release account** -- what a client of *this* tenant can learn from its
  own response times.  The adversary-observable quantity is the
  start-to-release duration of each completed request; ``log2`` of the
  number of *distinct* values it took is the observed leakage in bits
  (same counting argument as Theorem 2's ``log |V|``).  It must not exceed
  the tenant's static bound
  ``|L^| * log2(K+1) * (1 + log2 T)`` from
  :func:`repro.quantitative.bounds.leakage_bound`, evaluated by the
  tenant's :class:`~repro.telemetry.leakage.DynamicLeakageMeter`;
* **deadline account** -- the meter's own check that the mitigation
  deadline *sequences* inside the handler stayed within the same bound
  (:meth:`~repro.telemetry.leakage.DynamicLeakageMeter.holds`).

On top of the bound check, the audit runs the adversarial client: the best
threshold distinguisher from :mod:`repro.attacks.distinguisher` is pointed

* at each tenant's own responses, split by the payload's ``secret_class``
  (valid vs invalid login, matching vs mismatching guess) -- can a client
  classify the tenant's secret-dependent behavior from response times?
* **across tenants**: each observer tenant's response times are labeled
  with the secret class of the *victim* tenant's most recently released
  request -- can tenant B's clients tell what tenant A was just serving?
  Under FIFO the shared queue makes this correlation visible; quantized
  release is designed to collapse it.

``advantage`` is accuracy minus chance (majority-class) accuracy; a value
near zero means the distinguisher did no better than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..attacks.distinguisher import AdvantageResult, advantage
from ..telemetry.leakage import EPSILON
from .gateway import Response, ServiceResult

#: Minimum samples per class before a distinguisher probe is attempted.
MIN_PROBE_SAMPLES = 2


def quantile(values: List[int], q: float) -> int:
    """Nearest-rank quantile (deterministic, no interpolation)."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class ProbeResult:
    """One threshold-distinguisher probe over labeled response times:
    ``result`` (:func:`repro.attacks.distinguisher.advantage`) carries the
    advantage and the Welch's t-test, so ``repro report`` shows *how well*
    the classes separate and whether the separation is statistically
    real, next to the tenant's Theorem 2 budget."""

    class_a: str
    class_b: str
    result: AdvantageResult

    def as_dict(self) -> Dict[str, Any]:
        result = self.result
        return {
            "classes": [self.class_a, self.class_b],
            "samples": [result.samples_a, result.samples_b],
            "accuracy": round(result.accuracy, 4),
            "chance": round(result.chance, 4),
            "advantage": round(result.advantage, 4),
            # JSON has no infinity: a zero-variance, distinct-means
            # channel (deterministically distinguishable) is null here.
            "t_stat": (None if math.isinf(result.t_stat)
                       else round(result.t_stat, 4)),
            "dof": round(result.dof, 2),
            "p_value": result.p_value,
            "significant": result.significant(),
        }


@dataclass
class TenantAudit:
    """One tenant's full leakage account."""

    tenant: str
    app: str
    observed_values: int
    observed_bits: float
    bound_bits: float
    deadline_bits: float
    deadline_within: bool
    probe: Optional[ProbeResult] = None
    meter: Dict[str, Any] = field(default_factory=dict)

    @property
    def release_within(self) -> bool:
        return self.observed_bits <= self.bound_bits + EPSILON

    @property
    def within_bound(self) -> bool:
        return self.release_within and self.deadline_within

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "app": self.app,
            "release": {
                "observed_values": self.observed_values,
                "observed_bits": round(self.observed_bits, 4),
                "bound_bits": round(self.bound_bits, 4),
                "within_bound": self.release_within,
            },
            "deadlines": self.meter,
            "within_bound": self.within_bound,
            "probe": self.probe.as_dict() if self.probe else None,
        }


@dataclass
class CrossTenantProbe:
    """Observer-vs-victim distinguisher result."""

    observer: str
    victim: str
    probe: ProbeResult

    def as_dict(self) -> Dict[str, Any]:
        out = {"observer": self.observer, "victim": self.victim}
        out.update(self.probe.as_dict())
        return out


@dataclass
class ServiceAudit:
    """The whole service's audit verdict."""

    tenants: Dict[str, TenantAudit]
    cross_tenant: List[CrossTenantProbe]

    @property
    def ok(self) -> bool:
        return all(t.within_bound for t in self.tenants.values())

    def max_observed_bits(self) -> float:
        """The worst tenant's observed release-time leakage (the 'leaked
        bits' column of the throughput benchmark)."""
        if not self.tenants:
            return 0.0
        return max(t.observed_bits for t in self.tenants.values())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "tenants": {
                name: audit.as_dict()
                for name, audit in sorted(self.tenants.items())
            },
            "cross_tenant": [p.as_dict() for p in self.cross_tenant],
        }


def _probe(grouped: Dict[str, List[int]]) -> Optional[ProbeResult]:
    """Best-threshold probe over the two largest classes with enough
    samples; None when the labeling cannot support a distinguisher."""
    eligible = sorted(
        (
            (name, times)
            for name, times in grouped.items()
            if len(times) >= MIN_PROBE_SAMPLES
        ),
        key=lambda item: (-len(item[1]), item[0]),
    )
    if len(eligible) < 2:
        return None
    (name_a, times_a), (name_b, times_b) = eligible[0], eligible[1]
    return ProbeResult(name_a, name_b,
                       advantage(times_a, times_b, name_a, name_b))


def _tenant_probe(responses: List[Response]) -> Optional[ProbeResult]:
    grouped: Dict[str, List[int]] = {}
    for response in responses:
        label = response.request.secret_class
        if label is None:
            continue
        grouped.setdefault(label, []).append(response.observable)
    return _probe(grouped)


def _cross_probes(result: ServiceResult) -> List[CrossTenantProbe]:
    """For each (observer, victim) pair: label the observer's response
    times by the victim's most recently *released* secret class."""
    completed = sorted(
        result.completed(), key=lambda r: (r.release, r.request.req_id)
    )
    names = sorted(result.stats)
    probes: List[CrossTenantProbe] = []
    for victim in names:
        victim_timeline = [
            (r.release, r.request.secret_class)
            for r in completed
            if r.tenant == victim and r.request.secret_class is not None
        ]
        if not victim_timeline:
            continue
        for observer in names:
            if observer == victim:
                continue
            grouped: Dict[str, List[int]] = {}
            cursor = 0
            last_class: Optional[str] = None
            for response in completed:
                if response.tenant != observer:
                    continue
                while (cursor < len(victim_timeline)
                       and victim_timeline[cursor][0] <= response.release):
                    last_class = victim_timeline[cursor][1]
                    cursor += 1
                if last_class is not None:
                    grouped.setdefault(last_class, []).append(
                        response.observable
                    )
            probe = _probe(grouped)
            if probe is not None:
                probes.append(
                    CrossTenantProbe(observer=observer, victim=victim,
                                     probe=probe)
                )
    return probes


def audit_service(result: ServiceResult) -> ServiceAudit:
    """Run the full audit over one gateway run, recording the adversarial
    probes into the global metrics registry as ``attack.service.*``."""
    by_tenant: Dict[str, List[Response]] = {name: [] for name in result.stats}
    for response in result.completed():
        by_tenant[response.tenant].append(response)

    tenants: Dict[str, TenantAudit] = {}
    for name in sorted(result.stats):
        meter = result.meters[name]
        responses = by_tenant[name]
        distinct = len({r.observable for r in responses})
        observed_bits = math.log2(distinct) if distinct else 0.0
        probe = _tenant_probe(responses)
        tenants[name] = TenantAudit(
            tenant=name,
            app=result.handlers[name].app,
            observed_values=distinct,
            observed_bits=observed_bits,
            bound_bits=meter.static_bound_bits(),
            deadline_bits=meter.observed_bits,
            deadline_within=meter.holds(),
            probe=probe,
            meter=meter.as_dict(),
        )

    cross = _cross_probes(result)

    # Surface the adversarial-client results through the standard
    # telemetry attack channel so `repro report` prints them alongside
    # everything else.
    registry = result.registry
    for name, audit in tenants.items():
        if audit.probe is not None:
            registry.set_gauge(
                f"attack.service.{name}.advantage",
                round(audit.probe.result.advantage, 4),
            )
    for probe in cross:
        registry.set_gauge(
            f"attack.service.{probe.observer}<-{probe.victim}.advantage",
            round(probe.probe.result.advantage, 4),
        )
    return ServiceAudit(tenants=tenants, cross_tenant=cross)


def service_document(result: ServiceResult,
                     audit: Optional[ServiceAudit] = None) -> Dict[str, Any]:
    """The full ``repro.telemetry/1`` metrics document for one gateway
    run: the global registry plus a ``service`` section with per-tenant
    latency/throughput stats and the audit."""
    if audit is None:
        audit = audit_service(result)
    spec = result.spec
    tenants: Dict[str, Any] = {}
    for name in sorted(result.stats):
        stats = result.stats[name]
        latencies = stats.latencies
        tenants[name] = {
            "app": result.handlers[name].app,
            "requests": {
                "submitted": stats.submitted,
                "completed": stats.completed,
                "rejected": stats.rejected,
                "timed_out": stats.timed_out,
            },
            "latency": {
                "p50": quantile(latencies, 0.50),
                "p99": quantile(latencies, 0.99),
                "mean": (round(sum(latencies) / len(latencies), 1)
                         if latencies else 0),
            },
            "observable": {
                "p50": quantile(stats.observables, 0.50),
                "p99": quantile(stats.observables, 0.99),
                "distinct": len(set(stats.observables)),
            },
            "mitigation": result.states[name].describe(),
            "audit": audit.tenants[name].as_dict(),
        }
    doc = result.registry.as_dict()
    doc["service"] = {
        "policy": result.policy.describe(),
        "scheme": spec.scheme,
        "penalty": spec.penalty,
        "workers": spec.workers,
        "queue_depth": spec.queue_depth,
        "arrival": dict(spec.arrival),
        "seed": spec.seed,
        "makespan": result.makespan,
        "throughput_per_mcycle": round(result.throughput_per_mcycle(), 3),
        "retries": result.retries,
        "requests": {
            "submitted": result.registry.counter("service.requests.submitted"),
            "completed": result.registry.counter("service.requests.ok"),
            "rejected": result.registry.counter("service.requests.rejected"),
            "timed_out": result.registry.counter("service.requests.timeout"),
        },
        "tenants": tenants,
        "cross_tenant": [p.as_dict() for p in audit.cross_tenant],
        "audit_ok": audit.ok,
    }
    return doc
