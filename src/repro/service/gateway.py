"""The mitigated request gateway: a deterministic virtual-clock server.

The gateway is a discrete-event simulation of the paper's motivating
deployment (Sec. 1, Fig. 7/8): many clients, one shared server, response
*times* as the channel.  Everything advances on one global virtual clock
measured in hardware cycles, so a workload spec plus a seed fully
determines every release time -- the property the leakage audit and the
reproducibility tests lean on.

Per request, the life cycle is::

    arrival --admit--> tenant queue --dispatch--> execute --release--> client
        \\-- queue full: retry with jitter (bounded), then reject
        \\-- waited past the timeout at dispatch: drop as timed out

and the pieces that make it *timing-safe* rather than merely functional:

* every handler invocation runs under the existing predictive-mitigation
  runtime with a **tenant-owned**
  :class:`~repro.semantics.mitigation.MitigationState` -- tenant A's
  mispredictions inflate only A's predictions, so one tenant's ``Miss``
  trajectory can never become another tenant's timing oracle;
* each tenant also owns a
  :class:`~repro.telemetry.leakage.DynamicLeakageMeter`, fed one
  deadline sequence per request, so the Theorem 2 account is kept *per
  tenant* end to end;
* the release discipline is the scheduler policy's
  (:mod:`repro.service.scheduler`): under the quantized policy both
  starts and releases snap to quantum boundaries, TIFC-style.

Admission control keeps overload from deadlocking anything: queues are
bounded per tenant (backpressure), a full queue bounces the arrival into a
seeded retry-with-jitter loop, and requests that waited past the timeout
are dropped at dispatch instead of occupying a worker.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
import random
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

from ..semantics.mitigation import MitigationState, make_scheme
from ..telemetry.leakage import DynamicLeakageMeter
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.recorder import (
    RecordingTraceRecorder,
    TraceRecorder,
    combine,
)
from .handlers import Handler
from .scheduler import SchedulerPolicy, make_policy, new_queues
from .workload import LoadGenerator, Request, WorkloadSpec

#: Event priorities: at equal clock values, arrivals enter queues before
#: freed workers re-dispatch, and alignment ticks run last.  Any fixed
#: order works; fixing one keeps runs bit-for-bit reproducible.
_ARRIVAL, _FREE, _TICK = 0, 1, 2


@dataclass
class Response:
    """The terminal record of one request."""

    request: Request
    status: str  # "ok" | "rejected" | "timeout"
    start: Optional[int] = None
    completion: Optional[int] = None
    release: Optional[int] = None
    service: Optional[int] = None  # padded program cycles

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def latency(self) -> Optional[int]:
        """Arrival-to-release latency (queueing + service + hold)."""
        if self.release is None:
            return None
        return self.release - self.request.arrival

    @property
    def observable(self) -> Optional[int]:
        """The start-to-release duration -- what a client that knows when
        its request was picked up observes.  This is the quantity the
        per-tenant release audit counts distinct values of."""
        if self.release is None or self.start is None:
            return None
        return self.release - self.start


@dataclass
class TenantStats:
    """Live per-tenant accounting (summarized into the service section)."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    timed_out: int = 0
    latencies: List[int] = field(default_factory=list)
    observables: List[int] = field(default_factory=list)
    services: List[int] = field(default_factory=list)


@dataclass
class ServiceResult:
    """Everything one gateway run produces."""

    spec: WorkloadSpec
    policy: SchedulerPolicy
    responses: List[Response]
    makespan: int
    registry: MetricsRegistry
    tenant_registries: Dict[str, MetricsRegistry]
    meters: Dict[str, DynamicLeakageMeter]
    states: Dict[str, MitigationState]
    stats: Dict[str, TenantStats]
    handlers: Dict[str, Handler]
    retries: int

    def completed(self) -> List[Response]:
        return [r for r in self.responses if r.status == "ok"]

    def release_times(self) -> List[int]:
        """Every release time, in completion order -- the determinism
        fingerprint the tests compare across runs."""
        return [r.release for r in self.responses if r.release is not None]

    def throughput_per_mcycle(self) -> float:
        """Completed requests per million cycles of makespan."""
        if not self.makespan:
            return 0.0
        return len(self.completed()) * 1e6 / self.makespan


class Gateway:
    """One configured serving instance; :meth:`serve` runs the workload.

    The gateway always records into its own metrics registries.
    ``recorder`` (e.g. a :class:`~repro.telemetry.profiling.Profiler`, or
    several sinks combined) additionally observes every handler run and
    the gateway hooks (``on_serve_start``/``on_request``/``on_serve_end``).
    """

    def __init__(self, spec: WorkloadSpec,
                 recorder: Optional[TraceRecorder] = None,
                 source: Optional[Any] = None):
        self.spec = spec
        # The programmatic injection seam: any object with ``initial()``
        # and ``on_response(response, time)`` (the LoadGenerator
        # protocol) can drive the gateway -- the adversary harness
        # (:mod:`repro.adversary`) submits its probe clients through
        # here, interleaved with whatever background load it composes.
        self._source = source
        self._recorder = recorder
        self.handlers = spec.build_handlers()
        names = [t.name for t in spec.tenants]
        self.policy = make_policy(spec.policy, names, spec.quantum)
        self.registry = MetricsRegistry()
        global_recorder = RecordingTraceRecorder(registry=self.registry)
        scheme = make_scheme(spec.scheme)
        self.states: Dict[str, MitigationState] = {}
        self.meters: Dict[str, DynamicLeakageMeter] = {}
        self.tenant_registries: Dict[str, MetricsRegistry] = {}
        #: One recorder per tenant for its handler runs: the global and
        #: tenant registries plus the caller's ``recorder``.
        self._tenant_recorders: Dict[str, TraceRecorder] = {}
        lattice = spec.lattice()
        for name in names:
            handler = self.handlers[name]
            self.states[name] = MitigationState(scheme=scheme,
                                                policy=spec.penalty)
            self.meters[name] = DynamicLeakageMeter(
                lattice, levels=handler.levels
            )
            self.tenant_registries[name] = MetricsRegistry()
            self._tenant_recorders[name] = combine(
                global_recorder,
                RecordingTraceRecorder(registry=self.tenant_registries[name],
                                       meter=self.meters[name]),
                recorder,
            )
        self._queues = new_queues(names)
        self._stats = {name: TenantStats() for name in names}
        self._retry_rng = random.Random(spec.seed ^ 0x5EED5EED)
        self._responses: List[Response] = []
        self._heap: List[Tuple[int, int, int, Optional[Request]]] = []
        self._seq = 0
        self._idle: List[int] = []
        self._ticks: set = set()
        self._generator: Optional[Any] = None  # the active request source
        self._retries = 0
        self._clock = 0

    def use_source(self, source: Any) -> "Gateway":
        """Install a request source after construction (the adversary
        harness builds its source from this gateway's handlers)."""
        self._source = source
        return self

    # -- event plumbing ------------------------------------------------------

    def _push(self, time: int, priority: int,
              item: Optional[Request]) -> None:
        heapq.heappush(self._heap, (time, priority, self._seq, item))
        self._seq += 1

    def _schedule_tick(self, time: int) -> None:
        if time not in self._ticks:
            self._ticks.add(time)
            self._push(time, _TICK, None)

    def _queued(self) -> bool:
        return any(self._queues.values())

    # -- request life cycle --------------------------------------------------

    def _admit(self, request: Request, now: int) -> None:
        if request.attempts == 0:
            # First sighting of this request (retries re-enter with
            # attempts > 0): count the submission exactly once.
            self.registry.inc("service.requests.submitted")
            self.tenant_registries[request.tenant].inc(
                "service.requests.submitted"
            )
            self._stats[request.tenant].submitted += 1
        queue = self._queues[request.tenant]
        if len(queue) < self.spec.queue_depth:
            queue.append(request)
            return
        # Backpressure: bounce, retry with seeded jitter, give up after
        # max_retries so overload sheds load instead of deadlocking.
        if request.attempts < self.spec.max_retries:
            request.attempts += 1
            backoff = self.spec.retry_backoff * request.attempts
            jitter = self._retry_rng.randrange(
                max(self.spec.retry_backoff, 1)
            )
            self._retries += 1
            self.registry.inc("service.retries")
            self._push(now + max(backoff + jitter, 1), _ARRIVAL, request)
            return
        self._finish(Response(request=request, status="rejected"), now)

    def _finish(self, response: Response, now: int) -> None:
        """Record a terminal state and let the generator react."""
        self._responses.append(response)
        stats = self._stats[response.tenant]
        registry = self.tenant_registries[response.tenant]
        for reg in (self.registry, registry):
            reg.inc(f"service.requests.{response.status}")
        if response.status == "ok":
            stats.completed += 1
            stats.latencies.append(response.latency)
            stats.observables.append(response.observable)
            stats.services.append(response.service)
            registry.observe("hist.service.observable", response.observable)
        elif response.status == "rejected":
            stats.rejected += 1
        else:
            stats.timed_out += 1
        time = response.release if response.release is not None else now
        follow_up = self._generator.on_response(response, time)
        if follow_up is None:
            return
        for request in (follow_up if isinstance(follow_up, list)
                        else [follow_up]):
            self._push(request.arrival, _ARRIVAL, request)

    def _dispatch(self, now: int) -> None:
        recorder = self._recorder
        while self._idle and self._queued():
            start = self.policy.dispatch_time(now)
            if start > now:
                self._schedule_tick(start)
                return
            request = self.policy.select(self._queues)
            if request is None:
                return
            if (self.spec.timeout
                    and now - request.arrival > self.spec.timeout):
                self._finish(Response(request=request, status="timeout"),
                             now)
                continue
            self._idle.pop()
            tenant = request.tenant
            # Two clock reads per request (the handler run dwarfs them),
            # so the hook below needs no second branch.
            started = perf_counter_ns()
            result = self.handlers[tenant].run(
                request.payload, self.states[tenant],
                self._tenant_recorders[tenant], self.spec.hardware,
            )
            wall_ns = perf_counter_ns() - started
            completion = now + result.time
            release = self.policy.release_time(now, completion)
            self._push(completion, _FREE, None)
            response = Response(
                request=request, status="ok", start=now,
                completion=completion, release=release, service=result.time,
            )
            self._finish(response, now)
            if recorder is not None:
                recorder.on_request(response, wall_ns, self.meters[tenant])

    # -- driving -------------------------------------------------------------

    def serve(self) -> ServiceResult:
        """Run the whole workload to completion and return the result."""
        self._generator = (
            self._source if self._source is not None
            else LoadGenerator(self.spec, self.handlers)
        )
        recorder = self._recorder
        if recorder is not None:
            recorder.on_serve_start()
        for request in self._generator.initial():
            self._push(request.arrival, _ARRIVAL, request)
        self._idle = list(range(self.spec.workers))
        while self._heap:
            time, priority, _, item = heapq.heappop(self._heap)
            self._clock = max(self._clock, time)
            if priority == _ARRIVAL and item is not None:
                self._admit(item, time)
            elif priority == _FREE:
                self._idle.append(0)
            self._dispatch(time)
        makespan = max(
            [self._clock] + [r.release for r in self._responses
                             if r.release is not None]
        )
        if recorder is not None:
            # Every pushed event was popped by the time the heap drains,
            # so _seq counts processed events.
            recorder.on_serve_end(self._seq)
        return ServiceResult(
            spec=self.spec,
            policy=self.policy,
            responses=self._responses,
            makespan=makespan,
            registry=self.registry,
            tenant_registries=self.tenant_registries,
            meters=self.meters,
            states=self.states,
            stats=self._stats,
            handlers=self.handlers,
            retries=self._retries,
        )


def serve_workload(
    spec_or_dict, recorder: Optional[TraceRecorder] = None,
) -> ServiceResult:
    """Convenience: build a gateway from a spec (or raw dict) and serve."""
    spec = (
        spec_or_dict
        if isinstance(spec_or_dict, WorkloadSpec)
        else WorkloadSpec.from_dict(spec_or_dict)
    )
    return Gateway(spec, recorder=recorder).serve()
