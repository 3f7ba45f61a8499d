"""The measurement engine: adversary strategies against a timing oracle.

The related repos' over-the-wire attacks (ROADMAP: DorFerenc's threaded
``attack.py``, oscar230's ``program.py``) share one measurement shape: a
pool of concurrent clients submits probe requests, each probe is repeated
and reduced to a median, the first few responses are discarded as warm-up,
and candidate promotion is two-stage (cheap rank, careful verify).  This
module reproduces that shape *inside* the gateway's deterministic event
loop, via the request-source seam (``Gateway(spec, source=...)``):

* :class:`ProbeSource` runs a *strategy generator* -- an adaptive attack
  that yields batches of :class:`Probe` descriptors and receives the
  measured times back -- over a pool of ``clients`` closed-loop adversary
  workers, interleaved with the spec's ordinary background load;
* :class:`ContentionSource` runs the cross-tenant contention probe: one
  set of clients modulates a victim tenant's load in timed phases while a
  receiver client on another tenant measures its own latency shift;
* :func:`run_in_process` drives the same strategies against an
  in-process oracle -- a function from probe arguments to one measured
  time -- with no gateway, no background load and no warm-up.

Adversary requests live in their own id space (:data:`ADVERSARY_ID_BASE`)
so they can never collide with the background generator's ids, and every
client's request stream derives from :func:`worker_seed` -- the
``seed ^ crc32(point)`` discipline of ``hardware/verify.py`` -- so a
campaign replays bit-for-bit from its seed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple
from zlib import crc32

from ..service.handlers import Handler, Payload
from ..service.workload import LoadGenerator, Request, WorkloadSpec

#: Adversary request ids start here; the background LoadGenerator issues
#: at most ``spec.requests`` ids from zero, so the scheduler's
#: (arrival, req_id) tie-break stays deterministic across the two streams.
ADVERSARY_ID_BASE = 1_000_000


def worker_seed(campaign_seed: int, point: str) -> int:
    """A stable derived seed for one attack cell or worker.

    Same pattern as ``hardware.verify.point_seed``: xor the campaign seed
    with a CRC of the point's name, so every (attack, policy, clients,
    worker) tuple gets an independent but replayable stream.
    """
    return campaign_seed ^ crc32(point.encode())


@dataclass
class Probe:
    """One probe the strategy wants measured.

    ``key`` identifies the measurement in the results dict fed back to
    the strategy (``None`` marks warm-up probes whose times are
    discarded); ``repeats`` requests that many independent submissions of
    the same payload -- their times come back as one list, ready for
    :func:`repro.attacks.distinguisher.median`.
    """

    key: Any
    args: Dict[str, Any]
    repeats: int = 1


#: The strategy protocol: yield probe batches, receive ``{key: [times]}``,
#: return findings (any object) via StopIteration.
Strategy = Generator[List[Probe], Dict[Any, List[int]], Any]


def run_in_process(strategy: Strategy,
                   measure: Callable[[Dict[str, Any]], int]) -> Any:
    """Drive ``strategy`` to completion against an in-process oracle.

    Each probe's ``args`` is measured ``repeats`` times with
    ``measure(args)``, in batch order; the strategy's findings are
    returned.
    """
    try:
        batch = next(strategy)
        while True:
            results: Dict[Any, List[int]] = {}
            for probe in batch:
                results.setdefault(probe.key, []).extend(
                    measure(probe.args) for _ in range(probe.repeats)
                )
            batch = strategy.send(results)
    except StopIteration as stop:
        return stop.value


class ProbeSource:
    """Drives one adaptive probe attack through the gateway.

    A request source (the ``LoadGenerator`` protocol) composing:

    * the spec's ordinary background load (other tenants' traffic keeps
      the queues realistic -- the adversary never measures an idle
      server);
    * ``clients`` adversary workers, each keeping one probe request
      outstanding against the ``victim`` tenant, thinking ``think``
      cycles (plus a small per-worker seeded jitter) between probes.

    The attack itself is the ``strategy`` generator.  Its probe batches
    are expanded into a work queue the workers drain concurrently; when
    the last in-flight probe of a batch lands, the measured times go back
    into the generator and the next batch (re)fills the pool.  The first
    ``warmup`` probes replay the first batch's first payload and are
    discarded -- they absorb cache warm-up and the mitigation scheme's
    initial prediction staircase.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        handlers: Dict[str, Handler],
        victim: str,
        strategy: Strategy,
        clients: int = 4,
        warmup: int = 4,
        think: int = 64,
        seed: int = 0,
        background: bool = True,
        metric: str = "observable",
    ):
        if victim not in handlers:
            raise ValueError(f"unknown victim tenant {victim!r}")
        if clients < 1:
            raise ValueError("need at least one adversary client")
        self.victim = victim
        self.clients = clients
        self.think = think
        self.metric = metric
        self.strategy = strategy
        self.findings: Any = None
        self.probes_sent = 0
        self.warmup_discarded = 0
        self._background = (
            LoadGenerator(spec, handlers) if background else None
        )
        self._jitter = [
            random.Random(worker_seed(seed, f"worker:{i}"))
            for i in range(clients)
        ]
        self._work: deque = deque()
        self._inflight: Dict[int, Tuple[Any, Dict[str, Any]]] = {}
        self._batch_keys: List[Any] = []
        self._results: Dict[Any, List[int]] = {}
        self._next_id = ADVERSARY_ID_BASE
        self._done = False
        self._prime(warmup)

    # -- batch plumbing ------------------------------------------------------

    def _prime(self, warmup: int) -> None:
        try:
            batch = next(self.strategy)
        except StopIteration as stop:
            self.findings = stop.value
            self._done = True
            return
        if batch and warmup:
            for _ in range(warmup):
                self._work.append((None, batch[0].args))
        self._queue_batch(batch)

    def _queue_batch(self, batch: List[Probe]) -> None:
        self._batch_keys = [probe.key for probe in batch]
        for probe in batch:
            for _ in range(probe.repeats):
                self._work.append((probe.key, probe.args))

    def _advance(self) -> None:
        """The batch is fully measured: feed times back, get the next."""
        results = {
            key: self._results.get(key, []) for key in self._batch_keys
        }
        self._results = {}
        try:
            batch = self.strategy.send(results)
        except StopIteration as stop:
            self.findings = stop.value
            self._done = True
            return
        self._queue_batch(batch)

    def _issue(self, item: Tuple[Any, Dict[str, Any]], arrival: int,
               worker: int) -> Request:
        key, args = item
        request = Request(
            req_id=self._next_id, tenant=self.victim, arrival=arrival,
            payload=Payload(args, None), client=worker,
        )
        self._next_id += 1
        self._inflight[request.req_id] = item
        self.probes_sent += 1
        return request

    def _observe(self, response: Any) -> Optional[int]:
        if self.metric == "latency":
            return response.latency
        return response.observable

    # -- request-source protocol ---------------------------------------------

    def initial(self) -> List[Request]:
        out = self._background.initial() if self._background else []
        for worker in range(self.clients):
            if not self._work:
                break
            # Staggered starts, one cycle apart: concurrent but ordered.
            out.append(self._issue(self._work.popleft(), worker, worker))
        return out

    def on_response(self, response: Any, time: int) -> Optional[List[Request]]:
        request = response.request
        if request.req_id < ADVERSARY_ID_BASE:
            follow = (
                self._background.on_response(response, time)
                if self._background else None
            )
            return [follow] if follow is not None else None
        key, args = self._inflight.pop(request.req_id)
        worker = request.client
        gap = self.think + self._jitter[worker].randrange(16)
        if response.status != "ok":
            # Dropped by admission control: the probe was not measured;
            # resubmit it after the think gap.
            return [self._issue((key, args), time + gap, worker)]
        if key is None:
            self.warmup_discarded += 1
        else:
            measured = self._observe(response)
            if measured is not None:
                self._results.setdefault(key, []).append(measured)
        out: List[Request] = []
        if self._work:
            out.append(self._issue(self._work.popleft(), time + gap, worker))
        elif not self._inflight and not self._done:
            self._advance()
            # Refill the whole pool: workers that idled at the tail of
            # the previous batch come back for the new one.
            for idle in range(self.clients):
                if not self._work:
                    break
                out.append(
                    self._issue(self._work.popleft(), time + gap + idle,
                                idle)
                )
        return out or None


@dataclass
class ContentionSample:
    """One receiver measurement: when it arrived and what it cost."""

    arrival: int
    latency: int


class ContentionSource:
    """The cross-tenant contention probe.

    ``senders`` closed-loop clients drive the ``sender`` tenant only
    during *burst* phases (odd multiples of ``phase_len`` on the virtual
    clock) and go silent in between; one receiver client keeps a request
    outstanding against the ``receiver`` tenant the whole run and records
    its own arrival-to-release latency.  If the receiver's latency
    distribution differs between burst and quiet phases, the scheduler is
    propagating one tenant's load into another tenant's timing -- the
    cross-tenant channel the quantized policy must close.

    The receiver measures *latency* (not the start-to-release
    observable): a tenant always knows when it sent its own request, and
    queue wait is exactly the quantity contention modulates.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        handlers: Dict[str, Handler],
        sender: str,
        receiver: str,
        phases: int = 8,
        phase_len: int = 16384,
        think_send: int = 256,
        think_recv: int = 64,
        senders: int = 1,
        seed: int = 0,
    ):
        for tenant in (sender, receiver):
            if tenant not in handlers:
                raise ValueError(f"unknown tenant {tenant!r}")
        if phases < 4 or phases % 2:
            raise ValueError("need an even number of phases >= 4")
        self.sender = sender
        self.receiver = receiver
        self.phases = phases
        self.phase_len = phase_len
        self.think_send = think_send
        self.think_recv = think_recv
        self.senders = senders
        self.horizon = phases * phase_len
        self.samples: List[ContentionSample] = []
        self._handlers = handlers
        self._rngs = {
            "recv": random.Random(worker_seed(seed, "worker:recv")),
        }
        for i in range(senders):
            self._rngs[f"send:{i}"] = random.Random(
                worker_seed(seed, f"worker:send:{i}")
            )
        self._next_id = ADVERSARY_ID_BASE
        self._roles: Dict[int, str] = {}

    def _burst_start_after(self, time: int) -> Optional[int]:
        """The first cycle >= ``time`` inside a burst phase (odd phase
        index), or None when no burst remains before the horizon."""
        clock = max(time, self.phase_len)
        while clock < self.horizon:
            if (clock // self.phase_len) % 2 == 1:
                return clock
            clock = ((clock // self.phase_len) + 1) * self.phase_len
        return None

    def _issue(self, tenant: str, role: str, arrival: int) -> Request:
        rng = self._rngs[role]
        payload = self._handlers[tenant].new_payload(rng)
        request = Request(
            req_id=self._next_id, tenant=tenant, arrival=arrival,
            payload=payload,
        )
        self._next_id += 1
        self._roles[request.req_id] = role
        return request

    def initial(self) -> List[Request]:
        out = [self._issue(self.receiver, "recv", 0)]
        first_burst = self._burst_start_after(0)
        if first_burst is not None:
            for i in range(self.senders):
                out.append(
                    self._issue(self.sender, f"send:{i}", first_burst + i)
                )
        return out

    def on_response(self, response: Any, time: int) -> Optional[List[Request]]:
        role = self._roles.pop(response.request.req_id, None)
        if role is None:
            return None
        if role == "recv":
            if (response.status == "ok" and response.latency is not None
                    and response.request.arrival < self.horizon):
                self.samples.append(ContentionSample(
                    arrival=response.request.arrival,
                    latency=response.latency,
                ))
            nxt = time + self.think_recv
            if nxt >= self.horizon:
                return None
            return [self._issue(self.receiver, "recv", nxt)]
        nxt = time + self.think_send
        if (nxt // self.phase_len) % 2 != 1:
            burst = self._burst_start_after(nxt)
            if burst is None:
                return None
            nxt = burst
        if nxt >= self.horizon:
            return None
        return [self._issue(self.sender, role, nxt)]
